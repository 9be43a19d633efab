"""Global numerical tolerances.

All modules share three windows: a clamp for tiny negative entries produced
by linear solves, a looser one for row-sum / stochasticity checks, and a
residual tolerance for linear identities between kernels.  The gates of
the separation, absorption-law, spectrum, root-finding and sampling checks
follow.
"""

# entries in [-EPS_NEG, 0) are treated as exact zeros; anything below is a
# genuine negativity violation
EPS_NEG = 1e-12

# row sums count as 1 when within EPS_STOCH of 1
EPS_STOCH = 1e-9

# sup-norm tolerance for matrix identities (duality, intertwining, harmonicity)
RESID_TOL = 1e-10

# n-step duality H (Phat^m)' = P^m H, m <= n_max: the powers carry more
# rounding than the one-step identity gated by RESID_TOL
DYNAMIC_TOL = 1e-9

# a hitting-probability solve may leave [0, 1] by this much before clipping
HITTING_TOL = 1e-9

# power traces tr(P^m) and tr(Ptilde^m), m = 1..n, agree within TRACE_TOL * n
TRACE_TOL = 1e-8

# separation against hidden survival: sep <= survival + SHARP_TOL, equality
# within SHARP_TOL under a witness, and the link row of the absorbing state
# equal to pi within SHARP_TOL
SHARP_TOL = 1e-9

# absorption-law horizons: the automatic n_max is the first n with survival
# below TAIL_TARGET; a truncation leaving more than TAIL_LIMIT is refused
TAIL_TARGET = 1e-12
TAIL_LIMIT = 1e-9

# relative deviation of the exact absorption mean and variance of the matrix
# route (fundamental matrix of Ptilde) from the spectral route (closed sums)
ABSORPTION_TOL = 1e-8

# spectral route: the gate of the partial-fraction survival cross-check,
# which checks only the steps whose rounding bound lies below it
SPECTRAL_TOL = 1e-9

# eigenvalues closer than this are not expanded in partial fractions
EIG_GAP_MIN = 1e-8

# relative growth of (1 - t_1) E that counts as a rise in a cutoff sweep
GROWTH_TOL = 1e-9

# family-wise false-alarm bound of the sampled-law test of empirical_report
SAMPLE_ALPHA = 1e-6

# birth-death spectra: t_0 within SPECTRUM_TOL of 1 is 1, and eigenvalues
# may leave [-1, 1] by this much
SPECTRUM_TOL = 1e-10

# orthogonal-polynomial roots: the bisection grid overhangs [-1, 1] by
# ROOT_BRACKET; brentq stops at ROOT_XTOL + ROOT_RTOL |root| (its smallest
# allowed rtol is 4 eps)
ROOT_BRACKET = 1e-9
ROOT_XTOL = 1e-14
ROOT_RTOL = 8.9e-16
