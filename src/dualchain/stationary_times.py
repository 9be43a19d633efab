"""Separation distance, sharp strong-stationary structure, absorption laws.

Three independent routes compute the law of the absorption time of the
intertwined chain, all by one engine of matrix powers (the pmf and
survival advanced a block of steps at a time, the survival summed from the
surviving paths): on P~ itself (moments from the fundamental matrix); on
the pure-birth chain of the eigenvalues t_k of P, which holds at state k
with probability t_k, since the generating function of T is

    E(u^T) = prod_k (1 - t_k) u / (1 - t_k u)

(for t_k >= 0 a sum of independent Geometric(1 - t_k) times; Fill,
"The passage time distribution for a birth-and-death chain", J. Theor.
Probab. 22, 2009); and on the pure-birth chain of the eigenvalues of the
transient block of a birth-death P~, whose passage time from 0 to N has the
same product form (Keilson, "Log-concavity and log-convexity in passage
time densities of diffusion and birth-death processes", J. Appl. Probab.
8, 1971), with moments from the first-passage recurrences.  Separation
obeys sep(pi_n, pi) <= P(T > n) with equality in the presence of a witness
state d with Lambda e_d = pi(d) e_boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors, kernels
from .chains import BDParams
from .kernels import sup_norm
from .spectra import Spectrum, tridiagonal_eigenvalues
from .tolerances import (
    EPS_NEG, EPS_STOCH, GROWTH_TOL, RESID_TOL, SHARP_TOL, TAIL_LIMIT, TAIL_TARGET,
)

N_MAX_CAP = 10**6
# steps per iteration of absorption_exact's loop; a power of 2, as W and
# Q^B are built by doubling
_BLOCK = 64
# entries of the stacked laws whose separations verify_sharpness takes at once
_SEP_CHUNK = 1 << 17


def separation(mu, pi):
    """sep(mu, pi) = max_y (1 - mu(y)/pi(y)) over the last axis of ``mu``:
    one law gives a float, a stack of laws one separation per law."""
    mu, pi = np.asarray(mu, dtype=float), np.asarray(pi, dtype=float)
    if np.min(pi) <= 0:
        raise errors.ZeroStationaryEntryError("separation needs pi > 0")
    return np.max(1.0 - mu / pi, axis=-1)


def _witnesses(L, pi, boundary: int) -> list[int]:
    """States d with Lambda e_d = pi(d) e_boundary (tolerance 1e-10): the
    columns of |Lambda - T|, T zero but for row ``boundary`` = pi, whose
    sup norm is within the tolerance."""
    dev = np.abs(L)
    dev[boundary] = np.abs(L[boundary] - pi)
    return np.flatnonzero(dev.max(axis=0) <= RESID_TOL).tolist()


@dataclass(frozen=True)
class SharpnessReport:
    table: np.ndarray        # columns: n, sep, survival
    max_gap: float           # max_n |sep(n) - P(T > n)|
    excess: float            # max_n (sep(n) - P(T > n)), at most 0 in theory
    witness: int | None
    boundary: int
    sharp: bool


def verify_sharpness(P, p_tilde, link, pi0, pi_tilde0,
                     n_max: int = 100) -> SharpnessReport:
    """Tabulate sep(pi_n, pi) against P(T_boundary > n).

    ``P`` must be the kernel the link intertwines with p_tilde (for a
    reversible chain that is the chain itself; in general its reversal).
    The boundary is the last absorbing state of p_tilde whose link row is
    pi within SHARP_TOL.  Refuses initial laws of the wrong length, laws
    with pi_tilde0 Lambda != pi0 and a p_tilde without such a boundary.
    The inequality sep <= survival and, under a witness state, the equality
    are read, not gated: ``excess`` is the largest excess of separation over
    survival, ``max_gap`` the largest gap either way.  The intertwining the
    table rests on is read by ``build_intertwining``, not here.
    """
    m, pt, L = (np.asarray(v, dtype=float) for v in (P, p_tilde, link))
    pi0 = kernels.validate_prob_vector(pi0, "pi0", m.shape[0])
    pt0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pt.shape[0])
    adm = sup_norm(pt0 @ L - pi0)
    if adm > RESID_TOL:
        raise errors.NotAdmissibleError(f"initial laws not linked: {adm:.3g}")
    pi = kernels.stationary(P)    # a Kernel's bands and kind are reused

    candidates = [
        a for a in kernels.absorbing_states(p_tilde) if sup_norm(L[a] - pi) <= SHARP_TOL
    ]
    if not candidates:
        raise errors.NotAbsorbingError("no absorbing state carries pi in the link")
    boundary = candidates[-1]

    witness = next(iter(_witnesses(L, pi, boundary)), None)

    table = np.empty((n_max + 1, 3))
    table[:, 0] = np.arange(n_max + 1)
    # the laws of a block of steps, each written by its product into its row
    B = min(n_max + 1, max(1, _SEP_CHUNK // m.shape[0]))
    mus, nus = np.empty((B, m.shape[0])), np.empty((B, pt.shape[0]))
    mus[0], nus[0] = pi0, pt0
    mu, nu = mus[0], nus[0]
    for lo in range(0, n_max + 1, B):
        hi = min(lo + B, n_max + 1)
        for i in range(int(lo == 0), hi - lo):     # n = 0 is already in row 0
            mu = np.matmul(mu, m, out=mus[i])
            nu = np.matmul(nu, pt, out=nus[i])
        table[lo:hi, 2] = 1.0 - nus[: hi - lo, boundary]
        table[lo:hi, 1] = separation(mus[: hi - lo], pi)
    gap = table[:, 1] - table[:, 2]
    return SharpnessReport(table=table, max_gap=float(np.max(np.abs(gap))),
                           excess=float(np.max(gap)), witness=witness, boundary=boundary,
                           sharp=witness is not None)


@dataclass(frozen=True)
class AbsorptionStats:
    """Law of the absorption time truncated at n_max.

    pmf[n] = P(T = n) for n = 0..n_max; survival[n] = P(T > n); the mass
    beyond n_max is ``truncation_mass``; mean and variance are exact on
    every route (none of them depends on n_max).  Every route cuts and
    refuses the law by the rule of ``_truncate``.
    """

    pmf: np.ndarray
    survival: np.ndarray
    mean: float
    variance: float
    source: str

    def __post_init__(self):
        p = np.array(self.pmf, dtype=float)
        s = np.array(self.survival, dtype=float)
        object.__setattr__(self, "pmf", p)
        object.__setattr__(self, "survival", s)
        p.setflags(write=False)
        s.setflags(write=False)
        if np.min(p) < -EPS_NEG:
            raise errors.DualChainError(f"pmf has negative entry {p.min()}")
        if abs(p.sum() + self.truncation_mass - 1.0) > EPS_STOCH:
            raise errors.DualChainError("pmf plus truncation mass misses 1")
        if np.any(np.diff(s) > EPS_NEG):
            raise errors.DualChainError("survival is not nonincreasing")

    @property
    def n_max(self) -> int:
        return self.pmf.shape[0] - 1

    @property
    def truncation_mass(self) -> float:
        return float(self.survival[-1])


def hitting_moments(p_tilde, start, boundary: int) -> tuple[float, float]:
    """Mean and variance of the first arrival at the absorbing ``boundary``
    from the fundamental matrix (Kemeny and Snell, Finite Markov Chains, III):
    with Q = P~ on the states the start reaches (along entries above EPS_NEG)
    but the boundary, m1 = (I - Q)^{-1} 1 and E T^2 = (I - Q)^{-1}(2 m1 - 1).
    The diagonal of I - Q is each row's summed off-diagonal mass (GTH), not
    1 - Q(x, x).  A reached state that cannot reach the boundary is refused.
    """
    pt = np.asarray(p_tilde, dtype=float)
    start = kernels.validate_prob_vector(start, "start", pt.shape[0])
    if boundary < 0 or boundary >= pt.shape[0]:
        raise errors.DimensionMismatchError("boundary out of range")
    if boundary not in kernels.absorbing_states(p_tilde):
        raise errors.NotAbsorbingError(f"state {boundary} is not absorbing")
    at_boundary = np.arange(pt.shape[0]) == boundary
    reached = kernels.reachable(p_tilde, start > 0) & ~at_boundary
    stuck = np.flatnonzero(reached & ~kernels.reachable(p_tilde, at_boundary, backward=True))
    if stuck.size:
        raise errors.TruncationTooCoarseError(
            f"state {stuck[0]} is reached from the start but never reaches {boundary}")
    idx = np.flatnonzero(reached)
    rows = pt[idx]
    rows[np.arange(idx.size), idx] = 0.0
    A = rows[:, idx]
    np.negative(A, out=A)
    A[np.diag_indices(idx.size)] = rows.sum(axis=1)
    del rows                      # freed before the solves, which each copy A
    m1 = np.linalg.solve(A, np.ones(idx.size))
    mean = float(start[idx] @ m1)
    return mean, float(start[idx] @ np.linalg.solve(A, 2.0 * m1 - 1.0)) - mean**2


def _truncate(coef, n_max: int | None, mean: float,
              beyond: float) -> tuple[np.ndarray, np.ndarray]:
    """Cut the law P(T = n) = coef[n] of one route by the rule all three
    routes share; return the cut pmf and its survival.

    ``beyond`` is P(T >= len(coef)).  The survival P(T > n) is summed from
    the tail, beyond + sum_{k > n} coef[k], so it keeps its relative
    accuracy down to TAIL_TARGET, where 1 - sum_{k <= n} coef[k] would
    carry the rounding of n additions near 1.  An explicit n_max is the
    cut.  Otherwise the cut is the first n with P(T > n) <= TAIL_TARGET, at
    most N_MAX_CAP.  A cut that leaves more than TAIL_LIMIT of the mass
    beyond it is refused.  Rounding negatives above -1e-12 in the cut pmf
    are zeroed.
    """
    survival = np.maximum(np.append(np.cumsum(coef[:0:-1])[::-1], 0.0) + beyond, 0.0)
    if n_max is None:
        below = survival[: N_MAX_CAP + 1] <= TAIL_TARGET
        n_max = int(below.argmax()) if below.any() else below.shape[0] - 1
    pmf, survival = coef[: n_max + 1], survival[: n_max + 1]
    pmf = np.where((pmf < 0) & (pmf > -EPS_NEG), 0.0, pmf)
    trunc = float(survival[-1])
    if not trunc <= TAIL_LIMIT:       # also catches NaN
        raise errors.TruncationTooCoarseError(
            f"survivor mass {trunc:.3g} at n_max={pmf.shape[0] - 1}, mean {mean:.3g}"
        )
    return pmf, survival


def _absorb(pt, start, boundary: int, n_max: int | None,
            mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Pmf and survival of the first arrival at ``boundary`` of the chain
    ``pt`` from ``start``, cut by ``_truncate``; ``mean`` only enters its
    refusal message.

    With Q = pt without the boundary's row and column, r = pt[:, boundary]
    off the boundary and nu_k the law at step k of the paths not yet
    arrived, P(T = k + j) = nu_k Q^(j-1) r.  The loop advances _BLOCK
    steps at a time: pmf[k+1 .. k+B] = nu_k W with W = [r, Qr, ..,
    Q^(B-1) r], then nu_(k+B) = nu_k Q^B, W and Q^B being built by
    doubling.  The mass left, P(T > k) = nu_k 1, is summed from the
    surviving paths, not taken as 1 - P(arrived).  For a nonnegative pt
    every quantity is a sum of nonnegative products, so each keeps its
    relative accuracy down to TAIL_TARGET.  The blocks stop past n_max, or
    by default past the first n with survival below TAIL_TARGET, at most
    N_MAX_CAP.
    """
    cap = min(n_max, N_MAX_CAP) if n_max is not None else N_MAX_CAP
    target = TAIL_TARGET if n_max is None else -1.0
    Q = pt.copy()
    Q[boundary] = 0.0
    W = Q[:, [boundary]].copy()
    Q[:, boundary] = 0.0
    QB = Q
    while W.shape[1] < _BLOCK:
        W = np.hstack([W, QB @ W])
        QB = QB @ QB
    nu = start.copy()
    nu[boundary] = 0.0
    blocks = [start[[boundary]]]
    length, left = 1, float(nu.sum())
    while left > target and length <= cap:
        blocks.append(nu @ W)
        nu = nu @ QB
        length, left = length + _BLOCK, float(nu.sum())
    return _truncate(np.concatenate(blocks), None if n_max is None else cap, mean,
                     beyond=left)


def _pure_birth_law(t, n_max: int | None, mean: float) -> tuple[np.ndarray, np.ndarray]:
    """``_absorb`` on the chain on 0..N, N = len(t), that holds at k with
    probability t_k and steps to k + 1 otherwise, run from 0 to N: its time
    has the generating function prod_k (1 - t_k) u / (1 - t_k u).  When
    some t_k < 0 the kernel is signed, the engine's sums cancel, and the
    law is accurate only in absolute terms."""
    N = t.shape[0]
    K = np.zeros((N + 1, N + 1))
    K[np.arange(N), np.arange(N)] = t
    K[np.arange(N), np.arange(1, N + 1)] = 1.0 - t
    K[N, N] = 1.0
    start = np.zeros(N + 1)
    start[0] = 1.0
    return _absorb(K, start, N, n_max, mean)


def absorption_exact(p_tilde, start, boundary: int, n_max: int | None = None) -> AbsorptionStats:
    """Law of the first arrival at an absorbing state by matrix powers of
    P~ (``_absorb``), with the mean and variance of ``hitting_moments``.
    """
    mean, variance = hitting_moments(p_tilde, start, boundary)
    pt = np.asarray(p_tilde, dtype=float)
    start = kernels.validate_prob_vector(start, "start", pt.shape[0])
    pmf, survival = _absorb(pt, start, boundary, n_max, mean)
    return AbsorptionStats(pmf=pmf, survival=survival, mean=mean, variance=variance,
                           source="matrix-power")


def spectral_moments(spec: Spectrum) -> tuple[float, float]:
    """Mean sum 1/(1-t_k) and variance sum t_k/(1-t_k)^2 of the absorption
    time, over the eigenvalues t_k, k >= 1, which must lie in (-1, 1)."""
    t = spec.eigenvalues[1:]
    if np.any(t >= 1.0) or np.any(t <= -1.0):
        raise errors.SpectrumError("spectral route needs t_k in (-1, 1) for k >= 1")
    return float(np.sum(1.0 / (1.0 - t))), float(np.sum(t / (1.0 - t) ** 2))


def absorption_spectral(spec: Spectrum, n_max: int | None = None) -> AbsorptionStats:
    """Absorption law from the eigenvalues alone.

    The product of the generating-function factors (1-t_k)u/(1-t_k u)
    generates the exact pmf for any sign pattern (for nonnegative spectra
    this is the independent-geometric-sum representation; factors with
    t_k < 0 contribute the Bernoulli-shift correction).  It is the law of
    the pure-birth chain that holds at k with probability t_k, computed by
    ``_pure_birth_law``; when some t_k < 0 that kernel is signed and the
    pmf is accurate only in absolute terms.  Moments are
    ``spectral_moments``.  The law meets no check of its own beyond the
    gates of ``AbsorptionStats``: the engine is the one ``absorption_exact``
    runs on P~.
    With the automatic horizon a hopeless tail is refused before the
    engine runs: when every t_k >= 0, T is the sum of independent
    Geometric(1 - t_k) times and T >= G_1 with t_1 = max t_k; hence
    P(T > n) >= P(G_1 > n) = t_1^n, and a floor t_1^N_MAX_CAP above
    TAIL_LIMIT means no cut within the cap can hold.
    """
    mean, variance = spectral_moments(spec)
    t = spec.eigenvalues[1:]
    N = t.shape[0]

    if n_max is None:
        # spares the engine 10^6 steps towards a cut it cannot reach
        floor = float(t[0]) ** N_MAX_CAP if N and t[-1] >= 0.0 else 0.0
        if floor > TAIL_LIMIT:
            raise errors.TruncationTooCoarseError(
                f"survivor mass at least {floor:.3g} at n_max={N_MAX_CAP}, mean {mean:.3g}"
            )
    pmf, survival = _pure_birth_law(t, n_max, mean)
    return AbsorptionStats(pmf=pmf, survival=survival, mean=mean, variance=variance,
                           source="spectral")


def _passage_moments(params: BDParams) -> tuple[float, float]:
    """Mean and variance of the passage from 0 to N, summed over the pieces
    S_y of ``absorption_recurrence``.  The recurrences run on Python floats:
    the same IEEE operations in the same order as on numpy scalars, faster.
    Where a square overflows or underflows to a zero divisor, Python floats
    raise, and the numpy scalars take over, giving inf or nan."""
    try:
        return _passage_sums(params.N, params.p.tolist(), params.q.tolist())
    except (OverflowError, ZeroDivisionError):
        return _passage_sums(params.N, params.p, params.q)


def _passage_sums(N: int, p, q) -> tuple[float, float]:
    ES = [1.0 / p[0]]
    VS = [(1.0 - p[0]) / p[0] ** 2]
    for y in range(1, N):
        ES.append(1.0 / p[y] + (q[y] / p[y]) * ES[y - 1])
        A = (
            (p[y] - 1.0) / p[y] ** 2
            + 2.0 * (1.0 - p[y]) / p[y] * ES[y]
            + 2.0 * q[y] * (p[y] - 1.0) / p[y] ** 2 * ES[y - 1]
            + 2.0 * q[y] / p[y] * ES[y - 1] * ES[y]
            - q[y] * (q[y] - p[y]) / p[y] ** 2 * ES[y - 1] ** 2
        )
        VS.append((q[y] / p[y]) * VS[y - 1] + A)
    # numpy's pairwise sums, as over the arrays these lists replace
    return float(np.sum(ES)), float(np.sum(VS))


def absorption_recurrence(params: BDParams, n_max: int | None = None) -> AbsorptionStats:
    """First-passage route for a birth-death chain run from 0 up to N.

    The passage pieces S_y (time from y to y+1) satisfy
    E(S_y) = 1/p_y + (q_y/p_y) E(S_{y-1}) and Var(S_y) = (q_y/p_y)
    Var(S_{y-1}) + A_y.  By Keilson's passage-time theorem the generating
    function of T is prod_k (1 - theta_k) u / (1 - theta_k u) over the
    eigenvalues theta_k of the transient block (states 0..N-1), for every
    birth-death chain with p_y > 0: the skip-free numerator is
    p_0 .. p_(N-1) u^N and the denominator det(I - u Q).  The theta_k come
    from its symmetrisation, diagonal r_y and off-diagonal
    sqrt(p_y q_(y+1)); the law is that of the pure-birth chain of the
    theta_k (``_pure_birth_law``), accurate only in absolute terms when
    some theta_k < 0.
    """
    N = params.N
    p, q, r = params.p, params.q, params.r
    if np.any(p[:N] <= 0):
        raise errors.ZeroUpProbabilityError("needs p_y > 0 for y < N")

    mean, variance = _passage_moments(params) if N else (0.0, 0.0)

    if n_max is None and N:
        # the walk leaves y upward with probability at most p_y per step, so
        # P(T > n) >= (1 - p_y)^n: a tail that bound keeps above TAIL_LIMIT
        # at the cap is refused without the 10^6 engine steps
        floor = math.exp(N_MAX_CAP * math.log1p(-float(p[:N].min())))
        if floor > TAIL_LIMIT:
            raise errors.TruncationTooCoarseError(
                f"survivor mass at least {floor:.3g} at n_max={N_MAX_CAP}, mean {mean:.3g}"
            )
    # largest first, the order of the spectral route's t_k
    theta = tridiagonal_eigenvalues(r[:N], np.sqrt(p[: N - 1] * q[1:N]))[::-1]
    pmf, survival = _pure_birth_law(theta, n_max, mean)
    return AbsorptionStats(pmf=pmf, survival=survival, mean=mean, variance=variance,
                           source="recurrence")


def cutoff_report(family, N_values) -> dict:
    """Sweep a chain family and tabulate the cutoff indicators.

    ``family`` maps N to a Spectrum.  Columns per N: mean E, variance,
    Var/E^2, and the product (1 - t_1) E whose growth along the list is the
    sufficient cutoff signal.
    """
    rows = []
    for N in N_values:
        spec = family(N)
        E, V = spectral_moments(spec)
        gapE = spec.gap * E
        rows.append({
            "N": int(N),
            "mean": E,
            "variance": V,
            "relative_variance": V / E**2 if E > 0 else 0.0,
            "gap_times_mean": gapE,
        })
    g = [row["gap_times_mean"] for row in rows]
    growing = all(b > a * (1 + GROWTH_TOL) for a, b in zip(g, g[1:])) and len(g) > 1
    return {"rows": rows, "cutoff_flag": bool(growing)}
