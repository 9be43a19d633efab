"""Structured chain families on {0..N}: birth-death kernels, Moran-type
frequency chains, Wright-Fisher sampling chains, and the scale-function
profile of doubly absorbing birth-death chains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, kernels
from .kernels import BDParams
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL


def make_bd(p, q, r=None) -> BDParams:
    """Validate birth-death vectors. q_0 = 0 and p_N = 0 are mandatory, and
    are stored exactly 0; the hold vector is filled in as 1 - p - q when
    omitted.  A vanishing step is allowed anywhere: a reducible chain is
    refused where its stationary law is needed.
    """
    p = np.array(p, dtype=float)
    q = np.array(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1 or p.size < 2:
        raise errors.DimensionMismatchError("p and q must be equal-length vectors")
    if r is not None and np.shape(r) != p.shape:
        raise errors.DimensionMismatchError("r length mismatch")
    b = BDParams(p, q, np.zeros_like(p) if r is None else r)
    if r is None:          # 1 - p - q from the exact boundary zeros the record stores
        b = BDParams(b.p, b.q, 1.0 - b.p - b.q)
    _stochastic_or_raise(b)
    return b


def _stochastic_or_raise(b: BDParams) -> None:
    if kernels._band_kind(b) is not kernels.KernelKind.STOCHASTIC:
        raise errors.NotStochasticError("p + q + r must equal 1 on every state")


def bd_kernel(params: BDParams) -> kernels.Kernel:
    """The stochastic kernel of birth-death data; its bands are ``params``."""
    kernels._band_kind(params, "stochastic")
    return kernels.Kernel(bands=params)


def bd_params_from_kernel(P) -> BDParams:
    """Read birth-death vectors back from a tridiagonal stochastic matrix:
    one whose entries off the three central diagonals are exactly zero."""
    b = kernels._bands(P)
    if b is None:
        raise errors.DimensionMismatchError("kernel is not tridiagonal")
    _stochastic_or_raise(b)
    return b


def reflected_walk_params(N: int, p: float, q: float) -> BDParams:
    """Nearest-neighbour walk with holding boundaries: up rate p below N,
    down rate q above 0, the remainder stays put."""
    if p <= 0 or q <= 0 or p + q > 1:
        raise errors.NotStochasticError("need p, q > 0 with p + q <= 1")
    pv = np.full(N + 1, p)
    qv = np.full(N + 1, q)
    pv[N] = 0.0
    qv[0] = 0.0
    return make_bd(pv, qv)


@dataclass(frozen=True)
class BiasFunction:
    """Sampling bias u -> p(u) tabulated on the grid x/N."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def N(self) -> int:
        return self.values.size - 1


def make_bias(values) -> BiasFunction:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise errors.InvalidBiasError("bias table needs at least two grid points")
    if np.min(v) < -EPS_NEG or np.max(v) > 1 + EPS_NEG:
        raise errors.InvalidBiasError("bias values must lie in [0, 1]")
    return BiasFunction(np.clip(v, 0.0, 1.0))


def mutation_bias(a1: float, a2: float, N: int) -> BiasFunction:
    """Two-parameter mutation mechanism p(u) = (1 - a2) u + a1 (1 - u)."""
    if N < 1:
        raise errors.InvalidBiasError(f"the bias grid x/N needs N >= 1, got N = {N}")
    if not (0 <= a1 <= 1 and 0 <= a2 <= 1):
        raise errors.InvalidBiasError("mutation rates must lie in [0, 1]")
    u = np.arange(N + 1) / N
    return make_bias((1.0 - a2) * u + a1 * (1.0 - u))


def moran_kernel(N: int, bias: BiasFunction) -> BDParams:
    """Pair-sampling chain: draw a site and resample it with bias p(x/N).

    p_x = (1 - x/N) p(x/N), q_x = (x/N) q(x/N), r_x the rest, with
    q(u) = 1 - p(u).
    """
    if bias.N != N:
        raise errors.DimensionMismatchError("bias grid does not match N")
    u = np.arange(N + 1) / N
    pv = bias.values
    qv = 1.0 - pv
    p = (1.0 - u) * pv
    q = u * qv
    r = u * pv + (1.0 - u) * qv
    return make_bd(p, q, r)


def wright_fisher_kernel(N: int, bias: BiasFunction) -> kernels.Kernel:
    """Binomial resampling rows P(x, .) = Binomial(N, p(x/N))."""
    if bias.N != N:
        raise errors.DimensionMismatchError("bias grid does not match N")
    from scipy import stats

    y = np.arange(N + 1)
    rows = [stats.binom.pmf(y, N, pv) for pv in bias.values]
    return kernels.validate_kernel(np.array(rows), require="stochastic")


@dataclass(frozen=True)
class ScaleProfile:
    """Absorption profile of a doubly absorbing birth-death chain.

    ``phi``(x) = sum_{y>=x} rho_y / sum_y rho_y, rho_y = prod_{0<z<=y} q_z/p_z,
    is the probability of absorbing at 0.
    ``dual_station`` is the stationary law of the one-step dual restricted to
    {0..N-1}; phi(x) = sum_{z>=x} dual_station(z) is asserted at build time.
    """

    phi: np.ndarray
    dual_station: np.ndarray
    identity_residual: float


def absorption_profile(params: BDParams) -> ScaleProfile:
    """Scale-function absorption probabilities, cross-checked against the
    stationary law of the associated one-step dual.

    Requires hard absorption at both ends (p_0 = 0, r_0 = 1, q_N = 0,
    r_N = 1), interior positivity, and the cumulative-monotonicity condition
    p_x + q_{x+1} <= 1.
    """
    N = params.N
    if not {0, N} <= set(kernels.absorbing_states(params)):
        raise errors.NotDoublyAbsorbingError("need r_0 = 1 and r_N = 1 exactly")
    if np.any(params.p[1:N] <= EPS_NEG) or np.any(params.q[1:N] <= EPS_NEG):
        raise errors.NotDoublyAbsorbingError("interior transitions must be positive")
    if np.max(params.p[:-1] + params.q[1:]) > 1 + EPS_STOCH:
        raise errors.NotMonotoneError("profile needs p_x + q_{x+1} <= 1")

    ratios = params.q[1:N] / params.p[1:N]
    terms = np.concatenate([[1.0], np.cumprod(ratios)])  # index y = 0..N-1
    above = np.append(np.cumsum(terms[::-1])[::-1], 0.0)  # sum_{y>=x} rho_y
    phi = above / above[0]

    # one-step dual restricted to {0..N-1}: births q_{x+1}, deaths p_x
    from .duals import siegmund_dual  # local import to avoid a cycle

    report = siegmund_dual(bd_kernel(params))
    sub = report.dual[:N, :N]
    station = kernels.stationary(sub)
    tail = np.concatenate([np.cumsum(station[::-1])[::-1], [0.0]])  # sum_{z>=x}
    resid = kernels.sup_norm(phi - tail)
    if resid > RESID_TOL:
        raise errors.DualChainError(
            f"scale-function and dual-stationary profiles disagree ({resid})"
        )
    return ScaleProfile(phi=phi, dual_station=station, identity_residual=resid)
