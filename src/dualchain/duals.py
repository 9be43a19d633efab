"""Dual functions H and dual kernels.

A kernel Phat is an H-dual of P when H Phat' = P H.  This module builds the
standard dual-function families (cumulative-indicator, two-block ultrametric,
hypergeometric, power/Vandermonde, potential), derives dual kernels either
from closed forms or by linear solves, and checks the feasibility conditions
that decide whether the dual is an honest substochastic kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import errors, kernels
from .chains import bd_kernel
from .kernels import Kernel, sup_norm
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL, ROW_MASS_TOL

COND_LIMIT = 1e12


@dataclass(frozen=True)
class DualFunction:
    """A nonnegative matrix H used on the right of the duality identity.

    ``family`` tags the construction ("siegmund", "ultrametric",
    "hypergeometric", "vandermonde", "potential", "custom").
    """

    matrix: np.ndarray
    family: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise errors.NonSquareError("dual function must be square")
        if not np.all(np.isfinite(m)):
            raise errors.NonFiniteEntryError("dual function has non-finite entries")
        if np.min(m) < -EPS_NEG:
            raise errors.NegativeEntryError("dual function must be nonnegative")
        if np.any(m.sum(axis=1) <= EPS_NEG) or np.any(m.sum(axis=0) <= EPS_NEG):
            raise errors.TrivialDualFunctionError(
                "dual function has a vanishing row or column"
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _two_block(N: int, k: int, alpha: float, beta: float):
    """gamma and e of the cumulative function with blocks C = {0..k} and
    C' = {k+1..N}.

    H(x, y) = 1(x <= y) times (1 + gamma(x)) inside a block and 1 across
    blocks, gamma = alpha on C and beta on C'.  The inverse is bidiagonal:
    row x holds 1/(1+gamma(x)) on the diagonal and -e(x)/(1+gamma(x)) just
    above, with e(k) = 1/(1+beta) and e = 1 elsewhere.  k = N with
    alpha = beta = 0 is the one-block case, the Siegmund indicator.
    """
    gamma = np.where(np.arange(N + 1) <= k, float(alpha), float(beta))
    e = np.ones(N + 1)
    e[k] = 1.0 / (1.0 + beta)
    return gamma, e


def _two_block_function(N, k, alpha, beta, family) -> DualFunction:
    """The H that ``_two_block`` describes."""
    gamma, _ = _two_block(N, k, alpha, beta)
    low = np.arange(N + 1) <= k
    same_block = low[:, None] == low[None, :]
    H = np.triu(np.ones((N + 1, N + 1))) * (1.0 + gamma[:, None] * same_block)
    return DualFunction(H, family)


def _check_ultrametric(N: int, k: int, alpha: float, beta: float) -> None:
    if not (0 <= k < N):
        raise errors.InvalidUltrametricParamsError("need 0 <= k < N")
    if alpha < 0 or beta < 0:
        raise errors.InvalidUltrametricParamsError("need alpha, beta >= 0")


def siegmund_function(N: int) -> DualFunction:
    """H(x, y) = 1(x <= y); its inverse is the first-difference matrix."""
    return _two_block_function(N, N, 0.0, 0.0, "siegmund")


def ultrametric_function(N: int, k: int, alpha: float, beta: float) -> DualFunction:
    """Two-block weighting of the cumulative indicator (see ``_two_block``):
    H(x, y) = 1(x <= y) times (1 + gamma(x)) inside a block and 1 across."""
    _check_ultrametric(N, k, alpha, beta)
    return _two_block_function(N, k, alpha, beta, "ultrametric")


def hypergeometric_function(N: int) -> DualFunction:
    """H(x, y) = C(N-x, y) / C(N, y): symmetric, zero when x + y > N."""
    H = np.zeros((N + 1, N + 1))
    for x in range(N + 1):
        for y in range(N + 1 - x):
            H[x, y] = comb(N - x, y) / comb(N, y)
    return DualFunction(H, "hypergeometric")


def vandermonde_function(N: int) -> DualFunction:
    """H(x, y) = (x/N)^y with 0^0 = 1.  Reporting only: extremely
    ill-conditioned as N grows, and no feasibility theory is attached."""
    x = np.arange(N + 1) / N
    y = np.arange(N + 1)
    H = x[:, None] ** y[None, :]
    H[0, 0] = 1.0
    return DualFunction(H, "vandermonde")


def potential_function(R) -> DualFunction:
    """H = (Id - R)^{-1} = sum_n R^n for strictly substochastic R with no
    mass-conserving class."""
    RK = kernels.validate_kernel(R, require="substochastic")
    if RK.kind is not kernels.KernelKind.STRICTLY_SUBSTOCHASTIC:
        raise errors.PotentialHasStochasticClassError("R must lose mass somewhere")
    dec = kernels.classify(RK)
    if dec.stochastic_classes:
        raise errors.PotentialHasStochasticClassError(
            f"R keeps full mass on class {dec.stochastic_classes[0]}"
        )
    n = RK.n
    H = np.linalg.solve(np.eye(n) - RK.matrix, np.eye(n))
    return DualFunction(H, "potential")


@dataclass(frozen=True)
class DualReport:
    """Outcome of a dual-kernel construction.

    ``dual`` is an array or a record-only Kernel; ``feasible`` is False when
    it has entries below -EPS_NEG, listed in ``violations`` as (condition,
    (row, col), value).  ``mass_leaks`` holds 1 - row sums of the dual.  The
    residual of the duality identity is ``verify_duality``'s to measure.
    """

    dual: np.ndarray | Kernel
    feasible: bool
    mass_leaks: np.ndarray
    violations: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def is_monotone(P) -> bool:
    """Rows are stochastically nondecreasing: cumulative sums F(x, y) are
    nonincreasing in x for every y, up to EPS_NEG.  For a birth-death kernel
    this is p_x + q_{x+1} <= 1, and its record gives the same sums in O(n),
    F(x, x - 2 + j) for j = 0..4, so row x + 1 is compared one column on."""
    b = P if isinstance(P, kernels.BDParams) else getattr(P, "bands", None)
    if b is None:
        F = np.cumsum(np.asarray(P, dtype=float), axis=1)
        return bool(np.all(F[1:] - F[:-1] <= EPS_NEG))
    q, p = np.r_[0.0, b.q[1:]], np.r_[b.p[:-1], 0.0]     # as the matrix holds them
    F = np.cumsum(np.c_[0 * q, q, b.r, p, 0 * q], axis=1)
    return bool(np.all(F[1:, :4] - F[:-1, 1:] <= EPS_NEG))


def _report(dual, tag) -> DualReport:
    """Report on a candidate dual.

    Entries below -EPS_NEG are violations, tagged ``tag(row)``, and make the
    candidate infeasible; entries in [-EPS_NEG, 0) are clamped to 0 before
    the mass leaks are taken.  Diagnostics are left for the caller to fill.
    """
    violations = [
        (tag(int(y)), (int(y), int(x)), float(dual[y, x]))
        for y, x in zip(*np.nonzero(dual < -EPS_NEG))
    ]
    dual = np.where((dual < 0) & (dual >= -EPS_NEG), 0.0, dual)
    return DualReport(
        dual=dual,
        feasible=not violations,
        mass_leaks=1.0 - dual.sum(axis=1),
        violations=violations,
    )


def _two_block_dual(K: Kernel, k: int, alpha: float, beta: float):
    """Dual of K for the two-block cumulative function, in O(n^2).

    Phat' = H^{-1} (P H): P H is a blockwise cumulative sum, (1+alpha) F(x, y)
    for y <= k and (1+beta) F(x, y) - beta F(x, k) for y > k, with F(x, y) =
    sum_{z<=y} P(x, z), and H^{-1} is the bidiagonal of ``_two_block``.
    Returns (dual, F).  For stochastic K, F(x, .) is exactly 1 from the
    last nonzero entry of row x on (the row sum), so the dual has exact
    zeros there rather than +-1e-16 of rounding.
    """
    m, n = K.matrix, K.n
    gamma, e = _two_block(n - 1, k, alpha, beta)
    F = np.cumsum(m, axis=1)
    if K.kind is kernels.KernelKind.STOCHASTIC:
        last = n - 1 - np.argmax(m[:, ::-1] != 0, axis=1)
        F[np.arange(n)[None, :] >= last[:, None]] = 1.0
    PH = (1.0 + alpha) * F
    PH[:, k + 1:] = (1.0 + beta) * F[:, k + 1:] - beta * F[:, k:k + 1]
    below = np.vstack([PH[1:], np.zeros(n)])  # (P H)(x+1, .), zero past N
    dual = ((PH - e[:, None] * below) / (1.0 + gamma[:, None])).T
    return dual, F


def _siegmund_bands(b: kernels.BDParams) -> np.ndarray:
    """The up, down and hold diagonals of the Siegmund dual of the stochastic
    birth-death record ``b``: the differences F(x, y) - F(x+1, y) that
    ``_two_block_dual`` takes, bit for bit.  Row x of F is 0 left of x - 1,
    then q_x, q_x + r_x, and 1.0 from the row's last nonzero entry on."""
    q, p = np.r_[0.0, b.q[1:]], np.r_[b.p[:-1], 0.0]         # as the matrix holds them
    below = np.append(np.where((b.r == 0) & (p == 0), 1.0, q)[1:], 0.0)  # F(y + 1, y)
    at = np.where(p == 0, 1.0, q + b.r)                      # F(y, y)
    return np.array((below, np.append(0.0, 1.0 - at[1:]), at - below))


def siegmund_dual(P) -> DualReport:
    """Cumulative-indicator dual: Phat(y, x) = F(x, y) - F(x+1, y) with
    F(x, y) = sum_{z<=y} P(x, z) and F(N+1, .) = 0; the one-block case
    k = N, alpha = beta = 0 of the two-block dual.

    Feasible exactly when P is monotone; the violating difference is
    recorded otherwise.  For stochastic P the last state is absorbing for
    the dual and row y loses mass 1 - F(0, y).  For stochastic birth-death P
    it is formed from the record in O(n): a feasible one is a record-only
    Kernel whose rows lose 1 - ((q + r) + p), an infeasible one is dense.
    """
    K = kernels.validate_kernel(P)
    n = K.n
    stochastic = K.kind is kernels.KernelKind.STOCHASTIC
    bands = _siegmund_bands(K.bands) if stochastic and K.bands is not None else None
    if bands is not None and bands.min() >= -EPS_NEG:
        b = kernels.BDParams(*bands)
        rep = DualReport(dual=Kernel(bands=b), feasible=True,
                         mass_leaks=1.0 - ((b.q + b.r) + b.p))
    else:
        rep = _report(_two_block_dual(K, n - 1, 0.0, 0.0)[0], lambda y: "monotone")
    rep.diagnostics.update({
        "absorbing_last": n - 1 in kernels.absorbing_states(rep.dual) if stochastic else None,
        "leak_at_zero": float(rep.mass_leaks[0]),
        "stochastic_dual": bool(np.all(np.abs(rep.mass_leaks) <= EPS_STOCH)),
    })
    return rep


def bd_siegmund_dual(params) -> np.ndarray:
    """Closed tridiagonal form of the cumulative dual of a birth-death
    kernel: down p_x, hold 1 - (p_x + q_{x+1}), up q_{x+1} (q_{N+1} = 0).
    The test oracle of ``siegmund_dual``'s banded route, to rounding."""
    qpad = np.append(params.q[1:], 0.0)  # q_{x+1}
    return (np.diag(params.p[1:], -1) + np.diag(1.0 - (params.p + qpad))
            + np.diag(qpad[:-1], 1))


def ultrametric_dual(P, k: int, alpha: float, beta: float) -> DualReport:
    """Two-block ultrametric dual.

    Computed as H^{-1} (P H) by ``_two_block_dual``.  Entrywise, with
    F(x, y) = sum_{z<=y} P(x, z), F(N+1, .) = 0, gamma as in the dual
    function, and J(z) = P(k, z) - P(k+1, z)/(1+beta):

      x != k, y <= k:  (1+alpha)/(1+gamma(x)) * [F(x,y) - F(x+1,y)]
      x != k, y  > k:  1/(1+gamma(x)) * dFk(x)
                       + (1+beta)/(1+gamma(x)) * [dF(x,y) - dFk(x)]
      x  = k, y <= k:  sum_{z<=y} J(z)
      x  = k, y  > k:  1/(1+alpha) * sum_{z<=k} J(z)
                       + (1+beta)/(1+alpha) * sum_{k<z<=y} J(z)

    Feasibility is the entrywise nonnegativity of the result; negative
    entries are tagged with the cumulative condition they violate (lower
    block vs upper block).  Diagnostics include the constant-block-mass
    sufficient conditions and the row-mass profile with its conservative
    rows (row sums within EPS_STOCH of 1).
    """
    K = kernels.validate_kernel(P)
    n = K.n
    _check_ultrametric(n - 1, k, alpha, beta)
    dual, F = _two_block_dual(K, k, alpha, beta)
    rep = _report(dual, lambda y: "lower-block-cumulative" if y <= k
                  else "upper-block-cumulative")
    row_mass = rep.dual.sum(axis=1)
    low = np.arange(n) <= k
    high = ~low

    # row-mass profile in closed form (must agree with the assembled rows)
    L = np.empty(n)
    L[low] = F[0, low] + alpha / (1.0 + beta) * F[k + 1, low]
    L[high] = (
        F[0, k] / (1.0 + alpha)
        + (1.0 + beta) / (1.0 + alpha) * (F[0, high] - F[0, k])
        + alpha / ((1.0 + alpha) * (1.0 + beta)) * F[k + 1, k]
        + alpha / (1.0 + alpha) * (F[k + 1, high] - F[k + 1, k])
    )
    if rep.feasible and sup_norm(L - row_mass) > ROW_MASS_TOL:  # pragma: no cover
        raise errors.DualChainError("row-mass profile disagrees with assembly")

    # cumulative monotonicity across every adjacent row pair (x, x+1), x != k:
    # lower block uses F itself, upper block the above-k cumulative G = F - F(., k)
    dF = np.delete(F[:-1] - F[1:], k, axis=0)
    lower_monotone = bool(np.all(dF[:, low] >= -EPS_NEG))
    upper_monotone = bool(np.all(dF[:, high] - dF[:, k:k + 1] >= -EPS_NEG))
    block_mass = F[:, k]
    rep.diagnostics.update({
        "row_mass": row_mass,
        "constant_block_mass": bool(np.ptp(block_mass) <= EPS_STOCH),
        "delta": float(block_mass.mean()),
        "delta_substochastic": (1.0 + beta) / (1.0 + alpha + beta),
        "blockwise_monotone": bool(lower_monotone and upper_monotone),
        "conservative_rows": [int(y) for y in range(n) if abs(row_mass[y] - 1.0) <= EPS_STOCH],
        "substochastic": bool(np.all(row_mass <= 1 + EPS_STOCH)),
    })
    return rep


def bd_ultrametric_rigidity(params, k: int, alpha: float, beta: float) -> dict:
    """Feasibility analysis of the two-block dual for an irreducible
    birth-death kernel.

    The report records: feasibility and (when beta > 0, 1 <= k <= N-2) the
    negative witness entry at (k+2, k-1) whose value is -beta p_k /
    (1+alpha); whether k >= 1 forces alpha = 0 through the row-k mass
    1 + alpha q_{k+1} / (1+beta); and for k = 0 the threshold p_0 / q_1.
    With k = beta = 0 every alpha >= 0 gives a nonnegative (feasible) dual
    whose row 0 has mass 1 - p_0 + alpha q_1; p_0 / q_1 is the largest alpha
    for which the dual stays substochastic, and there row 0 becomes
    conservative.  The whole dual is stochastic there only when N = 1; for
    N >= 2 row 1 keeps mass 1 - alpha p_1 / (1+alpha) < 1.
    """
    if not kernels.is_irreducible(params):
        raise errors.NotIrreducibleError("rigidity analysis needs an irreducible chain")
    P = bd_kernel(params)
    rep = ultrametric_dual(P, k, alpha, beta)
    N = params.N
    out = {
        "feasible": rep.feasible,
        "substochastic": rep.diagnostics["substochastic"],
        "monotone": is_monotone(P),
        "report": rep,
    }
    if beta > EPS_STOCH and 1 <= k <= N - 2:
        witness = float(rep.dual[k + 2, k - 1])
        predicted = -beta * params.p[k] / (1.0 + alpha)
        out["beta_witness"] = ((k + 2, k - 1), witness, predicted)
    if k >= 1:
        out["row_k_mass"] = float(rep.diagnostics["row_mass"][k])
        out["alpha_must_vanish"] = bool(alpha > EPS_STOCH)
    if k == 0:
        out["alpha_max"] = float(params.p[0] / params.q[1])
        out["stochastic_dual"] = bool(
            np.all(np.abs(rep.diagnostics["row_mass"] - 1.0) <= EPS_STOCH)
        )
    return out


def cond1_estimate(H: DualFunction) -> float:
    m = H.matrix
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.linalg.norm(m, 1) * np.linalg.norm(inv, 1))


def _support_refit(Hm, B, X):
    """Re-fit a solved dual on its detected support.

    An ill conditioned dual function smears the structural zeros of the
    dual into signed noise of size roughly cond(H) * eps (the flipped
    hypergeometric matrix reaches cond ~ 3e9 by N = 20).  The noise floor
    is read off the most negative entry of the solve; entries above ten
    times that form the support, and each dual row is re-solved by least
    squares over its active columns alone, which is well conditioned.
    The refit is kept only when it reproduces the identity within
    RESID_TOL; genuinely negative duals fail that gate and fall back to
    the dense solution untouched.
    """
    lo = float(X.min())
    if lo >= -EPS_NEG:
        return X
    tau = 10.0 * abs(lo)
    support = np.abs(X) > tau
    Y = np.zeros_like(X)
    for x in range(X.shape[1]):
        rows = np.nonzero(support[:, x])[0]
        if rows.size:
            w, *_ = np.linalg.lstsq(Hm[:, rows], B[:, x], rcond=None)
            Y[rows, x] = w
    if sup_norm(Hm @ Y - B) <= RESID_TOL:
        return Y
    return X


def dual_via_solve(P, H: DualFunction) -> DualReport:
    """Solve H X = P H for X = Phat' directly.

    Triangular families use back substitution (the hypergeometric matrix is
    triangular after a row flip); everything else goes through dense LU.  A
    1-norm condition estimate above 1e12 refuses the solve.  Solutions with
    negative entries get one support-refit pass to strip conditioning
    noise.  Entries in [-EPS_NEG, 0) are clamped to 0; anything lower marks
    the construction infeasible with the entry as witness.
    """
    m = np.asarray(P, dtype=float)
    Hm = H.matrix
    if m.shape != Hm.shape:
        raise errors.DimensionMismatchError("kernel and dual function size mismatch")
    cond = cond1_estimate(H)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise errors.SingularDualFunctionError(
            f"condition estimate {cond:.3g} above {COND_LIMIT:.0e}"
        )
    B = m @ Hm
    from scipy.linalg import solve_triangular

    if H.family in ("siegmund", "ultrametric"):
        X = solve_triangular(Hm, B, lower=False)
    elif H.family == "hypergeometric":
        X = solve_triangular(Hm[::-1], B[::-1], lower=True)
    else:
        X = np.linalg.solve(Hm, B)
    X = _support_refit(Hm, B, X)
    rep = _report(X.T, lambda y: "nonnegativity")
    rep.diagnostics["condition_estimate"] = cond
    return rep


def verify_duality(P, H, dual, n_max: int = 20) -> dict:
    """One-step and iterated residuals of the duality identity P H = H dual'.

    static:  ||P H - H dual'||, the first step of the loop below
    dynamic: max_{n <= n_max} ||P^n H - H (dual')^n||

    The n-step identity follows from the one-step one by induction, so the
    pipeline checks ``static`` alone (n_max = 1) and ``verify`` gates both.
    """
    m, d = np.asarray(P, dtype=float), np.asarray(dual, dtype=float)
    Hm = H.matrix if isinstance(H, DualFunction) else np.asarray(H, dtype=float)
    left = right = Hm
    steps = []
    for _ in range(max(1, n_max)):
        left = m @ left
        right = right @ d.T
        steps.append(sup_norm(left - right))
    return {"static": steps[0], "dynamic": max(steps)}

