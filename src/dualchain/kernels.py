"""Dense finite-state kernels: validation, communication structure, stationary
laws, reversal, evolution, hitting probabilities.

States are always 0..n-1 and kernels are dense float64 matrices.  A kernel is
*stochastic* when every row sums to 1 within EPS_STOCH, *strictly
substochastic* when no row exceeds 1 but at least one loses mass, and
*general nonnegative* otherwise (dual functions, potentials).
"""
from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .tolerances import EPS_NEG, EPS_STOCH, HITTING_TOL, RESID_TOL


class KernelKind(enum.Enum):
    STOCHASTIC = "stochastic"
    STRICTLY_SUBSTOCHASTIC = "strictly-substochastic"
    GENERAL = "general-nonnegative"


@dataclass(frozen=True)
class Kernel:
    """A validated nonnegative square matrix, immutable after construction."""

    matrix: np.ndarray
    kind: KernelKind

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def sup_norm(a) -> float:
    """Entrywise sup norm; the residual metric used everywhere."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def scaled_residual(A, B, C, D) -> float:
    """Residual of the identity AB = CD, entry by entry relative to the
    rounding that entry can carry: max_ij |AB - CD|_ij / (|A||B| + |C||D|)_ij.

    Computed in floating point, entry ij of AB is off by at most about
    n eps (|A||B|)_ij, so the ratio stays near eps however large or small
    the entries are.  An entry whose scale is zero has an exactly zero
    residual and counts as 0.
    """
    A, B, C, D = (np.asarray(m, dtype=float) for m in (A, B, C, D))
    resid = np.abs(A @ B - C @ D)
    scale = np.abs(A) @ np.abs(B) + np.abs(C) @ np.abs(D)
    ratio = np.divide(resid, scale, out=np.zeros_like(resid), where=scale > 0)
    return sup_norm(ratio)


def as_matrix(P) -> np.ndarray:
    return P.matrix if isinstance(P, Kernel) else np.asarray(P, dtype=float)


def validate_prob_vector(v, name: str, n: int) -> np.ndarray:
    """The law ``v`` on n states, checked and with its rounding negatives
    clipped; each failure names the quantity."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise errors.DimensionMismatchError(f"{name} must be 1-d")
    if v.shape[0] != n:
        raise errors.DimensionMismatchError(
            f"{name} length mismatch: {v.shape[0]} entries for {n} states")
    if not np.all(np.isfinite(v)):
        raise errors.NonFiniteEntryError(f"{name} has non-finite entries")
    if np.min(v) < -EPS_NEG:
        raise errors.NegativeEntryError(f"{name} has entry {np.min(v)} < -{EPS_NEG}")
    if abs(v.sum() - 1.0) > EPS_STOCH:
        raise errors.NotStochasticError(f"{name} sums to {v.sum()}, not 1")
    return np.clip(v, 0.0, None)


def total_variation(mu, nu) -> float:
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return 0.5 * float(np.abs(mu - nu).sum())


def validate_kernel(matrix, require: str | None = None) -> Kernel:
    """Validate a square nonnegative matrix and classify its row-sum kind.

    Entries in [-EPS_NEG, 0) are clamped to zero.  ``require`` can demand
    "stochastic" or "substochastic"; violations raise instead of classifying.
    """
    m = np.array(as_matrix(matrix), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise errors.NonSquareError(f"kernel must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise errors.NonFiniteEntryError("kernel has NaN or infinite entries")
    lo = float(m.min()) if m.size else 0.0
    if lo < -EPS_NEG:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise errors.NegativeEntryError(f"entry ({i},{j}) = {lo} below -{EPS_NEG}")
    m[m < 0] = 0.0

    sums = m.sum(axis=1)
    over = sums > 1.0 + EPS_STOCH
    under = sums < 1.0 - EPS_STOCH
    if over.any():
        kind = KernelKind.GENERAL
    elif under.any():
        kind = KernelKind.STRICTLY_SUBSTOCHASTIC
    else:
        kind = KernelKind.STOCHASTIC
    if require not in (None, "stochastic", "substochastic"):
        raise ValueError(f"unknown requirement {require!r}")
    if require is not None and kind is KernelKind.GENERAL:
        raise errors.RowSumExceedsOneError(
            f"row {int(np.argmax(sums))} sums to {sums.max()} > 1"
        )
    if require == "stochastic" and kind is KernelKind.STRICTLY_SUBSTOCHASTIC:
        raise errors.NotStochasticError(
            f"row {int(np.argmin(sums))} sums to {sums.min()} < 1"
        )
    return Kernel(matrix=m, kind=kind)


@dataclass(frozen=True)
class ClassDecomposition:
    """Communicating classes in an order compatible with the flow of mass.

    ``classes`` is a list of sorted state tuples such that any positive
    transition goes from a class to itself or to a *later* class; among
    unordered classes the one containing the smallest state comes first.
    ``stochastic_classes`` are the classes whose restricted block keeps full
    mass; ``absorbing_states`` are the states ``absorbing_states(P)``
    returns, each a class of its own.
    """

    classes: list = field(default_factory=list)
    stochastic_classes: list = field(default_factory=list)
    absorbing_states: list = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns components in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def classify(P) -> ClassDecomposition:
    """Decompose the positivity pattern of P into communicating classes.

    Edges are entries above EPS_NEG.  The class list is a deterministic
    topological order of the condensation (mass flows forward); ties are
    broken by the smallest contained state.
    """
    m = as_matrix(P)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise errors.NonSquareError("classify needs a square matrix")
    n = m.shape[0]
    pos = m > EPS_NEG
    adj = [list(np.nonzero(pos[x])[0]) for x in range(n)]
    comps = _strongly_connected_components(adj)

    comp_id = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    k = len(comps)
    out_edges: list[set] = [set() for _ in range(k)]
    indeg = [0] * k
    for x in range(n):
        for y in adj[x]:
            a, b = comp_id[x], comp_id[y]
            if a != b and b not in out_edges[a]:
                out_edges[a].add(b)
                indeg[b] += 1
    # Kahn's algorithm with a min-heap keyed by the smallest member state
    heap = [(min(comps[c]), c) for c in range(k) if indeg[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        for b in out_edges[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (min(comps[b]), b))
    if len(order) != k:
        raise errors.DualChainError("condensation is not acyclic (internal bug)")

    classes = [tuple(sorted(comps[c])) for c in order]
    stochastic_classes = []
    for cls in classes:
        idx = list(cls)
        block_sums = m[np.ix_(idx, idx)].sum(axis=1)
        if np.all(np.abs(block_sums - 1.0) <= EPS_STOCH):
            stochastic_classes.append(cls)
    return ClassDecomposition(
        classes=classes,
        stochastic_classes=stochastic_classes,
        absorbing_states=absorbing_states(m),
    )


def absorbing_states(P) -> list[int]:
    """States a with P(a, a) within EPS_STOCH of 1 and every other entry of
    row a at most EPS_NEG, in increasing order."""
    m = np.array(as_matrix(P), dtype=float)
    stays = np.abs(np.diag(m) - 1.0) <= EPS_STOCH
    np.fill_diagonal(m, -np.inf)
    leaves = np.max(m, axis=1, initial=-np.inf) > EPS_NEG
    return [int(a) for a in np.flatnonzero(stays & ~leaves)]


def is_irreducible(P) -> bool:
    return classify(P).n_classes == 1


def stationary(P) -> np.ndarray:
    """Unique stationary law of an irreducible stochastic kernel.

    GTH elimination (Grassmann, Taksar & Heyman 1985): censor the states
    n-1, ..., 1 one at a time, taking each state's exit rate as the sum of
    its remaining off-diagonal entries rather than 1 - P(k, k), then back
    substitute.  No step subtracts, so every entry of pi has small relative
    error, however tiny it is.  Each step updates only the block its
    nonzero entries reach, so a banded kernel costs O(n^2) in all.  The
    residual ||pi' P - pi'|| is then gated at RESID_TOL.
    """
    K = P if isinstance(P, Kernel) else validate_kernel(P)
    if K.kind is not KernelKind.STOCHASTIC:
        raise errors.NotStochasticError("stationary law needs a stochastic kernel")
    if not is_irreducible(K):
        raise errors.NotIrreducibleError("kernel is not irreducible")
    m = K.matrix
    n = K.n
    A = m.copy()
    for k in range(n - 1, 0, -1):
        col, row = A[:k, k], A[k, :k]
        col /= row.sum()
        # rows above the first nonzero of col and columns left of the first
        # nonzero of row would gain exact zeros (the entries are finite and
        # nonnegative); on a birth-death kernel the update is 1 x 1
        r, c = (col > 0).argmax(), (row > 0).argmax()
        A[r:k, c:k] += col[r:, None] * row[c:]
    pi = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            pi[k] = pi[:k] @ A[:k, k]
    pi = normalize_stationary(pi, "GTH back-substitution")
    if sup_norm(pi @ m - pi) > RESID_TOL:
        raise errors.SingularSystemError("stationary solve did not converge")
    return pi


def normalize_stationary(w: np.ndarray, stage: str) -> np.ndarray:
    """w / sum(w) for the unnormalised stationary weights ``w`` of an
    irreducible chain, which are positive in exact arithmetic.  A law whose
    entries the float range cannot hold (a weight or the sum overflows, or an
    entry underflows to 0) is refused by ``stage`` and size, before a NaN or
    an infinity reaches the caller; compute ``w`` with overflow ignored.
    """
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        why = "its unnormalised weights overflow"
    else:
        w = w / total
        if w.all():
            return w
        why = "an entry underflows to 0"
    raise errors.ZeroStationaryEntryError(
        f"{stage}: the stationary law of n = {w.size} states leaves the float range ({why})"
    )


def reversal(P, pi) -> Kernel:
    """Time reversal with respect to pi: out(x, y) = pi(y) P(y, x) / pi(x)."""
    m = as_matrix(P)
    pi = np.asarray(pi, dtype=float)
    if pi.shape[0] != m.shape[0]:
        raise errors.DimensionMismatchError("pi length does not match kernel")
    if np.min(pi) <= 0:
        raise errors.ZeroStationaryEntryError("reversal needs pi > 0 entrywise")
    back = (m * pi[:, None]).T / pi[:, None]
    return validate_kernel(back, require="stochastic")


def evolve(pi0, P, n: int) -> np.ndarray:
    """n-step push-forward pi0' P^n by repeated vector-matrix products."""
    m = as_matrix(P)
    v = np.asarray(pi0, dtype=float).copy()
    if v.shape[0] != m.shape[0]:
        raise errors.DimensionMismatchError("initial law length mismatch")
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        v = v @ m
    return v


def reachable(edges: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Mask of the states reachable from the mask ``seeds`` along the
    boolean adjacency ``edges`` (``edges.T`` for the states that reach them)."""
    seen = seeds.copy()
    while seeds.any():
        seeds = edges[seeds].any(axis=0) & ~seen
        seen |= seeds
    return seen


def hitting_probabilities(P, target) -> np.ndarray:
    """Probability of reaching ``target`` before the kernel kills the path.

    For substochastic kernels the missing row mass acts as killing.  States
    that cannot reach the target get probability zero; the linear solve is
    restricted to states with a positive path to the target so closed
    classes away from the target do not make the system singular.
    """
    m = as_matrix(P)
    n = m.shape[0]
    target = sorted(set(int(t) for t in target))
    if not target or any(t < 0 or t >= n for t in target):
        raise errors.DimensionMismatchError("target must be a nonempty state set")
    h = np.zeros(n)
    for t in target:
        h[t] = 1.0

    can_reach = reachable((m > EPS_NEG).T, h > 0)
    solve_states = [x for x in range(n) if can_reach[x] and x not in target]
    if solve_states:
        idx = np.array(solve_states)
        A = np.eye(len(idx)) - m[np.ix_(idx, idx)]
        rhs = m[np.ix_(idx, np.array(target))].sum(axis=1)
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise errors.SingularSystemError(
                "restricted hitting system is singular"
            ) from exc
        if np.min(sol) < -HITTING_TOL or np.max(sol) > 1 + HITTING_TOL:
            raise errors.SingularSystemError("hitting solve left [0, 1]")
        h[idx] = np.clip(sol, 0.0, 1.0)
    return h


def check_harmonic(P, h) -> float:
    """Residual ||P h - h|| measuring how far h is from being harmonic."""
    m = as_matrix(P)
    h = np.asarray(h, dtype=float)
    if h.shape[0] != m.shape[0]:
        raise errors.DimensionMismatchError("harmonic vector length mismatch")
    return sup_norm(m @ h - h)
