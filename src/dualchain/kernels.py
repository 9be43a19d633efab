"""Finite-state kernels: validation, communication structure, stationary
laws, reversal, evolution, hitting probabilities.

States are 0..n-1.  A kernel is *stochastic* when every row sums to 1 within
EPS_STOCH, *strictly substochastic* when no row exceeds 1 but at least one
loses mass, and *general nonnegative* otherwise (dual functions, potentials).

A birth-death kernel (and its Siegmund dual and their hidden chain, each
made so) is its ``bands``, a ``BDParams`` record of the three central
diagonals; a Kernel made from the record alone builds its dense float64
matrix only when it is read.  ``classify``, ``is_irreducible``,
``absorbing_states``, ``stationary`` and ``reachable`` run in O(n) on records,
banded Kernels and tridiagonal arrays; a raw array is scanned for its bands on
every call (``band_scans``).  The one dense read of any is ``np.asarray(P, dtype=float)``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import errors
from .tolerances import EPS_NEG, EPS_STOCH, HITTING_TOL, RESID_TOL


class KernelKind(enum.Enum):
    STOCHASTIC = "stochastic"
    STRICTLY_SUBSTOCHASTIC = "strictly-substochastic"
    GENERAL = "general-nonnegative"


@dataclass(frozen=True)
class BDParams:
    """Tridiagonal transition data: up p_x, down q_x, hold r_x on {0..N},
    N + 1 being the common length of the three vectors.  Its own copies,
    with entries in [-EPS_NEG, 0) stored as 0.  q_0 and p_N, which no
    matrix holds, must be 0 within EPS_NEG, and are stored exactly 0."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        try:
            pqr = np.array((self.p, self.q, self.r), dtype=float)
        except ValueError:
            if len({np.shape(v) for v in (self.p, self.q, self.r)}) == 1:
                raise                    # not a fault of the shapes
            pqr = None
        if pqr is None or pqr.ndim != 2 or not pqr.size:
            raise errors.DimensionMismatchError(
                "p, q and r must be nonempty 1-d vectors of one length")
        q0, pN = float(pqr[1, 0]), float(pqr[0, -1])
        if not (abs(q0) <= EPS_NEG and abs(pN) <= EPS_NEG):    # NaN fails too
            raise errors.InvalidBoundaryError(f"need q_0 = 0 and p_N = 0, not {q0} and {pN}")
        pqr[1, 0] = pqr[0, -1] = 0.0
        np.maximum(pqr, 0.0, out=pqr, where=pqr >= -EPS_NEG)
        pqr.setflags(write=False)
        vars(self).update(p=pqr[0], q=pqr[1], r=pqr[2])

    @property
    def n(self) -> int:
        return self.p.size

    @property
    def N(self) -> int:
        return self.p.size - 1


dense_builds = 0     # n x n matrices built by record-only Kernels since import
band_scans = 0       # raw arrays _bands has scanned for a record since import
link_measurements = 0    # calls of link_residual since import


@dataclass(frozen=True, init=False, eq=False)
class Kernel:
    """A validated nonnegative square kernel, immutable, given as its
    ``matrix`` and ``kind`` or as a substochastic birth-death record ``bands``
    alone (checked in O(n)).  Else ``bands`` is the record of a tridiagonal
    ``matrix``, or None.  A record-only Kernel builds ``matrix`` on first read;
    ``np.asarray(K)`` is it, copied for a copy or another dtype; ``K[i, j]`` indexes it."""

    kind: KernelKind
    bands: BDParams | None

    def __init__(self, matrix=None, kind=None, *, bands=None):
        if matrix is None:
            kind = _band_kind(bands, "substochastic")
        else:
            matrix.setflags(write=False)
            vars(self)["matrix"], bands = matrix, _bands(matrix)  # cached: never built
        vars(self).update(kind=kind, bands=bands)

    @cached_property
    def matrix(self) -> np.ndarray:
        global dense_builds
        dense_builds += 1
        b, n = self.bands, self.n
        m = np.zeros((n, n))
        m.flat[::n + 1] = b.r
        m.flat[1::n + 1] = b.p[:-1]
        m.flat[n::n + 1] = b.q[1:]
        m.setflags(write=False)
        return m

    @property
    def n(self) -> int:
        return self.matrix.shape[0] if self.bands is None else self.bands.n

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy or np.dtype(dtype) != self.matrix.dtype:    # None reads float64
            return np.array(self.matrix, dtype=dtype)
        return self.matrix

    def __getitem__(self, index):
        return self.matrix[index]


def sup_norm(a) -> float:
    """Entrywise sup norm; the residual metric used everywhere."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def link_residual(p_tilde, link, p_bar) -> tuple[float, np.ndarray, np.ndarray]:
    """||Ptilde Lambda - Lambda Pbar|| of an intertwining, with the two
    products Ptilde Lambda and Lambda Pbar it is read from: the measure of
    ``coupling.product_kernel``, which builds the coupled kernel from those
    products.  The pipeline reads the residual off the duality residual
    instead (``intertwining``).  Each call counts in ``link_measurements``."""
    global link_measurements
    link_measurements += 1
    pt, L, m = (np.asarray(v, dtype=float) for v in (p_tilde, link, p_bar))
    V, W = pt @ L, L @ m
    gap = V - W
    np.abs(gap, out=gap)    # sup_norm(V - W) in place: no fourth n x n array beside V, W
    return (float(gap.max()) if gap.size else 0.0), V, W


def _bands(P) -> BDParams | None:
    """The birth-death record of ``P``: a Kernel's ``bands``, a BDParams, or
    the three central diagonals of a nonempty square matrix whose other
    entries are exactly zero (None when some is not), counted in
    ``band_scans``.  Counting nonzeros allocates nothing of size n x n."""
    if isinstance(P, Kernel):
        return P.bands
    if isinstance(P, BDParams):
        return P
    global band_scans
    band_scans += 1
    m = np.asarray(P, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        return None
    sub, main, sup = m.diagonal(-1), m.diagonal(), m.diagonal(1)
    if np.count_nonzero(m) != (np.count_nonzero(sub) + np.count_nonzero(main)
                               + np.count_nonzero(sup)):
        return None
    pqr = np.zeros((3, main.size))
    pqr[0, :-1], pqr[1, 1:], pqr[2] = sup, sub, main
    return BDParams(*pqr)


def _band_kind(b: BDParams, require: str | None = None) -> KernelKind:
    """The row-sum kind of the birth-death record ``b``, checked in O(n):
    a non-finite entry or one below -EPS_NEG is refused by the vector that
    holds it, and ``require`` is applied as in ``validate_kernel``."""
    pqr = np.array((b.p, b.q, b.r))
    if not (np.isfinite(pqr).all() and pqr.min() >= -EPS_NEG):
        for name in ("p", "q", "r"):
            _refuse_bad_entries(getattr(b, name), name)
    return _row_sum_kind(pqr.sum(axis=0), require)


def _refuse_bad_entries(v: np.ndarray, name: str) -> None:
    """Refuse ``v`` by ``name`` for a non-finite entry or one below -EPS_NEG."""
    if not np.all(np.isfinite(v)):
        raise errors.NonFiniteEntryError(f"{name} has non-finite entries")
    if np.min(v) < -EPS_NEG:
        raise errors.NegativeEntryError(f"{name} has entry {np.min(v)} < -{EPS_NEG}")


def _row_sum_kind(sums: np.ndarray, require: str | None) -> KernelKind:
    """The kind of a kernel with these row sums; ``require`` can demand
    "stochastic" or "substochastic", and a kernel that falls short raises."""
    kind = (KernelKind.GENERAL if sums.max(initial=1.0) > 1.0 + EPS_STOCH
            else KernelKind.STRICTLY_SUBSTOCHASTIC if sums.min(initial=1.0) < 1.0 - EPS_STOCH
            else KernelKind.STOCHASTIC)
    if _meets(kind, require):
        return kind
    if kind is KernelKind.GENERAL:
        raise errors.RowSumExceedsOneError(f"row {int(np.argmax(sums))} sums to {sums.max()} > 1")
    raise errors.NotStochasticError(f"row {int(np.argmin(sums))} sums to {sums.min()} < 1")


def _meets(kind: KernelKind, require: str | None) -> bool:
    if require not in (None, "stochastic", "substochastic"):
        raise ValueError(f"unknown requirement {require!r}")
    return (require is None or kind is KernelKind.STOCHASTIC
            or (require == "substochastic" and kind is KernelKind.STRICTLY_SUBSTOCHASTIC))


def validate_prob_vector(v, name: str, n: int) -> np.ndarray:
    """The law ``v`` on n states, checked and with its rounding negatives
    clipped; each failure names the quantity."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise errors.DimensionMismatchError(f"{name} must be 1-d")
    if v.shape[0] != n:
        raise errors.DimensionMismatchError(
            f"{name} length mismatch: {v.shape[0]} entries for {n} states")
    _refuse_bad_entries(v, name)
    if abs(v.sum() - 1.0) > EPS_STOCH:
        raise errors.NotStochasticError(f"{name} sums to {v.sum()}, not 1")
    return np.clip(v, 0.0, None)


def validate_kernel(matrix, require: str | None = None) -> Kernel:
    """Validate a square nonnegative matrix and classify its row-sum kind.

    Entries in [-EPS_NEG, 0) are clamped to zero.  ``require`` can demand
    "stochastic" or "substochastic"; violations raise instead of classifying.
    A Kernel whose kind meets ``require`` is returned as it is.
    """
    if isinstance(matrix, Kernel) and _meets(matrix.kind, require):
        return matrix
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise errors.NonSquareError(f"kernel must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise errors.NonFiniteEntryError("kernel has NaN or infinite entries")
    lo = float(m.min()) if m.size else 0.0
    if lo < -EPS_NEG:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise errors.NegativeEntryError(f"entry ({i},{j}) = {lo} below -{EPS_NEG}")
    m[m < 0] = 0.0
    return Kernel(matrix=m, kind=_row_sum_kind(m.sum(axis=1), require))


@dataclass(frozen=True)
class ClassDecomposition:
    """The communicating classes of a kernel, a partition of its states.

    ``classes`` holds each class as the tuple of its states in increasing
    order, the classes ascending by smallest state.  ``stochastic_classes``
    are the classes whose restricted block keeps full mass, in that order;
    ``absorbing_states`` are the states ``absorbing_states(P)`` returns,
    each a class of its own.
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

    Edges are entries above EPS_NEG.  A tridiagonal P is split into runs
    of states (``_classify_bands``); any other goes through Tarjan.
    """
    b = _bands(P)
    if b is not None:
        return _classify_bands(b)
    m = np.asarray(P, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise errors.NonSquareError("classify needs a square matrix")
    return _classify_dense(m)


def _classify_dense(m: np.ndarray) -> ClassDecomposition:
    """``classify`` of any square matrix, by Tarjan on its positivity
    pattern."""
    adj = [np.flatnonzero(row).tolist() for row in m > EPS_NEG]
    classes = sorted(tuple(sorted(c)) for c in _strongly_connected_components(adj))
    return ClassDecomposition(
        classes=classes,
        stochastic_classes=[c for c in classes if np.all(
            np.abs(m[np.ix_(c, c)].sum(axis=1) - 1.0) <= EPS_STOCH)],
        absorbing_states=_absorbing_dense(m),
    )


def _classify_bands(b: BDParams) -> ClassDecomposition:
    """``classify`` of a tridiagonal matrix from its record ``b``.

    States x and x + 1 communicate exactly when the entries between them
    are above EPS_NEG both ways, so the classes are the runs of states so
    joined.
    """
    joined = (b.p[:-1] > EPS_NEG) & (b.q[1:] > EPS_NEG)
    bounds = [0, *(np.flatnonzero(~joined) + 1).tolist(), b.n]    # where each run starts, and n
    classes = [tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    # the mass each row keeps in its own run, summed (q + r) + p as numpy
    # sums a short dense row
    kept = (np.where(np.append(False, joined), b.q, 0.0) + b.r
            + np.where(np.append(joined, False), b.p, 0.0))
    full = np.logical_and.reduceat(np.abs(kept - 1.0) <= EPS_STOCH, bounds[:-1])
    return ClassDecomposition(
        classes=classes,
        stochastic_classes=[c for c, f in zip(classes, full) if f],
        absorbing_states=_absorbing_bands(b),
    )


def absorbing_states(P) -> list[int]:
    """States a with P(a, a) within EPS_STOCH of 1 and every other entry of
    row a at most EPS_NEG, in increasing order."""
    b = _bands(P)
    return _absorbing_dense(P) if b is None else _absorbing_bands(b)


def _absorbing_dense(m: np.ndarray) -> list[int]:
    m = np.array(m, dtype=float)
    stays = np.abs(np.diag(m) - 1.0) <= EPS_STOCH
    np.fill_diagonal(m, -np.inf)
    leaves = np.max(m, axis=1, initial=-np.inf) > EPS_NEG
    return [int(a) for a in np.flatnonzero(stays & ~leaves)]


def _absorbing_bands(b: BDParams) -> list[int]:
    leaves = np.zeros(b.n, dtype=bool)
    leaves[:-1] |= b.p[:-1] > EPS_NEG
    leaves[1:] |= b.q[1:] > EPS_NEG
    return np.flatnonzero((np.abs(b.r - 1.0) <= EPS_STOCH) & ~leaves).tolist()


def is_irreducible(P) -> bool:
    """Whether P is one class: on a record, p_x, q_(x+1) > EPS_NEG, x < N."""
    b = _bands(P)
    if b is None:
        return classify(P).n_classes == 1
    return bool(np.all(b.p[:-1] > EPS_NEG) and np.all(b.q[1:] > EPS_NEG))


def stationary(P) -> np.ndarray:
    """Unique stationary law of an irreducible stochastic kernel.

    A birth-death record or a tridiagonal kernel gets the product form
    pi(y) = pi(0) prod_{z<y} p_z / q_(z+1); any other the GTH elimination
    (``_gth``).  Both only multiply, divide and add nonnegative numbers, so
    every entry of pi has small relative error, however tiny it is; on a
    tridiagonal kernel they compute the same bits.  The residual
    ||pi' P - pi'|| is then gated at RESID_TOL, in O(n) on a record.
    """
    b = _bands(P)
    K = validate_kernel(P) if b is None or isinstance(P, Kernel) else None
    if (_band_kind(b) if K is None else K.kind) is not KernelKind.STOCHASTIC:
        raise errors.NotStochasticError("stationary law needs a stochastic kernel")
    if not is_irreducible(b or K):
        x = None if b is None else np.argmin((b.p[:-1] > EPS_NEG) & (b.q[1:] > EPS_NEG))
        where = (f"{classify(K).n_classes} communicating classes" if b is None
                 else f"no link both ways between x = {x} and x + 1")
        raise errors.NotIrreducibleError(
            f"kernel is not irreducible: n = {(b or K).n} states, {where}")
    if b is None:
        pi = normalize_stationary(_gth(K.matrix), "GTH back-substitution")
        moved = pi @ K.matrix
    else:
        with np.errstate(over="ignore"):
            w = np.concatenate([[1.0], np.cumprod(b.p[:-1] / b.q[1:])])
        pi = normalize_stationary(w, "birth-death product form")
        moved = pi * b.r
        moved[1:] += pi[:-1] * b.p[:-1]
        moved[:-1] += pi[1:] * b.q[1:]
    if sup_norm(moved - pi) > RESID_TOL:
        raise errors.SingularSystemError("stationary solve did not converge")
    return pi


def _gth(m: np.ndarray) -> np.ndarray:
    """Unnormalised stationary weights of the irreducible stochastic ``m``
    by GTH elimination (Grassmann, Taksar & Heyman 1985): censor the states
    n-1, ..., 1 one at a time, taking each state's exit rate as the sum of
    its remaining off-diagonal entries rather than 1 - P(k, k), then back
    substitute.  No step subtracts.  Each step updates only the block its
    nonzero entries reach, so a banded kernel costs O(n^2) in all.  On a
    tridiagonal kernel each exit rate is the one entry q_k, and w(k) =
    w(k-1) p_(k-1) / q_k: the product form."""
    n = m.shape[0]
    A = m.copy()
    for k in range(n - 1, 0, -1):
        col, row = A[:k, k], A[k, :k]
        col /= row.sum()
        # rows above the first nonzero of col and columns left of the first
        # nonzero of row would gain exact zeros (the entries are finite and
        # nonnegative); on a birth-death kernel the update is 1 x 1
        r, c = (col > 0).argmax(), (row > 0).argmax()
        A[r:k, c:k] += col[r:, None] * row[c:]
    w = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            w[k] = w[:k] @ A[:k, k]
    return w


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
    """Time reversal with respect to pi: out(x, y) = (P(y, x) pi(y)) / pi(x)."""
    m, pi = np.asarray(P, dtype=float), np.asarray(pi, dtype=float)
    if pi.shape[0] != m.shape[0]:
        raise errors.DimensionMismatchError("pi length does not match kernel")
    if np.min(pi) <= 0:
        raise errors.ZeroStationaryEntryError("reversal needs pi > 0 entrywise")
    return validate_kernel((m * pi[:, None]).T / pi[:, None], require="stochastic")


def evolve(pi0, P, n: int) -> np.ndarray:
    """n-step push-forward pi0' P^n by repeated vector-matrix products."""
    m = np.asarray(P, dtype=float)
    v = np.asarray(pi0, dtype=float).copy()
    if v.shape[0] != m.shape[0]:
        raise errors.DimensionMismatchError("initial law length mismatch")
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        v = v @ m
    return v


def reachable(P, seeds: np.ndarray, backward: bool = False) -> np.ndarray:
    """Mask of the states reachable from the mask ``seeds`` along the
    entries of P above EPS_NEG, or with ``backward`` of the states that reach
    them.  On a tridiagonal P these are runs of states (``_run_reach``),
    ``backward`` swapping up and down steps; on any other a breadth-first
    search (``_bfs``), on the transpose for ``backward``."""
    b = _bands(P)
    if b is None:
        edges = np.asarray(P, dtype=float) > EPS_NEG
        return _bfs(edges.T if backward else edges, seeds)
    steps = b.p[:-1] > EPS_NEG, b.q[1:] > EPS_NEG
    up, down = steps[::-1] if backward else steps
    return _run_reach(seeds, up) | _run_reach(seeds[::-1], down[::-1])[::-1]


def _bfs(edges: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``reachable`` along the boolean adjacency ``edges``, layer by layer."""
    seen = seeds.copy()
    while seeds.any():
        seeds = edges[seeds].any(axis=0) & ~seen
        seen |= seeds
    return seen


def _run_reach(seeds: np.ndarray, step: np.ndarray) -> np.ndarray:
    """States y with a seed s <= y and step[s .. y-1] all true: on a path,
    the states reached moving up along the steps x -> x + 1 marked in
    ``step``.  The steps cut the states into runs; a state is reached when
    its run holds a seed at or below it."""
    starts = np.append(True, ~step)
    first = np.maximum.accumulate(np.where(starts, np.arange(starts.size), 0))
    below = np.append(0, np.cumsum(seeds))     # below[y]: seeds among 0 .. y-1
    return below[1:] > below[first]


def hitting_probabilities(P, target) -> np.ndarray:
    """Probability of reaching ``target`` before the kernel kills the path.

    For substochastic kernels the missing row mass acts as killing.  States
    that cannot reach the target get probability zero; the linear solve is
    restricted to states with a positive path to the target so closed
    classes away from the target do not make the system singular.
    """
    m = np.asarray(P, dtype=float)
    n = m.shape[0]
    target = sorted(set(int(t) for t in target))
    if not target or any(t < 0 or t >= n for t in target):
        raise errors.DimensionMismatchError("target must be a nonempty state set")
    h = np.zeros(n)
    h[target] = 1.0
    idx = np.flatnonzero(reachable(P, h > 0, backward=True) & (h == 0))
    if idx.size:
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
    m, h = (np.asarray(v, dtype=float) for v in (P, h))
    if h.shape[0] != m.shape[0]:
        raise errors.DimensionMismatchError("harmonic vector length mismatch")
    return sup_norm(m @ h - h)
