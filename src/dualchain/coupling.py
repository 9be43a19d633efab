"""Diaconis-Fill coupling of an ergodic chain with its intertwined companion.

The pair (X_n, X~_n) moves by

    Pbar((x, xt), (y, yt)) = P(x, y) Ptilde(xt, yt) Lambda(yt, y) / (Lambda P)(xt, y)

with 0/0 read as 0.  Started from rho_0(x, xt) = nu0(xt) Lambda(xt, x) the
joint law stays in product form rho_n(x, xt) = nu_n(xt) Lambda(xt, x), so the
observed marginal follows P, the hidden marginal follows Ptilde, and the
conditional law of X_n given the hidden trajectory is the link row of the
current hidden state.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import errors, kernels
from .kernels import sup_norm
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL, SAMPLE_ALPHA


@dataclass(frozen=True)
class ProductKernel:
    """Coupled kernel on pair states s = x * n_tilde + xt (C order), kept as
    its factors P, Ptilde and Lambda.

    ``lp`` is (Lambda P)(xt, y), the normaliser of the coupled step.
    """

    p: np.ndarray
    p_tilde: np.ndarray
    link: np.ndarray
    lp: np.ndarray

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def n_tilde(self) -> int:
        return self.p_tilde.shape[0]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for m in (self.p, self.p_tilde, self.link):
            h.update(np.ascontiguousarray(m).tobytes())
            h.update(repr(m.shape).encode())
        return h.hexdigest()


def product_kernel(P, p_tilde, link) -> ProductKernel:
    m, pt, L = (np.asarray(v, dtype=float) for v in (P, p_tilde, link))
    nt = pt.shape[0]
    if L.shape != (nt, m.shape[0]):
        raise errors.DimensionMismatchError("link must map hidden rows to observed columns")
    # V(xt, y) = (Ptilde Lambda)(xt, y), W(xt, y) = (Lambda P)(xt, y)
    r, V, W = kernels.link_residual(pt, L, m)
    if r > RESID_TOL:
        raise errors.IntertwiningResidualError(f"link residual {r:.3g}")

    # the pairs (x, xt) with Lambda(xt, x) > 0, which the coupled walk never leaves
    consistent = (L.T > EPS_NEG)
    # row sum at pair (x, xt): sum_y P(x, y) (Ptilde Lambda)(xt, y) / (Lambda P)(xt, y),
    # from the ratio, which stays finite where a subnormal (Lambda P) makes
    # 1 / (Lambda P) overflow; a NaN sum fails the comparison
    ratio = np.divide(V, W, out=np.zeros_like(W), where=W > 0)
    sums = (m @ ratio.T).reshape(-1)
    bad = consistent.reshape(-1) & ~(np.abs(sums - 1.0) <= EPS_STOCH)
    if np.any(bad):
        s = int(np.argmax(bad))
        raise errors.NotStochasticError(
            f"coupled row at pair {divmod(s, nt)} sums to {sums[s]}"
        )
    return ProductKernel(p=m, p_tilde=pt, link=L, lp=W)


# exact_joint stacks the laws of a block of steps: at most 2^17 entries (1 MB)
# of joint law per block, the budget of stationary_times._SEP_CHUNK.
# TrajectoryBatch.digest converts blocks of paths within the same budget.
_JOINT_CHUNK = 1 << 17


def exact_joint(pk: ProductKernel, pi_tilde0, n_steps: int) -> dict:
    """Push the product-form initial law through the coupled kernel and
    certify, at every step 1..n_steps, the three structural identities:
    observed marginal = pi0 P^n, hidden marginal = nu0 Ptilde^n, and joint
    law = product form nu_n(xt) Lambda(xt, x).

    The law rho(x, xt) moves through the factors:
    rho <- (((rho' P) / (Lambda P))' Ptilde) o Lambda', with 0/0 read as 0
    (the zeros of Lambda P divide as inf).  A subnormal (Lambda P) is
    divided by, never inverted into an overflow.
    The laws of a block of B steps, B n n_tilde <= 2^17 and B >= 1, are
    stacked and each deviation is one reduction over the block; a maximum
    is exact, so the deviations are those of a check after every step.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    Lt = pk.link.T
    n, nt = pk.n, pk.n_tilde
    rho = nu0[None, :] * Lt                      # rho0(x, xt)
    mu, nu = nu0 @ pk.link, nu0
    B = min(max(1, _JOINT_CHUNK // (n * nt)), max(n_steps, 1))
    rhos, mus, nus = np.empty((B, n, nt)), np.empty((B, n)), np.empty((B, nt))
    pushed = np.empty((nt, n))
    lp = np.where(pk.lp == 0.0, np.inf, pk.lp)
    obs_dev = hid_dev = prod_dev = 0.0
    for lo in range(0, n_steps, B):
        b = min(B, n_steps - lo)
        for i in range(b):
            np.divide(np.matmul(rho.T, pk.p, out=pushed), lp, out=pushed)
            rho = np.multiply(np.matmul(pushed.T, pk.p_tilde, out=rhos[i]), Lt, out=rhos[i])
            mu = np.matmul(mu, pk.p, out=mus[i])
            nu = np.matmul(nu, pk.p_tilde, out=nus[i])
        # np.maximum keeps a NaN deviation, which max() would drop
        obs_dev = np.maximum(obs_dev, sup_norm(rhos[:b].sum(axis=2) - mus[:b]))
        hid_dev = np.maximum(hid_dev, sup_norm(rhos[:b].sum(axis=1) - nus[:b]))
        prod_dev = np.maximum(prod_dev, sup_norm(rhos[:b] - nus[:b, None, :] * Lt))
    return {
        "joint": rho.reshape(-1).copy(),
        "observed_marginal_dev": float(obs_dev),
        "hidden_marginal_dev": float(hid_dev),
        "product_form_dev": float(prod_dev),
        "observed_final": mu.copy(),
        "hidden_final": nu.copy(),
    }


@dataclass(frozen=True)
class TrajectoryBatch:
    # (n_paths, n_steps + 1) views x = X.T of step-major arrays X of shape
    # (n_steps + 1, n_paths), of the type ``_pair_dtype`` gives: a column
    # x[:, t] is contiguous
    x: np.ndarray          # observed coordinates
    x_tilde: np.ndarray    # hidden coordinates, same shape and layout
    seed: int

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    def digest(self) -> str:
        """SHA-256 of the shape and little-endian int64 bytes (C order) of
        ``x``, then of ``x_tilde``.  The bytes are converted one block of
        paths at a time, at most _JOINT_CHUNK entries (or one path) per
        block, so the digest adds no int64 copy of a whole coordinate."""
        h = hashlib.sha256()
        for a in (self.x, self.x_tilde):
            h.update(repr(a.shape).encode())
            rows = max(1, _JOINT_CHUNK // a.shape[1])
            for lo in range(0, a.shape[0], rows):
                h.update(np.ascontiguousarray(a[lo:lo + rows], dtype="<i8"))
        return h.hexdigest()


def _pair_dtype(n: int, n_tilde: int) -> np.dtype:
    """The narrowest signed integer type whose maximum is at least
    n n_tilde.  States, the factor n and every pair index xt n + x
    (below n n_tilde) then fit, so a pair index computed in the storage
    type of a trajectory cannot overflow."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= n * n_tilde)


def _row_supports(m: np.ndarray) -> np.ndarray:
    """Columns of the nonzero entries of each row of ``m``, ascending.

    Rows are padded to the widest support k with their first zero columns,
    so an entry of ``m`` read at a padding column is 0.
    """
    nz = m != 0
    k = max(int(nz.sum(axis=1).max()), 1)
    return np.argsort(~nz, axis=1, kind="stable")[:, :k]


def _hidden_partials(xs, ys, tvals, link_rows, link, out):
    """Into ``out`` (kt, m): the partial sums S_i(xt, y) =
    sum_{l <= i} Ptilde(xt, c_l) Lambda(c_l, y) over the support columns
    c_l of row xt, for the m pairs (xs, ys)."""
    for i in range(out.shape[0]):
        np.multiply(np.take(tvals[i], xs), np.take(link, np.take(link_rows[i], xs) + ys),
                    out=out[i])
        if i:
            out[i] += out[i - 1]
    return out


# the bit generator of every simulation, seeded by the integer seed;
# simulate_summary.json records its name beside the seed
BIT_GENERATOR = np.random.SFC64


def _start_cdf(pk: ProductKernel, nu0: np.ndarray) -> np.ndarray:
    """The CDF of the start pair s = x n_tilde + xt under
    nu0(xt) Lambda(xt, x).  Every entry from the last pair of positive mass
    on reads 1, as the rows of ``simulate`` do, so a uniform in [0, 1)
    never picks a pair without mass, even when the masses sum a little
    below or above 1."""
    mass = (nu0[None, :] * pk.link.T).reshape(-1)
    cum = np.cumsum(mass)
    cum[np.flatnonzero(mass > 0)[-1]:] = 1.0
    return cum


def simulate(pk: ProductKernel, pi_tilde0, n_steps: int, n_paths: int,
             seed: int = 0) -> TrajectoryBatch:
    """Sample coupled trajectories from the product-form initial law.

    One ``BIT_GENERATOR`` (SFC64) stream per seed.  SFC64 draws a double
    in about half the time of the counter-based generator that earlier
    versions used, and nothing here needs that generator's jump-ahead; the
    earlier versions sampled other trajectories for the same seed.
    ``random(n_paths)`` picks the start pair (see ``_start_cdf``); then
    each step takes ``random((2, n_paths))``: row 0 draws y ~ P(x, .),
    row 1 draws yt with weights Ptilde(xt, .) Lambda(., y), both by inverse
    transform over the nonzero entries of the row.  Partial sums skip only
    exact zeros, so the draws pick the same states as an inverse transform
    over whole rows.

    The hidden draw compares u1 S_{kt-1} with the partial sums
    S_i(xt, y) = sum_{l <= i} Ptilde(xt, c_l) Lambda(c_l, y) over the kt
    support columns c_l of row xt, which depend on the pair (xt, y) alone.
    When n_tilde n <= n_paths they are formed once for all pairs, a
    kt x n_tilde n table no larger than the kt x n_paths array of the other
    route, and a step gathers them at xt n + y.  Otherwise a step forms
    them for each path, so that memory stays O(n_paths kt) however large
    n_tilde n grows (N in the thousands).  Both routes do the same
    floating-point operations in the same order, so they draw the same
    trajectories.  A step costs O(n_paths (k + kt)) for rows of at most k
    nonzero entries in P and kt in Ptilde: k - 1 gathers and comparisons
    for y, then kt gathers (table) or about 6 kt array operations (per
    path), kt - 1 comparisons for yt and one row copy per coordinate.

    Step t goes straight into rows X[t] and XT[t] of step-major arrays of
    the type ``_pair_dtype(n, n_tilde)``: int8 up to n n_tilde = 127, so the
    11 x 11 pairs of Moran (10, a1, a2) take a quarter of int32 storage.
    The batch holds the (n_paths, n_steps + 1) views x = X.T and
    x_tilde = XT.T, whose columns are contiguous.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    g = np.random.Generator(BIT_GENERATOR(seed))
    start_cum = _start_cdf(pk, nu0)

    n, nt = pk.n, pk.n_tilde
    cols = _row_supports(pk.p)                                  # (n, k)
    k = cols.shape[1]
    cum_p = np.cumsum(np.take_along_axis(pk.p, cols, axis=1), axis=1)
    # the last nonzero entry of each row and its padding read 1, so a draw
    # never passes the end of a row's support
    cum_p[np.arange(k) >= np.count_nonzero(pk.p, axis=1)[:, None] - 1] = 1.0
    cum_p = np.ascontiguousarray(cum_p.T)                        # (k, n)
    cols = cols.ravel()
    tcols = _row_supports(pk.p_tilde)                           # (nt, kt)
    kt = tcols.shape[1]
    tvals = np.ascontiguousarray(np.take_along_axis(pk.p_tilde, tcols, axis=1).T)
    link_rows = np.ascontiguousarray(tcols.T * n)   # offsets of rows c_j in the flat link
    tcols = tcols.ravel()
    link = pk.link.ravel()
    if nt * n <= n_paths:
        pairs = np.arange(nt * n)
        table = _hidden_partials(pairs // n, pairs % n, tvals, link_rows, link,
                                 np.empty((kt, nt * n)))
    else:
        table, part = None, np.empty((kt, n_paths))

    X = np.empty((n_steps + 1, n_paths), dtype=_pair_dtype(n, nt))
    XT = np.empty_like(X)
    # scratch: the current and next (x, xt), swapped each step.  A count
    # stays below a row's width, at most n.  The gathers index in range by
    # construction; mode="wrap" lets take write into its out array, which
    # mode="raise" would first buffer.
    cur = np.empty((2, n_paths), dtype=np.int64)
    nxt = np.empty_like(cur)
    u = np.empty((2, n_paths))
    row = np.empty(n_paths)
    idx = np.empty(n_paths, dtype=np.int64)
    count = np.empty(n_paths, dtype=np.min_scalar_type(max(k, kt)))
    above = np.empty(n_paths, dtype=bool)
    cur[:] = np.divmod(np.searchsorted(start_cum, g.random(n_paths), side="right"), nt)
    X[0], XT[0] = cur
    for t in range(1, n_steps + 1):
        g.random(out=u)
        (cx, cxt), (y, yt) = cur, nxt
        # y = col(x, #{j : u0 > cum_p(x, j)})
        count.fill(0)
        for c in cum_p[:-1]:
            count += np.greater(u[0], np.take(c, cx, out=row, mode="wrap"),
                                out=above).view(np.uint8)
        np.multiply(cx, k, out=idx)
        idx += count
        np.take(cols, idx, out=y, mode="wrap")
        # yt = tcol(xt, #{i : u1 S_{kt-1} > S_i}), S_i = S_i(xt, y) taken
        # last first; a count does not depend on the order of its terms
        if table is None:
            sums = iter(_hidden_partials(cxt, y, tvals, link_rows, link, part)[::-1])
        else:
            np.multiply(cxt, n, out=idx)
            idx += y
            sums = (np.take(s, idx, out=row, mode="wrap") for s in table[::-1])
        v = u[1]
        v *= next(sums)
        count.fill(0)
        for s in sums:
            count += np.greater(v, s, out=above).view(np.uint8)
        np.multiply(cxt, kt, out=idx)
        idx += count
        np.take(tcols, idx, out=yt, mode="wrap")
        X[t], XT[t] = nxt
        cur, nxt = nxt, cur
    return TrajectoryBatch(x=X.T, x_tilde=XT.T, seed=seed)


def _binomial_stat(counts, trials, probs) -> np.ndarray:
    """m KL(k/m || p) per cell of k successes in m trials, KL between
    Bernoulli laws with 0 log 0 = 0.  By the Chernoff bound, a
    Binomial(m, p) count lands at least as far from m p, on its side, with
    probability at most exp(-stat)."""
    q = counts / trials
    p = np.clip(probs, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(q > 0, q * np.log(q / p), 0.0)
        b = np.where(q < 1, (1.0 - q) * np.log((1.0 - q) / (1.0 - p)), 0.0)
    return trials * (a + b)


_CELL_GROUPS = ("observed_ok", "hidden_ok", "conditional_ok")


def empirical_report(batch: TrajectoryBatch, pk: ProductKernel, pi_tilde0) -> dict:
    """Test occupation frequencies against the exact laws at the middle and
    the last step of the batch.

    The cells are the observed and hidden marginals and, for every hidden
    state some path occupies, the observed coordinate given that state
    against its link row.  A cell rejects when its statistic (see
    ``_binomial_stat``) exceeds log(2 K / SAMPLE_ALPHA), K the number of
    cells at all times: by a union over both sides of every cell, a correct
    sampler fails the report with probability at most SAMPLE_ALPHA.  A
    batch with no step or no path has nothing to test and is refused.

    Each exact marginal is evolved once, through the checked times in
    order; ``observed_laws`` maps each checked time t to pi0 P^t.
    """
    if batch.n_steps < 1:
        raise ValueError("batch must have at least one step")
    if batch.n_paths < 1:
        raise ValueError("batch must have at least one path")
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    times = sorted({batch.n_steps // 2, batch.n_steps} - {0})
    n, nt = pk.n, pk.n_tilde
    paths = batch.n_paths
    mu, nu, last = nu0 @ pk.link, nu0, 0
    observed_laws = {}

    stats = []
    for t in times:
        mu = observed_laws[t] = kernels.evolve(mu, pk.p, t - last)
        nu = kernels.evolve(nu, pk.p_tilde, t - last)
        last = t
        joint = np.bincount(batch.x_tilde[:, t] * n + batch.x[:, t],
                            minlength=nt * n).reshape(nt, n)
        hid = joint.sum(axis=1)
        seen = hid > 0
        stats.append((t, int(seen.sum()), dict(zip(_CELL_GROUPS, (
            _binomial_stat(joint.sum(axis=0), paths, mu),
            _binomial_stat(hid, paths, nu),
            _binomial_stat(joint[seen], hid[seen, None], pk.link[seen]),
        )))))
    cells = sum(s.size for _, _, groups in stats for s in groups.values())
    limit = math.log(2 * max(cells, 1) / SAMPLE_ALPHA)

    checks = []
    for t, states, groups in stats:
        check = {"time": int(t)}
        check.update((key, bool(np.all(s <= limit))) for key, s in groups.items())
        check["conditioned_states"] = states
        check["max_stat"] = float(max(s.max(initial=0.0) for s in groups.values()))
        checks.append(check)
    ok = all(c[key] for c in checks for key in _CELL_GROUPS)
    return {"ok": ok, "checks": checks, "n_paths": paths, "observed_laws": observed_laws}
