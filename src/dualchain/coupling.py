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
from .kernels import as_matrix, sup_norm
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL, SAMPLE_ALPHA


@dataclass(frozen=True)
class ProductKernel:
    """Coupled kernel on pair states s = x * n_tilde + xt (C order), kept as
    its factors P, Ptilde and Lambda.

    ``inv_lp`` is 1 / (Lambda P)(xt, y), set to 0 where (Lambda P)(xt, y) = 0.
    ``consistent`` marks the pairs with Lambda(xt, x) > 0; the coupled walk
    never leaves them.
    """

    p: np.ndarray
    p_tilde: np.ndarray
    link: np.ndarray
    inv_lp: np.ndarray
    consistent: np.ndarray

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def n_tilde(self) -> int:
        return self.p_tilde.shape[0]

    def pair_index(self, x: int, xt: int) -> int:
        return x * self.n_tilde + xt

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for m in (self.p, self.p_tilde, self.link):
            h.update(np.ascontiguousarray(m).tobytes())
            h.update(repr(m.shape).encode())
        return h.hexdigest()


def product_kernel(P, p_tilde, link) -> ProductKernel:
    m = as_matrix(P)
    pt = as_matrix(p_tilde)
    L = as_matrix(link)
    nt = pt.shape[0]
    if L.shape != (nt, m.shape[0]):
        raise errors.DimensionMismatchError("link must map hidden rows to observed columns")
    W = L @ m                                    # (Lambda P)(xt, y)
    V = pt @ L                                   # (Ptilde Lambda)(xt, y)
    r = sup_norm(V - W)
    if r > RESID_TOL:
        raise errors.IntertwiningResidualError(f"link residual {r:.3g}")

    inv_lp = np.divide(1.0, W, out=np.zeros_like(W), where=W > 0)
    consistent = (L.T > EPS_NEG)                 # (x, xt)
    # row sum at pair (x, xt): sum_y P(x, y) (Ptilde Lambda)(xt, y) / (Lambda P)(xt, y)
    sums = (m @ (V * inv_lp).T).reshape(-1)
    bad = consistent.reshape(-1) & (np.abs(sums - 1.0) > EPS_STOCH)
    if np.any(bad):
        s = int(np.argmax(bad))
        raise errors.NotStochasticError(
            f"coupled row at pair {divmod(s, nt)} sums to {sums[s]}"
        )
    return ProductKernel(p=m, p_tilde=pt, link=L, inv_lp=inv_lp, consistent=consistent)


# exact_joint stacks the laws of a block of steps: at most 2^17 entries (1 MB)
# of joint law per block, the budget of stationary_times._SEP_CHUNK
_JOINT_CHUNK = 1 << 17


def exact_joint(pk: ProductKernel, pi_tilde0, n_steps: int) -> dict:
    """Push the product-form initial law through the coupled kernel and
    certify, at every step 1..n_steps, the three structural identities:
    observed marginal = pi0 P^n, hidden marginal = nu0 Ptilde^n, and joint
    law = product form nu_n(xt) Lambda(xt, x).

    The law rho(x, xt) moves through the factors:
    rho <- (((rho' P) o 1/(Lambda P))' Ptilde) o Lambda'.
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
    obs_dev = hid_dev = prod_dev = 0.0
    for lo in range(0, n_steps, B):
        b = min(B, n_steps - lo)
        for i in range(b):
            np.multiply(np.matmul(rho.T, pk.p, out=pushed), pk.inv_lp, out=pushed)
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
    x: np.ndarray          # (n_paths, n_steps + 1) observed coordinates
    x_tilde: np.ndarray    # hidden coordinates, same shape
    seed: int
    fingerprint: str

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def n_steps(self) -> int:
        return self.x.shape[1] - 1

    def digest(self) -> str:
        """SHA-256 of the shape and little-endian int64 bytes (C order) of
        ``x``, then of ``x_tilde``."""
        h = hashlib.sha256()
        for a in (self.x, self.x_tilde):
            a = np.ascontiguousarray(a, dtype="<i8")
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()


def _row_supports(m: np.ndarray) -> np.ndarray:
    """Columns of the nonzero entries of each row of ``m``, ascending.

    Rows are padded to the widest support k with their first zero columns,
    so an entry of ``m`` read at a padding column is 0.
    """
    nz = m != 0
    k = max(int(nz.sum(axis=1).max()), 1)
    return np.argsort(~nz, axis=1, kind="stable")[:, :k]


def simulate(pk: ProductKernel, pi_tilde0, n_steps: int, n_paths: int,
             seed: int = 0) -> TrajectoryBatch:
    """Sample coupled trajectories from the product-form initial law.

    One Philox stream per seed.  ``random(n_paths)`` picks the start pair;
    then each step takes ``random((2, n_paths))``: row 0 draws y ~ P(x, .),
    row 1 draws yt with weights Ptilde(xt, .) Lambda(., y), both by inverse
    transform over the nonzero entries of the row, so a step costs
    O(n_paths k) for rows of at most k nonzero entries.  Partial sums skip
    only exact zeros, so the draws pick the same states as an inverse
    transform over whole rows.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    g = np.random.Generator(np.random.Philox(key=seed))
    start_cum = np.cumsum((nu0[None, :] * pk.link.T).reshape(-1))
    start_cum[-1] = 1.0     # guard against round-off overshoot

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

    # each step's state is one contiguous row of a block of 8 steps, copied
    # into the (path, step) arrays when the block is full: 8 int64 fill one
    # 64-byte line of a path's row, where a column per step would touch a
    # line per path at every step
    x = np.empty((n_paths, n_steps + 1), dtype=np.int64)
    xt = np.empty_like(x)
    bx = np.empty((8, n_paths), dtype=np.int64)
    bxt = np.empty_like(bx)
    part = np.empty((kt, n_paths))
    bx[0], bxt[0] = np.divmod(np.searchsorted(start_cum, g.random(n_paths), side="right"), nt)
    for t in range(n_steps + 1):
        b = t % 8
        if t:
            u = g.random((2, n_paths))
            cx, cxt = bx[b - 1], bxt[b - 1]
            # y = col(x, #{j : u0 > cum_p(x, j)})
            j = np.zeros(n_paths, dtype=np.int64)
            for c in cum_p[:-1]:
                j += u[0] > np.take(c, cx)
            y = np.take(cols, cx * k + j)
            # partial sums of Ptilde(xt, c_j) Lambda(c_j, y) over the support of xt
            for i in range(kt):
                part[i] = np.take(tvals[i], cxt) * np.take(link, np.take(link_rows[i], cxt) + y)
                if i:
                    part[i] += part[i - 1]
            v = u[1] * part[-1]
            j = np.zeros(n_paths, dtype=np.int64)
            for s in part[:-1]:
                j += v > s
            bx[b] = y
            bxt[b] = np.take(tcols, cxt * kt + j)
        if b == 7 or t == n_steps:
            x[:, t - b:t + 1] = bx[:b + 1].T
            xt[:, t - b:t + 1] = bxt[:b + 1].T
    return TrajectoryBatch(x=x, x_tilde=xt, seed=seed, fingerprint=pk.fingerprint())


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
    """
    if batch.n_steps < 1:
        raise ValueError("batch must have at least one step")
    if batch.n_paths < 1:
        raise ValueError("batch must have at least one path")
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    times = sorted({batch.n_steps // 2, batch.n_steps} - {0})
    n, nt = pk.n, pk.n_tilde
    paths = batch.n_paths
    pi0 = nu0 @ pk.link

    stats = []
    for t in times:
        joint = np.bincount(batch.x_tilde[:, t] * n + batch.x[:, t],
                            minlength=nt * n).reshape(nt, n)
        hid = joint.sum(axis=1)
        seen = hid > 0
        stats.append((t, int(seen.sum()), dict(zip(_CELL_GROUPS, (
            _binomial_stat(joint.sum(axis=0), paths, kernels.evolve(pi0, pk.p, t)),
            _binomial_stat(hid, paths, kernels.evolve(nu0, pk.p_tilde, t)),
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
    return {"ok": ok, "checks": checks, "n_paths": paths}
