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
from dataclasses import dataclass

import numpy as np

from . import errors, kernels
from .kernels import as_matrix, sup_norm
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL


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
    r = sup_norm(pt @ L - L @ m)
    if r > RESID_TOL:
        raise errors.IntertwiningResidualError(f"link residual {r:.3g}")

    W = L @ m                                    # (xt, y)
    inv_lp = np.divide(1.0, W, out=np.zeros_like(W), where=W > 0)
    consistent = (L.T > EPS_NEG)                 # (x, xt)
    # row sum at pair (x, xt): sum_y P(x, y) (Ptilde Lambda)(xt, y) / (Lambda P)(xt, y)
    sums = (m @ ((pt @ L) * inv_lp).T).reshape(-1)
    bad = consistent.reshape(-1) & (np.abs(sums - 1.0) > EPS_STOCH)
    if np.any(bad):
        s = int(np.argmax(bad))
        raise errors.NotStochasticError(
            f"coupled row at pair {divmod(s, nt)} sums to {sums[s]}"
        )
    return ProductKernel(p=m, p_tilde=pt, link=L, inv_lp=inv_lp, consistent=consistent)


def exact_joint(pk: ProductKernel, pi_tilde0, n_steps: int) -> dict:
    """Push the product-form initial law through the coupled kernel and
    certify, at every step, the three structural identities: observed
    marginal = pi0 P^n, hidden marginal = nu0 Ptilde^n, and joint law =
    product form nu_n(xt) Lambda(xt, x).

    The law rho(x, xt) moves through the factors:
    rho <- (((rho' P) o 1/(Lambda P))' Ptilde) o Lambda'.
    """
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0")
    if nu0.shape[0] != pk.n_tilde:
        raise errors.DimensionMismatchError("pi_tilde0 length mismatch")
    L = pk.link
    rho = nu0[None, :] * L.T                     # rho0(x, xt)
    pi0 = nu0 @ L

    mu = pi0.copy()
    nu = nu0.copy()
    obs_dev = hid_dev = prod_dev = 0.0
    for _ in range(n_steps):
        rho = (((rho.T @ pk.p) * pk.inv_lp).T @ pk.p_tilde) * L.T
        mu = mu @ pk.p
        nu = nu @ pk.p_tilde
        obs_dev = max(obs_dev, sup_norm(rho.sum(axis=1) - mu))
        hid_dev = max(hid_dev, sup_norm(rho.sum(axis=0) - nu))
        prod_dev = max(prod_dev, sup_norm(rho - (nu[None, :] * L.T)))
    return {
        "joint": rho.reshape(-1),
        "observed_marginal_dev": obs_dev,
        "hidden_marginal_dev": hid_dev,
        "product_form_dev": prod_dev,
        "observed_final": mu,
        "hidden_final": nu,
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


def simulate(pk: ProductKernel, pi_tilde0, n_steps: int, n_paths: int,
             seed: int = 0) -> TrajectoryBatch:
    """Sample coupled trajectories from the product-form initial law.

    One Philox stream per seed.  ``random(n_paths)`` picks the start pair;
    then each step takes ``random((2, n_paths))``: row 0 draws y ~ P(x, .),
    row 1 draws yt with weights Ptilde(xt, .) Lambda(., y), both by inverse
    transform.
    """
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0")
    g = np.random.Generator(np.random.Philox(key=seed))
    start_cum = np.cumsum((nu0[None, :] * pk.link.T).reshape(-1))
    cum_p = np.cumsum(pk.p, axis=1)
    # guard against round-off overshoot in inverse-transform sampling
    start_cum[-1] = 1.0
    cum_p[:, -1] = 1.0

    x = np.empty((n_paths, n_steps + 1), dtype=np.int64)
    xt = np.empty_like(x)
    x[:, 0], xt[:, 0] = np.divmod(np.searchsorted(start_cum, g.random(n_paths), side="right"),
                                  pk.n_tilde)
    for t in range(1, n_steps + 1):
        u = g.random((2, n_paths))
        y = (u[0, :, None] > cum_p[x[:, t - 1]]).sum(axis=1)
        cum_w = np.cumsum(pk.p_tilde[xt[:, t - 1]] * pk.link[:, y].T, axis=1)
        x[:, t] = y
        xt[:, t] = ((u[1] * cum_w[:, -1])[:, None] > cum_w).sum(axis=1)
    return TrajectoryBatch(x=x, x_tilde=xt, seed=seed, fingerprint=pk.fingerprint())


def empirical_report(batch: TrajectoryBatch, pk: ProductKernel, pi_tilde0,
                     times=None, min_hits: int = 30) -> dict:
    """Compare occupation frequencies with the exact laws at selected times.

    Marginal frequencies must sit within three binomial standard errors of
    the exact probabilities; conditionally on the hidden state (where at
    least ``min_hits`` paths land) the observed coordinate must match the
    link row to the same precision.
    """
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0")
    if times is None:
        times = sorted({batch.n_steps // 2, batch.n_steps} - {0})
    paths = batch.n_paths
    pi0 = nu0 @ pk.link

    checks = []
    ok = True
    for t in times:
        mu = pi0.copy()
        nu = nu0.copy()
        for _ in range(t):
            mu = mu @ pk.p
            nu = nu @ pk.p_tilde
        fx = np.bincount(batch.x[:, t], minlength=pk.n) / paths
        fxt = np.bincount(batch.x_tilde[:, t], minlength=pk.n_tilde) / paths
        se_x = np.sqrt(np.maximum(mu * (1 - mu), 1e-12) / paths)
        se_xt = np.sqrt(np.maximum(nu * (1 - nu), 1e-12) / paths)
        obs_ok = bool(np.all(np.abs(fx - mu) <= 3 * se_x + 1e-12))
        hid_ok = bool(np.all(np.abs(fxt - nu) <= 3 * se_xt + 1e-12))

        cond = []
        for xt in range(pk.n_tilde):
            sel = batch.x_tilde[:, t] == xt
            hits = int(sel.sum())
            if hits < min_hits:
                continue
            fcond = np.bincount(batch.x[sel, t], minlength=pk.n) / hits
            row = pk.link[xt]
            se = np.sqrt(np.maximum(row * (1 - row), 1e-12) / hits)
            cond.append(bool(np.all(np.abs(fcond - row) <= 3 * se + 1e-12)))
        cond_ok = all(cond) if cond else True
        ok = ok and obs_ok and hid_ok and cond_ok
        checks.append({
            "time": int(t),
            "observed_within_3se": obs_ok,
            "hidden_within_3se": hid_ok,
            "conditional_within_3se": cond_ok,
            "conditioned_states": len(cond),
        })
    return {"ok": ok, "checks": checks, "n_paths": paths}
