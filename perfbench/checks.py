"""Output checks for the benchmark, computed apart from the library.

Every check returns a list of failure messages; an empty list is a pass.
References are rebuilt here with plain numpy from the problem definition
(kernel entries, closed-form eigenvalues, reversal, separation), so a check
never trusts the code path it is checking.  The gates are the ones the
acceptance criteria and `dualchain verify` use.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ROUTE_REL_TOL = 1e-8   # absorption mean and variance vs closed form (criterion 10)
PMF_TOL = 1e-9         # absorption pmfs across routes (criterion 10)
RESID_GATE = 1e-10     # duality, intertwining, stationarity (verify gates)
DYNAMIC_GATE = 1e-9    # iterated duality (verify gate)
SHARP_GATE = 1e-9      # separation == survival (verify gate)
STOCH_GATE = 1e-9      # row sums of a stochastic matrix
NEG_GATE = 1e-12       # entries counted as exact zeros
JOINT_TOL = 1e-10      # exact_joint marginal and product-form deviations
FAMILY_ALPHA = 1e-6    # family-wise false-alarm bound of the sampling test


# ---------------------------------------------------------------- references

def bd_matrix(p, q, r=None) -> np.ndarray:
    """Tridiagonal birth-death kernel from up/down (and hold) vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = 1.0 - p - q if r is None else np.asarray(r, dtype=float)
    return np.diag(r) + np.diag(p[:-1], 1) + np.diag(q[1:], -1)


def moran_mutation_matrix(N: int, a1: float, a2: float) -> np.ndarray:
    """Moran chain with bias b(u) = (1 - a2) u + a1 (1 - u)."""
    u = np.arange(N + 1) / N
    b = (1.0 - a2) * u + a1 * (1.0 - u)
    p = (1.0 - u) * b
    q = u * (1.0 - b)
    return bd_matrix(p, q, 1.0 - p - q)


def moran_mutation_eigenvalues(N: int, a1: float, a2: float) -> np.ndarray:
    """t_k = 1 - (k/N)(a + ((k-1)/N)(1-a)), k = 1..N, a = a1 + a2."""
    k = np.arange(1, N + 1, dtype=float)
    a = a1 + a2
    return 1.0 - (k / N) * (a + ((k - 1.0) / N) * (1.0 - a))


def absorption_moments(t: np.ndarray) -> tuple[float, float]:
    """Mean sum 1/(1-t_k) and variance sum t_k/(1-t_k)^2 of the hidden clock."""
    return float(np.sum(1.0 / (1.0 - t))), float(np.sum(t / (1.0 - t) ** 2))


def siegmund_matrix(n: int) -> np.ndarray:
    return np.triu(np.ones((n, n)))


def reversal(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return (P * pi[:, None]).T / pi[:, None]


def separation_series(P_bar, pi0, pi, n_max: int) -> np.ndarray:
    """sep(pi0 P_bar^n, pi) for n = 0..n_max."""
    out = np.empty(n_max + 1)
    mu = np.asarray(pi0, dtype=float)
    for n in range(n_max + 1):
        out[n] = np.max(1.0 - mu / pi)
        mu = mu @ P_bar
    return out


def trajectory_digest(x: np.ndarray, x_tilde: np.ndarray) -> str:
    """SHA-256 of both coordinate arrays as little-endian int64, C order."""
    h = hashlib.sha256()
    for a in (x, x_tilde):
        a = np.ascontiguousarray(a, dtype="<i8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------------- helpers

def _sup(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _gate(failures: list, what: str, value: float, tol: float) -> None:
    if not value <= tol:          # also catches NaN
        failures.append(f"{what} {value:.3g} > {tol:g}")


def _stochastic(failures: list, what: str, m: np.ndarray) -> None:
    if np.min(m) < -NEG_GATE:
        failures.append(f"{what} has entry {np.min(m):.3g}")
    _gate(failures, f"{what} row-sum error", _sup(m.sum(axis=1) - 1.0), STOCH_GATE)


# ----------------------------------------------------------------- pipeline

def check_pipeline(P, dual, link, p_tilde, pi) -> list[str]:
    """Stationary law, Siegmund duality and the intertwining
    P~ Lambda = Lambda P_bar, with P_bar the reversal rebuilt here."""
    f: list[str] = []
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if np.min(pi) <= 0:
        return [f"stationary law has entry {np.min(pi):.3g} <= 0"]
    _gate(f, "stationary mass error", abs(pi.sum() - 1.0), STOCH_GATE)
    _gate(f, "stationary residual", _sup(pi @ P - pi), RESID_GATE)
    H = siegmund_matrix(P.shape[0])
    _gate(f, "duality residual", _sup(P @ H - H @ np.asarray(dual).T), RESID_GATE)
    _stochastic(f, "link", np.asarray(link))
    _stochastic(f, "P~", np.asarray(p_tilde))
    back = reversal(P, pi)
    _gate(f, "intertwining residual",
          _sup(np.asarray(p_tilde) @ link - np.asarray(link) @ back), RESID_GATE)
    return f


def check_duality_gates(feasible: bool, vd: dict) -> list[str]:
    f: list[str] = [] if feasible else ["Siegmund dual reported infeasible"]
    _gate(f, "verify_duality static", vd["static"], RESID_GATE)
    _gate(f, "verify_duality dynamic", vd["dynamic"], DYNAMIC_GATE)
    return f


def check_sharpness(table, sharp: bool, P_bar, pi0, pi, survival) -> list[str]:
    """Sharp equality sep == survival, separation recomputed here, and the
    survival column against the matrix-power route's survival."""
    f: list[str] = [] if sharp else ["sharpness witness missing"]
    table = np.asarray(table, dtype=float)
    n_max = table.shape[0] - 1
    _gate(f, "sep - survival gap", _sup(table[:, 1] - table[:, 2]), SHARP_GATE)
    own = separation_series(P_bar, pi0, pi, n_max)
    _gate(f, "separation vs reference", _sup(table[:, 1] - own), SHARP_GATE)
    m = min(len(survival), n_max + 1)
    _gate(f, "survival vs matrix route", _sup(table[:m, 2] - survival[:m]), SHARP_GATE)
    return f


def check_absorption(routes: dict, mean: float, variance: float) -> list[str]:
    """Each route's (mean, variance, pmf) against the closed form, and every
    pmf against the first route's over their common length."""
    f: list[str] = []
    first = None
    for name, (m, v, pmf) in routes.items():
        rm = abs(m - mean) / mean
        rv = abs(v - variance) / variance
        if not rm <= ROUTE_REL_TOL:
            f.append(f"{name} mean {m:.12g} vs closed form {mean:.12g} (rel {rm:.3g})")
        if not rv <= ROUTE_REL_TOL:
            f.append(f"{name} variance {v:.12g} vs closed form {variance:.12g} (rel {rv:.3g})")
        pmf = np.asarray(pmf, dtype=float)
        if first is None:
            first = (name, pmf)
            continue
        k = min(len(pmf), len(first[1]))
        _gate(f, f"{name} pmf vs {first[0]}", _sup(pmf[:k] - first[1][:k]), PMF_TOL)
    return f


def check_exact_joint(ej: dict) -> list[str]:
    f: list[str] = []
    for key in ("observed_marginal_dev", "hidden_marginal_dev", "product_form_dev"):
        _gate(f, f"exact_joint {key}", ej[key], JOINT_TOL)
    return f


# ----------------------------------------------------------------- sampling

def _bernoulli_kl(q, p):
    """KL(Bernoulli(q) || Bernoulli(p)) elementwise, with 0 log 0 = 0."""
    q = np.asarray(q, dtype=float)
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(q > 0, q * np.log(q / p), 0.0)
        b = np.where(q < 1, (1.0 - q) * np.log((1.0 - q) / (1.0 - p)), 0.0)
    return a + b


def binomial_family_test(counts, trials, probs, alpha: float = FAMILY_ALPHA) -> dict:
    """Family-wise test of cells k_i ~ Binomial(n_i, p_i).

    Chernoff: P(k/n at least as far from p as observed, on that side) <=
    exp(-n KL(k/n || p)).  Bonferroni over both sides of every cell, so the
    chance that a correct sampler fails anywhere is at most ``alpha``.
    """
    k = np.asarray(counts, dtype=float)
    n = np.asarray(trials, dtype=float)
    stat = n * _bernoulli_kl(k / n, probs)
    limit = math.log(2 * k.size / alpha)
    bad = np.flatnonzero(stat > limit)
    return {"cells": int(k.size), "limit": limit,
            "max_stat": float(np.max(stat)) if k.size else 0.0, "rejected": bad}


def check_coupled_sample(x, x_tilde, P, p_tilde, link, nu0) -> list[str]:
    """Marginals of both coordinates at every step against nu0 Lambda P^t and
    nu0 P~^t, and the law of x_t given x~_t against the link row, all in one
    Bonferroni family.  P must be the kernel the coupled walk moves by."""
    x = np.asarray(x)
    xt = np.asarray(x_tilde)
    P, p_tilde, link = (np.asarray(a, dtype=float) for a in (P, p_tilde, link))
    n, nt = P.shape[0], p_tilde.shape[0]
    paths = x.shape[0]
    if x.shape != xt.shape:
        return [f"coordinate shapes differ: {x.shape} vs {xt.shape}"]
    mu = np.asarray(nu0, dtype=float) @ link
    nu = np.asarray(nu0, dtype=float)
    ks, ns, ps = [], [], []
    for t in range(x.shape[1]):
        joint = np.bincount(xt[:, t] * n + x[:, t], minlength=nt * n).reshape(nt, n)
        hid = joint.sum(axis=1)
        ks += [joint.sum(axis=0), hid]
        ns += [np.full(n, paths), np.full(nt, paths)]
        ps += [mu, nu]
        seen = hid > 0
        ks.append(joint[seen].ravel())
        ns.append(np.repeat(hid[seen], n))
        ps.append(link[seen].ravel())
        mu = mu @ P
        nu = nu @ p_tilde
    res = binomial_family_test(np.concatenate(ks), np.concatenate(ns), np.concatenate(ps))
    if res["rejected"].size:
        return [f"sampled laws reject the exact laws in {res['rejected'].size} of "
                f"{res['cells']} cells (max n*KL {res['max_stat']:.1f} > {res['limit']:.1f})"]
    return []


# ------------------------------------------------------------- CLI outputs

def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _summary(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_cli(command: str, cfg: dict, opts: dict, rc: int, out: Path) -> list[str]:
    """Exit code and summary values of one CLI call against references."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        return CLI_CHECKS[command](cfg, opts, out)
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def _cli_ssd(cfg, opts, out):
    f: list[str] = []
    s = _summary(out / "ssd_summary.json")
    mean, var = absorption_moments(moran_mutation_eigenvalues(cfg["N"], cfg["a1"], cfg["a2"]))
    routes = {"ssd": (s["mean"], s["variance"], [])}
    if "mean_spectral" in s:
        routes["ssd spectral"] = (s["mean_spectral"], s["variance_spectral"], [])
    f += check_absorption(routes, mean, var)
    if not s["sharp"]:
        f.append("ssd not sharp")
    _gate(f, "ssd max_gap", s["max_gap"], SHARP_GATE)
    return f


def _cli_simulate(cfg, opts, out):
    f: list[str] = []
    s = _summary(out / "simulate_summary.json")
    paths = int(opts["trials"])
    if s["n_paths"] != paths:
        f.append(f"n_paths {s['n_paths']} != {paths}")
    P = moran_mutation_matrix(cfg["N"], cfg["a1"], cfg["a2"])
    start = np.zeros(P.shape[0])
    start[0] = 1.0          # the Siegmund link row of state 0 is e_0
    ks, ps = [], []
    for row in _csv(out / "empirical.csv")[1]:
        t, state, freq = int(row[0]), int(row[2]), float(row[3])
        ks.append(round(freq * paths))
        ps.append((start @ np.linalg.matrix_power(P, t))[state])
    res = binomial_family_test(ks, np.full(len(ks), paths), ps)
    if res["rejected"].size or not ks:
        f.append(f"empirical.csv rejects the exact law in {res['rejected'].size} "
                 f"of {res['cells']} cells")
    return f


CLI_CHECKS = {
    "ssd": _cli_ssd,
    "simulate": _cli_simulate,
}
