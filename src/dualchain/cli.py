"""Command line front end: JSON configs in, CSV tables and JSON summaries out."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import (
    chains,
    coupling,
    duals,
    errors,
    intertwining,
    kernels,
    spectra,
    stationary_times,
)
from .tolerances import (
    ABSORPTION_TOL, DYNAMIC_TOL, RESID_TOL, SHARP_TOL, TRACE_TOL,
)

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["dense", "bd", "moran", "moran_mutation", "bernoulli_laplace",
                          "wright_fisher"]},
        "N": {"type": "integer", "minimum": 1},
        "matrix": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "p": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
        "q": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
        "r": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
        "bias": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1}},
        "a1": {"type": "number", "minimum": 0},
        "a2": {"type": "number", "minimum": 0},
        "dual": {
            "type": "object",
            "properties": {
                "family": {"enum": ["siegmund", "ultrametric", "hypergeometric",
                                    "vandermonde", "potential"]},
                "k": {"type": "integer", "minimum": 0},
                "alpha": {"type": "number", "minimum": 0},
                "beta": {"type": "number", "minimum": 0},
                "R": {"type": "array"},
            },
            "required": ["family"],
        },
        "options": {
            "type": "object",
            "properties": {
                "n_max": {"type": "integer", "minimum": 1},
                "trials": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
                "start": {"type": "integer", "minimum": 0},
                "sweep": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "series": {"type": "string"},
            },
        },
    },
    "required": ["kind"],
}


def _is_type(value, kind: str) -> bool:
    # JSON Schema counts a float with an integer value, such as 50.0, as an
    # integer; sizes, horizons and states must be Python ints (not bools)
    if kind in ("integer", "number"):
        allowed = int if kind == "integer" else (int, float)
        return isinstance(value, allowed) and not isinstance(value, bool)
    return isinstance(value, {"object": dict, "array": list, "string": str}[kind])


# the JSON Schema keywords _violations implements; CONFIG_SCHEMA uses no other
SCHEMA_KEYWORDS = ("type", "enum", "minimum", "maximum", "required", "properties", "items")


def _violations(value, schema: dict, path: tuple):
    """(path, message) of each way ``value`` breaks ``schema``, in the order
    and the wording of jsonschema's Draft 2020-12 validator."""
    for key, arg in schema.items():
        if key == "type" and not _is_type(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minimum" and _is_type(value, "number") and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum" and _is_type(value, "number") and value > arg:
            yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "required" and isinstance(value, dict):
            yield from ((path, f"{name!r} is a required property")
                        for name in arg if name not in value)
        elif key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _violations(item, arg, path + (i,))
        elif key not in SCHEMA_KEYWORDS:
            raise KeyError(f"schema keyword {key!r} is not implemented")


def check_config(cfg) -> None:
    """Raise ConfigError for a config that breaks CONFIG_SCHEMA, at the
    violation jsonschema's best_match would pick: the shallowest, and among
    siblings the last in path order."""
    found = max(_violations(cfg, CONFIG_SCHEMA, ()), default=None,
                key=lambda v: (-len(v[0]), v[0]))
    if found is not None:
        path, message = found
        where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        raise errors.ConfigError(f"config schema violation at {where}: {message}")


def load_config(path: str):
    """The parsed JSON of a config file; ``run`` checks it against
    CONFIG_SCHEMA once the command-line flags are merged into its options."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise errors.ConfigError(f"cannot read config {path}: {e}")


def build_chain(cfg: dict) -> kernels.Kernel:
    """Resolve a config to its Kernel.  A chain whose matrix is tridiagonal
    is a birth-death chain, whatever its kind: its ``bands`` is the record."""
    kind = cfg["kind"]
    if kind == "dense":
        if "matrix" not in cfg:
            raise errors.ConfigError("dense chain needs a matrix")
        return kernels.validate_kernel(cfg["matrix"], require="stochastic")
    if kind == "wright_fisher":
        if "N" not in cfg or "bias" not in cfg:
            raise errors.ConfigError("wright_fisher needs N and a bias table")
        return chains.wright_fisher_kernel(cfg["N"], chains.make_bias(cfg["bias"]))
    if kind == "bd":
        if "p" not in cfg or "q" not in cfg:
            raise errors.ConfigError("bd chain needs p and q")
        params = chains.make_bd(cfg["p"], cfg["q"], cfg.get("r"))
    elif kind == "moran":
        if "N" not in cfg or "bias" not in cfg:
            raise errors.ConfigError("moran chain needs N and a bias table")
        params = chains.moran_kernel(cfg["N"], chains.make_bias(cfg["bias"]))
    elif kind == "moran_mutation":
        for key in ("N", "a1", "a2"):
            if key not in cfg:
                raise errors.ConfigError("moran_mutation needs N, a1, a2")
        bias = chains.mutation_bias(cfg["a1"], cfg["a2"], cfg["N"])
        params = chains.moran_kernel(cfg["N"], bias)
    elif kind == "bernoulli_laplace":
        if "N" not in cfg:
            raise errors.ConfigError("bernoulli_laplace needs N")
        params = spectra.bernoulli_laplace_params(cfg["N"])
    else:
        raise errors.ConfigError(f"unknown kind {kind!r}")
    return chains.bd_kernel(params)


def build_dual(cfg: dict, P: kernels.Kernel):
    """The config's dual function H and the DualReport of P's H-dual."""
    spec = cfg.get("dual", {"family": "siegmund"})
    family, N = spec["family"], P.n - 1
    if family == "siegmund":
        return duals.siegmund_function(N), duals.siegmund_dual(P)
    if family == "ultrametric":
        if any(key not in spec for key in ("k", "alpha", "beta")):
            raise errors.ConfigError("ultrametric dual needs k, alpha, beta")
        k, alpha, beta = spec["k"], spec["alpha"], spec["beta"]
        return (duals.ultrametric_function(N, k, alpha, beta),
                duals.ultrametric_dual(P, k, alpha, beta))
    if family == "potential":
        if "R" not in spec:
            raise errors.ConfigError("potential dual needs the substochastic matrix R")
        H = duals.potential_function(np.array(spec["R"], dtype=float))
    elif family == "hypergeometric":
        H = duals.hypergeometric_function(N)
    else:
        H = duals.vandermonde_function(N)
    return H, duals.dual_via_solve(P, H)


def _render(body) -> str:
    """The text of one output file.  A summary dict becomes indented JSON
    with sorted keys; a ``(header, rows)`` table and a matrix (header c0,
    c1, ...) become CSV with every number in %.17g, which re-reads
    bit-exactly."""
    if isinstance(body, dict):
        return json.dumps(_plain(body), indent=2, sort_keys=True) + "\n"
    if isinstance(body, tuple):
        header, rows = body
        lines = [",".join(v if isinstance(v, str) else "%.17g" % float(v) for v in row)
                 for row in rows]
    else:
        m = np.atleast_2d(np.asarray(body, dtype=float))
        header = [f"c{j}" for j in range(m.shape[1])]
        fmt = ",".join(["%.17g"] * m.shape[1])
        lines = [fmt % tuple(row) for row in m]
    return "\n".join([",".join(header), *lines]) + "\n"


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _plain(obj):
    """``obj`` in JSON's types; a non-finite float, which JSON cannot hold,
    becomes None (null)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def cmd_build(cfg, opts):
    P = build_chain(cfg)
    summary = {"kind": cfg["kind"], "n": P.n, "irreducible": kernels.is_irreducible(P),
               "monotone": duals.is_monotone(P)}
    if summary["irreducible"]:
        summary["stationary"] = kernels.stationary(P)
    return 0, {"kernel.csv": P.matrix, "build_summary.json": summary}


def cmd_dual(cfg, opts):
    P = build_chain(cfg)
    H, report = build_dual(cfg, P)
    summary = {
        "family": cfg.get("dual", {"family": "siegmund"})["family"],
        "feasible": report.feasible,
        "residual": duals.verify_duality(P, H, report.dual, n_max=1)["static"],
        "mass_leaks": report.mass_leaks,
        "leak0": float(report.mass_leaks[0]),
        "violations": report.violations[:10],
        "diagnostics": report.diagnostics,
    }
    return 0 if report.feasible else 2, {
        "dual.csv": report.dual, "dual_function.csv": H.matrix, "dual_summary.json": summary,
    }


class Infeasible(Exception):
    """Raised with the DualReport of a dual that has a negative entry;
    ``run`` exits 2."""


@dataclass(frozen=True)
class Pipeline:
    """A config's chain, dual and intertwining, built once per command.

    ``p_bar`` is the kernel the link intertwines with ``res.p_tilde``: the
    time reversal of P, or the Kernel P itself where P is birth-death
    (detailed balance makes it its own reversal) or agrees with its
    reversal within RESID_TOL.
    ``pt0`` is the point mass of the hidden chain at ``options.start``.
    """

    P: kernels.Kernel
    H: duals.DualFunction
    report: duals.DualReport
    res: intertwining.IntertwiningResult
    p_bar: kernels.Kernel
    start: int
    pt0: np.ndarray

    def readings(self) -> dict:
        """build_intertwining's readings, by the check of VERIFY_CHECKS for each."""
        d = self.res.diagnostics
        return {"duality_static": d["duality"]["static"],
                "harmonic_fixed_point": d["phi_harmonic"],
                "phi_constant_on_classes": d["phi_class_spread"]}

    def sharpness(self, n_max: int) -> stationary_times.SharpnessReport:
        """Separation against hidden survival from the start state."""
        return stationary_times.verify_sharpness(
            self.p_bar, self.res.p_tilde, self.res.link, self.res.link[self.start],
            self.pt0, n_max=n_max,
        )

    def gated_sharpness(self, n_max: int) -> stationary_times.SharpnessReport:
        """``sharpness`` with the link residual it rests on gated first and
        its own readings after, for a command that relies on it."""
        gate({"link_intertwining": kernels.link_residual(
            self.res.p_tilde, self.res.link, self.p_bar)[0]}, self.P.n)
        sharp = self.sharpness(n_max)
        gate(_sharpness_readings(sharp), self.P.n)
        return sharp

    def spectral_moments(self, boundary):
        """Mean and variance of the hidden arrival at ``boundary`` from the
        spectrum of P, or the reason (a str) it gives none: P must be
        birth-death and the hidden chain run from 0 to the top state N."""
        if self.P.bands is None:
            return "the chain is not birth-death"
        if self.start != 0 or boundary != self.P.n - 1:
            return (f"the hidden chain runs from {self.start} to {boundary}, "
                    f"not from 0 to N = {self.P.n - 1}")
        return stationary_times.spectral_moments(spectra.bd_spectrum(self.P.bands))


def pipeline(cfg: dict, opts: dict) -> Pipeline:
    P = build_chain(cfg)
    H, report = build_dual(cfg, P)
    if not report.feasible:
        raise Infeasible(report)
    res = intertwining.build_intertwining(P, H, report.dual)
    start = opts.get("start", 0)
    if start >= P.n:
        raise errors.ConfigError(
            f"options.start = {start} is not a state; states are 0..{P.n - 1}"
        )
    pt0 = np.zeros(P.n)
    pt0[start] = 1.0
    reversible = (P.bands is not None
                  or kernels.sup_norm(np.asarray(res.back) - P.matrix) <= RESID_TOL)
    return Pipeline(P, H, report, res, P if reversible else res.back, start, pt0)


def gated_pipeline(cfg: dict, opts: dict) -> Pipeline:
    """``pipeline`` with build_intertwining's readings gated, for every
    command but verify."""
    pipe = pipeline(cfg, opts)
    gate(pipe.readings(), pipe.P.n)
    return pipe


# Every identity the pipeline checks, in report order: the stage that hands
# on its reading and its gate on n states.  A check passes when its value is
# at most its gate (``_verify_summary``); no stage gates a reading itself.
VERIFY_CHECKS = {
    "dual_nonnegative": ("build_dual", lambda n: 0.0),
    "duality_static": ("build_intertwining", lambda n: RESID_TOL),
    "duality_dynamic": ("verify_duality", lambda n: DYNAMIC_TOL),
    "harmonic_fixed_point": ("build_intertwining", lambda n: RESID_TOL),
    "phi_constant_on_classes": ("build_intertwining", lambda n: RESID_TOL),
    "link_intertwining": ("link_residual", lambda n: RESID_TOL),
    "k_duality": ("identity_residuals", lambda n: RESID_TOL),
    "boundary_rows_carry_pi": ("build_intertwining", lambda n: RESID_TOL),
    "trace_match": ("identity_residuals", lambda n: TRACE_TOL * n),
    "separation_dominated_by_survival": ("verify_sharpness", lambda n: SHARP_TOL),
    "sharp_equality": ("verify_sharpness", lambda n: SHARP_TOL),
    "absorption_agreement": ("hitting_moments", lambda n: ABSORPTION_TOL),
}


def gate(readings: dict, n: int) -> None:
    """Raise CheckFailedError at the first of ``readings`` that
    ``_verify_summary`` files as failed, naming its stage, value and gate."""
    for name, check in _verify_summary(readings, n)["checks"].items():
        if not check["passed"]:
            stage, limit = VERIFY_CHECKS[name]
            raise errors.CheckFailedError(
                f"{name} (stage {stage}) reads {readings[name]:.3g}, "
                f"above its gate {limit(n):.3g}")


def _sharpness_readings(sharp: stationary_times.SharpnessReport) -> dict:
    return {"separation_dominated_by_survival": sharp.excess,
            "sharp_equality": sharp.max_gap if sharp.sharp else
            "no witness state, so separation need not equal survival"}


def _verify_summary(found: dict, n: int) -> dict:
    """The checks of ``found`` on n states.  It maps checks of VERIFY_CHECKS
    to their values, gated under ``checks`` (NaN fails); to the error by
    which their stage refused its input, failed there with that
    ``detail``; or to the reason (a str) they do not apply, under ``skipped``."""
    checks, skipped = {}, {}
    for name, v in found.items():
        if isinstance(v, str):
            skipped[name] = v
        elif isinstance(v, Exception):
            checks[name] = {"value": float("nan"), "passed": False, "detail": str(v)}
        else:
            checks[name] = {"value": float(v), "passed": bool(v <= VERIFY_CHECKS[name][1](n))}
    passed = all(c["passed"] for c in checks.values())
    return {"checks": checks, "skipped": skipped, "all_passed": passed}


# The summary each pipeline command writes when the dual is infeasible
# (None: no file); the exit code is 2.
INFEASIBLE = {
    "intertwine": lambda rep: {"feasible": False, "violations": rep.violations[:10]},
    "ssd": lambda rep: {"feasible": False},
    "simulate": lambda rep: {"feasible": False},
    "verify": lambda rep: {"feasible": False, **_verify_summary(
        {**dict.fromkeys(VERIFY_CHECKS, "the dual is infeasible"),
         "dual_nonnegative": max(abs(v[2]) for v in rep.violations)}, np.shape(rep.dual)[0])},
    "plotdata": None,
}


def cmd_intertwine(cfg, opts):
    pipe = gated_pipeline(cfg, opts)
    res = pipe.res
    residuals = intertwining.identity_residuals(pipe.P, pipe.H, pipe.report.dual, res)
    trace = residuals["trace_comparison"]
    trace["equal"] = _verify_summary({"trace_match": trace["max_deviation"]},
                                     pipe.P.n)["checks"]["trace_match"]["passed"]
    return 0, {
        "link.csv": res.link,
        "p_tilde.csv": res.p_tilde,
        "k_map.csv": res.K,
        "phi.csv": (["state", "phi", "pi"],
                    [(str(i), res.phi[i], res.pi[i]) for i in range(pipe.P.n)]),
        "intertwine_summary.json": {
            "feasible": True,
            "diagnostics": {**res.diagnostics, **residuals},
            "class_constants": res.class_constants,
        },
    }


def cmd_spectrum(cfg, opts):
    params = build_chain(cfg).bands
    if params is None:
        raise errors.ConfigError("spectrum needs a birth-death chain")
    spec = spectra.spectral_weights(params)
    rows = [(str(k), spec.eigenvalues[k], spec.weights[k]) for k in range(spec.n)]
    checks = spectra.spectrum_monotonicity_checks(params, spec)
    return 0, {
        "spectrum.csv": (["k", "t_k", "mu_k"], rows),
        "spectrum_summary.json": {"gap": spec.gap, **{key: checks[key] for key in (
            "monotone", "min_eigenvalue", "min_holding", "spectrally_nonnegative")}},
    }


def cmd_ssd(cfg, opts):
    pipe = gated_pipeline(cfg, opts)
    sharp = pipe.gated_sharpness(opts.get("n_max", 100))
    mean, variance = stationary_times.hitting_moments(pipe.res.p_tilde, pipe.pt0,
                                                      sharp.boundary)
    summary = {
        "boundary": sharp.boundary,
        "witness": sharp.witness,
        "sharp": sharp.sharp,
        "max_gap": sharp.max_gap,
        "mean": mean,
        "variance": variance,
    }
    sp = pipe.spectral_moments(sharp.boundary)
    if not isinstance(sp, str):
        summary["mean_spectral"], summary["variance_spectral"] = sp
    return 0, {"ssd.csv": (["n", "separation", "survival"], sharp.table),
               "ssd_summary.json": summary}


def cmd_simulate(cfg, opts):
    pipe = gated_pipeline(cfg, opts)
    # product_kernel measures and gates the link residual itself
    pk = coupling.product_kernel(pipe.p_bar, pipe.res.p_tilde, pipe.res.link)
    batch = coupling.simulate(pk, pipe.pt0, n_steps=opts.get("n_max", 50),
                              n_paths=opts.get("trials", 10000), seed=opts.get("seed", 0))
    rep = coupling.empirical_report(batch, pk, pipe.pt0)
    rows = []
    for t, mu in rep["observed_laws"].items():
        fx = np.bincount(batch.x[:, t], minlength=pk.n) / batch.n_paths
        for s in range(pk.n):
            rows.append((str(t), "observed", str(s), fx[s], mu[s]))
    summary = {
        "ok": rep["ok"],
        "checks": rep["checks"],
        "n_paths": batch.n_paths,
        "seed": batch.seed,
        "rng": coupling.BIT_GENERATOR.__name__,
        "fingerprint": pk.fingerprint(),
        "trajectory_digest": batch.digest(),
    }
    return 0, {"empirical.csv": (["time", "coordinate", "state", "frequency", "exact"], rows),
               "simulate_summary.json": summary}


def cmd_cutoff(cfg, opts):
    if cfg["kind"] != "moran_mutation":
        raise errors.ConfigError("cutoff sweeps are defined for moran_mutation configs")
    build_chain(cfg)  # the checks of N, a1 and a2 every other command runs
    sweep = opts.get("sweep")
    if not sweep:
        raise errors.ConfigError("cutoff needs options.sweep with a list of N")
    a1, a2 = cfg["a1"], cfg["a2"]
    a = a1 + a2
    out = stationary_times.cutoff_report(
        lambda N: spectra.moran_mutation_spectrum(N, a1, a2), sweep
    )
    rows = []
    for row in out["rows"]:
        N = row["N"]
        asym = N * (math.log(N) + math.log(a)) / a if a > 0 else float("nan")
        rows.append((
            str(N), row["mean"], row["variance"], row["relative_variance"],
            row["gap_times_mean"], row["mean"] / asym if asym > 0 else float("nan"),
        ))
    header = ["N", "mean", "variance", "relative_variance", "gap_times_mean",
              "ratio_to_asymptote"]
    return 0, {"cutoff.csv": (header, rows),
               "cutoff_summary.json": {"cutoff_flag": out["cutoff_flag"]}}


def cmd_verify(cfg, opts):
    """End-to-end verification: each check of VERIFY_CHECKS once, under
    ``checks`` with its value or under ``skipped`` with the reason.  Only a
    stage that refuses its input files its checks without a value."""
    pipe = pipeline(cfg, opts)
    vd = duals.verify_duality(pipe.P, pipe.H, pipe.report.dual, n_max=opts.get("n_max", 20))
    r = intertwining.identity_residuals(pipe.P, pipe.H, pipe.report.dual, pipe.res)
    found = {
        "dual_nonnegative": 0.0,
        **pipe.readings(),
        "duality_dynamic": vd["dynamic"],
        "link_intertwining": r["intertwining"],
        "k_duality": r["k_duality_scaled"],
        "boundary_rows_carry_pi": max(pipe.res.diagnostics["absorbing_rows"].values(),
                                      default=0.0),
        "trace_match": r["trace_comparison"]["max_deviation"],
    }
    try:
        sharp = pipe.sharpness(opts.get("n_max", 100))
    except errors.DualChainError as e:
        found.update(separation_dominated_by_survival=e, sharp_equality=e,
                     absorption_agreement="the sharpness stage raised, so no boundary is known")
    else:
        found.update(_sharpness_readings(sharp))
        sp = pipe.spectral_moments(sharp.boundary)
        if isinstance(sp, str):
            found["absorption_agreement"] = sp
        else:
            try:
                exact = stationary_times.hitting_moments(pipe.res.p_tilde, pipe.pt0,
                                                         sharp.boundary)
            except errors.DualChainError as e:
                found["absorption_agreement"] = e
            else:
                # relative to the spectral value, absolute where that value is 0
                found["absorption_agreement"] = max(
                    abs(v - ref) / (ref or 1.0) for v, ref in zip(exact, sp))
    summary = {"feasible": True, **_verify_summary(found, pipe.P.n)}
    return 0 if summary["all_passed"] else 1, {"verify_summary.json": summary}


# the series plotdata writes
SERIES = ("spectrum", "phi_profile", "sep_vs_survival", "absorption_pmf")


def cmd_plotdata(cfg, opts):
    series = opts.get("series")
    if not series:
        raise errors.ConfigError("plotdata needs --series or options.series")
    rows = []
    if series == "spectrum":
        params = build_chain(cfg).bands
        if params is None:
            raise errors.ConfigError("spectrum series needs a birth-death chain")
        spec = spectra.bd_spectrum(params)
        rows = [(str(k), series, spec.eigenvalues[k]) for k in range(spec.n)]
    elif series == "phi_profile":
        pipe = gated_pipeline(cfg, opts)
        rows = [(str(x), series, pipe.res.phi[x]) for x in range(pipe.P.n)]
    elif series in ("sep_vs_survival", "absorption_pmf"):
        pipe = gated_pipeline(cfg, opts)
        sharp = pipe.gated_sharpness(opts.get("n_max", 50))
        if series == "sep_vs_survival":
            for n, sep, surv in sharp.table:
                rows.append((str(int(n)), "separation", sep))
                rows.append((str(int(n)), "survival", surv))
        else:
            ex = stationary_times.absorption_exact(pipe.res.p_tilde, pipe.pt0, sharp.boundary)
            rows = [(str(n), series, ex.pmf[n]) for n in range(ex.n_max + 1)]
    else:
        raise errors.ConfigError(
            f"unknown series {series!r}; the series are {', '.join(SERIES)}")
    return 0, {"series.csv": (["n", "series", "value"], rows)}


# Each handler maps (cfg, opts) to (exit code, {file name: body}), a body
# being a summary dict, a matrix or a (header, rows) table; it writes nothing.
HANDLERS = {
    "build": cmd_build,
    "dual": cmd_dual,
    "intertwine": cmd_intertwine,
    "spectrum": cmd_spectrum,
    "ssd": cmd_ssd,
    "simulate": cmd_simulate,
    "cutoff": cmd_cutoff,
    "verify": cmd_verify,
    "plotdata": cmd_plotdata,
}

# command-line flags that override the config's options
FLAG_OPTIONS = {"seed": "seed", "nmax": "n_max", "trials": "trials", "series": "series"}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualchain",
        description="Duality, intertwining and strong stationary times "
        "for finite Markov chains.",
    )
    ap.add_argument("command", choices=HANDLERS)
    ap.add_argument("--config", required=True, help="path to a JSON chain config")
    ap.add_argument("--out", default=".", help="output directory (default: cwd)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--nmax", type=int, default=None)
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--series", default=None, help="plotdata series name")
    return ap


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = load_config(args.config)
    flags = {key: getattr(args, flag) for flag, key in FLAG_OPTIONS.items()
             if getattr(args, flag) is not None}
    if isinstance(cfg, dict) and isinstance(cfg.get("options", {}), dict):
        cfg["options"] = {**cfg.get("options", {}), **flags}
    check_config(cfg)
    opts = cfg["options"]
    try:
        code, files = HANDLERS[args.command](cfg, opts)
    except Infeasible as e:
        summary = INFEASIBLE[args.command]
        code, files = 2, {} if summary is None else {
            f"{args.command}_summary.json": summary(e.args[0])}
    # every file is rendered before the first is written, so a command or a
    # rendering that raises leaves no output behind
    texts = {name: _render(body) for name, body in files.items()}
    if texts:
        os.makedirs(args.out, exist_ok=True)
    for name, text in texts.items():
        _atomic_write(os.path.join(args.out, name), text)
    return code


def main() -> None:
    try:
        sys.exit(run())
    except Exception as e:  # library errors and, with their location, genuine bugs
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
