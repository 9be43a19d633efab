import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualchain
from dualchain import cli, coupling, duals, errors, intertwining, kernels, stationary_times
from dualchain.chains import moran_kernel, mutation_bias
from dualchain.cli import main, run
from dualchain.samplers import random_monotone_kernel
from dualchain.spectra import bd_spectrum

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# dense monotone chain that is not reversible: the link intertwines the
# hidden chain with its time reversal, not with the chain itself
NON_REVERSIBLE = {
    "kind": "dense",
    "matrix": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]],
    "dual": {"family": "siegmund"},
    "options": {"n_max": 60, "trials": 20000, "seed": 5},
}


def _run(command, config, out, *extra):
    return run([command, "--config", str(CONFIGS / config), "--out", str(out), *extra])


def _run_cfg(command, cfg, out, *extra):
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    return run([command, "--config", str(path), "--out", str(out), *extra])


def _load_matrix(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_build_writes_kernel(tmp_path):
    assert _run("build", "chain_a.json", tmp_path) == 0
    m = _load_matrix(tmp_path / "kernel.csv")
    np.testing.assert_array_equal(m, [[0.7, 0.3], [0.2, 0.8]])
    summary = json.loads((tmp_path / "build_summary.json").read_text())
    assert summary["n"] == 2
    assert summary["irreducible"]


def test_build_round_trip_is_bit_exact(tmp_path):
    _run("build", "chain_b.json", tmp_path)
    m = _load_matrix(tmp_path / "kernel.csv")
    # %.17g rendering reproduces the doubles exactly
    assert m[1, 0] == 0.1 and m[1, 2] == 0.3


def test_dual_chain_a(tmp_path):
    assert _run("dual", "chain_a.json", tmp_path) == 0
    d = _load_matrix(tmp_path / "dual.csv")
    np.testing.assert_allclose(d, [[0.5, 0.2], [0.0, 1.0]], atol=1e-15)
    summary = json.loads((tmp_path / "dual_summary.json").read_text())
    assert summary["feasible"]


def test_dual_rejects_non_monotone(tmp_path):
    assert _run("dual", "non_monotone.json", tmp_path) == 2
    summary = json.loads((tmp_path / "dual_summary.json").read_text())
    assert not summary["feasible"]
    assert summary["violations"]


ULTRAMETRIC = {
    "kind": "dense",
    "matrix": random_monotone_kernel(np.random.default_rng(0), 6).tolist(),
    "dual": {"family": "ultrametric", "k": 2, "alpha": 0.5, "beta": 0.0},
}


@pytest.mark.parametrize("config", [
    *(path.name for path in sorted(CONFIGS.glob("*.json")) if path.stem != "non_monotone"),
    ULTRAMETRIC,
], ids=lambda config: config if isinstance(config, str) else "ultrametric")
def test_dual_residual_is_the_pipeline_gate(tmp_path, config):
    # the residual `dual` writes is the one build_intertwining gates, bit for bit
    cfg = config if isinstance(config, dict) else json.loads((CONFIGS / config).read_text())
    assert _run_cfg("dual", cfg, tmp_path) == 0
    residual = json.loads((tmp_path / "dual_summary.json").read_text())["residual"]
    P = cli.build_chain(cfg)
    H, rep = cli.build_dual(cfg, P)
    res = intertwining.build_intertwining(P, H, rep.dual)
    assert residual == res.diagnostics["duality"]["static"]


def test_intertwine_chain_b(tmp_path):
    assert _run("intertwine", "chain_b.json", tmp_path) == 0
    for name in ("link.csv", "p_tilde.csv", "k_map.csv", "phi.csv"):
        assert (tmp_path / name).exists()
    phi = np.loadtxt(tmp_path / "phi.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(phi[:, 1], [1 / 6, 1 / 2, 1.0], atol=1e-12)
    np.testing.assert_allclose(phi[:, 2], [1 / 6, 1 / 3, 1 / 2], atol=1e-12)


def test_intertwine_writes_nothing_when_a_residual_fails(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise errors.DualChainError("residual failed")

    monkeypatch.setattr(intertwining, "identity_residuals", boom)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(errors.DualChainError):
        _run("intertwine", "chain_b.json", out)
    assert list(out.iterdir()) == []


def test_a_summary_that_fails_to_render_writes_nothing(tmp_path, monkeypatch):
    # ssd.csv renders first; rendering ssd_summary.json then raises
    def boom(obj):
        raise TypeError("summary does not render")

    monkeypatch.setattr(cli, "_plain", boom)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(TypeError, match="summary does not render"):
        _run("ssd", "chain_b.json", out)
    assert list(out.iterdir()) == []


def test_intertwine_exit_2_when_infeasible(tmp_path):
    assert _run("intertwine", "non_monotone.json", tmp_path) == 2
    summary = json.loads((tmp_path / "intertwine_summary.json").read_text())
    assert not summary["feasible"]


def test_spectrum_moran(tmp_path):
    assert _run("spectrum", "moran_hypergeometric.json", tmp_path) == 0
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    params = moran_kernel(6, mutation_bias(0.3, 0.2, 6))
    np.testing.assert_allclose(rows[:, 1], bd_spectrum(params).eigenvalues, atol=1e-10)
    assert rows[:, 2].sum() == pytest.approx(1.0, abs=1e-9)
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["gap"] == pytest.approx(0.5 / 6, abs=1e-12)


def test_a_bd_chain_with_a_vanishing_interior_step_is_refused_where_pi_is_needed(
        tmp_path, monkeypatch, capsys):
    # the record builds, as the same chain given as a moran config does
    cfg = {"kind": "bd", "p": [0.3, 0.0, 0.0], "q": [0.0, 0.1, 0.2]}
    assert _run_cfg("build", cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "build_summary.json").read_text())
    assert not summary["irreducible"] and "stationary" not in summary
    monkeypatch.setattr("sys.argv", ["dualchain", "ssd", "--config", str(tmp_path / "config.json"),
                                     "--out", str(tmp_path / "ssd")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "error: NotIrreducibleError: kernel is not irreducible: n = 3 states, "
        "no link both ways between x = 1 and x + 1\n")
    assert not (tmp_path / "ssd").exists()


def test_spectrum_and_its_plotdata_series_write_the_same_eigenvalues(tmp_path):
    # bit for bit (%.17g re-reads exactly), on every birth-death config; the
    # gap and the least eigenvalue of spectrum_summary.json read the same t_k
    configs = [c for c in sorted(CONFIGS.glob("*.json"))
               if cli.build_chain(json.loads(c.read_text())).bands is not None]
    assert len(configs) == 5
    for config in configs:
        spectrum, series = tmp_path / config.stem / "spectrum", tmp_path / config.stem / "series"
        assert _run("spectrum", config.name, spectrum) == 0
        assert _run("plotdata", config.name, series, "--series", "spectrum") == 0
        t = [row.split(",")[1] for row in (spectrum / "spectrum.csv").read_text().splitlines()[1:]]
        assert t == [row.split(",")[2]
                     for row in (series / "series.csv").read_text().splitlines()[1:]], config.stem
        summary = json.loads((spectrum / "spectrum_summary.json").read_text())
        assert summary["gap"] == 1.0 - float(t[1]) and summary["min_eigenvalue"] == float(t[-1])


def test_spectrum_needs_bd_chain(tmp_path):
    with pytest.raises(errors.ConfigError, match="spectrum needs a birth-death chain"):
        _run_cfg("spectrum", NON_REVERSIBLE, tmp_path)


def test_a_tridiagonal_dense_chain_is_a_birth_death_chain(tmp_path):
    dense, bd = tmp_path / "dense", tmp_path / "bd"
    dense.mkdir()
    bd.mkdir()
    assert _run("spectrum", "non_monotone.json", dense) == 0
    cfg = {"kind": "bd", "p": [0.9, 0.0], "q": [0.0, 0.8], "r": [0.1, 0.2]}
    assert _run_cfg("spectrum", cfg, bd) == 0
    assert (dense / "spectrum.csv").read_bytes() == (bd / "spectrum.csv").read_bytes()
    assert not json.loads((dense / "spectrum_summary.json").read_text())["monotone"]

    chain_a = json.loads((CONFIGS / "chain_a.json").read_text())
    cfg = {**chain_a, "kind": "dense", "matrix": [[0.7, 0.3], [0.2, 0.8]]}
    del cfg["p"], cfg["q"]
    assert _run_cfg("ssd", cfg, dense) == 0
    assert _run("ssd", "chain_a.json", bd) == 0
    for name in ("ssd.csv", "ssd_summary.json"):
        assert (dense / name).read_bytes() == (bd / name).read_bytes()
    assert "mean_spectral" in json.loads((dense / "ssd_summary.json").read_text())


def test_ssd_chain_a(tmp_path):
    assert _run("ssd", "chain_a.json", tmp_path) == 0
    table = np.loadtxt(tmp_path / "ssd.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(table[:, 1], 0.5 ** table[:, 0], atol=1e-12)
    np.testing.assert_allclose(table[:, 2], 0.5 ** table[:, 0], atol=1e-12)
    summary = json.loads((tmp_path / "ssd_summary.json").read_text())
    assert summary["sharp"] and summary["boundary"] == 1 and summary["witness"] == 1
    assert summary["mean"] == pytest.approx(2.0, abs=1e-9)
    assert summary["mean_spectral"] == pytest.approx(2.0, abs=1e-12)


def test_ssd_moran_hypergeometric(tmp_path):
    assert _run("ssd", "moran_hypergeometric.json", tmp_path) == 0
    summary = json.loads((tmp_path / "ssd_summary.json").read_text())
    assert summary["boundary"] == 0
    assert summary["witness"] == 6
    assert summary["sharp"]
    assert summary["max_gap"] <= 1e-9


def test_simulate_chain_a(tmp_path):
    assert _run("simulate", "chain_a.json", tmp_path) == 0
    summary = json.loads((tmp_path / "simulate_summary.json").read_text())
    assert summary["ok"]
    assert summary["n_paths"] == 20000
    assert summary["seed"] == 7
    assert len(summary["fingerprint"]) == 64
    assert len(summary["trajectory_digest"]) == 64
    assert (tmp_path / "empirical.csv").exists()


def test_simulate_reproducible_output(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    _run("simulate", "chain_a.json", d1)
    _run("simulate", "chain_a.json", d2)
    assert (d1 / "empirical.csv").read_bytes() == (d2 / "empirical.csv").read_bytes()
    digests = [json.loads((d / "simulate_summary.json").read_text())["trajectory_digest"]
               for d in (d1, d2)]
    assert digests[0] == digests[1]


def test_simulate_seed_override_changes_output(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    _run("simulate", "chain_a.json", d1)
    _run("simulate", "chain_a.json", d2, "--seed", "8")
    s2 = json.loads((d2 / "simulate_summary.json").read_text())
    assert s2["seed"] == 8
    assert (d1 / "empirical.csv").read_bytes() != (d2 / "empirical.csv").read_bytes()
    s1 = json.loads((d1 / "simulate_summary.json").read_text())
    assert s1["trajectory_digest"] != s2["trajectory_digest"]


def test_simulate_takes_the_schemas_largest_seed(tmp_path):
    # 2**64 - 1 is the largest seed CONFIG_SCHEMA admits
    top = str(2**64 - 1)
    summaries = []
    for name, seed in (("r1", top), ("r2", top), ("r0", "0")):
        d = tmp_path / name
        d.mkdir()
        assert _run("simulate", "chain_a.json", d, "--seed", seed) == 0
        summaries.append(json.loads((d / "simulate_summary.json").read_text()))
    assert summaries[0]["seed"] == 2**64 - 1
    assert summaries[0]["rng"] == coupling.BIT_GENERATOR.__name__ == "SFC64"
    digests = [s["trajectory_digest"] for s in summaries]
    assert digests[0] == digests[1] != digests[2]


def test_cutoff_sweep(tmp_path):
    assert _run("cutoff", "cutoff_sweep.json", tmp_path) == 0
    rows = np.loadtxt(tmp_path / "cutoff.csv", delimiter=",", skiprows=1)
    for N, mean in zip(rows[:, 0], rows[:, 1]):
        harmonic = np.sum(1.0 / np.arange(1, int(N) + 1))
        assert mean == pytest.approx(N * harmonic, rel=1e-9)
    # mean/asymptote ratio settles toward 1 as N grows
    assert abs(rows[-1, 5] - 1.0) < abs(rows[0, 5] - 1.0)
    summary = json.loads((tmp_path / "cutoff_summary.json").read_text())
    assert summary["cutoff_flag"]


def test_cutoff_of_a_sweep_from_n_1(tmp_path):
    # N = 1 has log N + log a = 0 at a = 1: no asymptote to compare with
    cfg = {"kind": "moran_mutation", "N": 1, "a1": 0.5, "a2": 0.5,
           "options": {"sweep": [1, 2, 4]}}
    assert _run_cfg("cutoff", cfg, tmp_path) == 0
    rows = np.loadtxt(tmp_path / "cutoff.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [1, 2, 4]
    assert np.isnan(rows[0, 5]) and np.isfinite(rows[1:, 5]).all()


def test_cutoff_requires_moran_mutation(tmp_path):
    with pytest.raises(errors.ConfigError):
        _run("cutoff", "chain_a.json", tmp_path)


@pytest.mark.parametrize("change, error", [
    ({"a1": None}, "ConfigError: moran_mutation needs N, a1, a2"),
    ({"a1": 1.5}, "InvalidBiasError: mutation rates must lie in [0, 1]"),
], ids=["no_a1", "a1_above_1"])
def test_cutoff_checks_the_chain_like_every_command(tmp_path, change, error):
    # cutoff once read a1 and a2 unchecked: a KeyError without a1, and a
    # cutoff.csv for a1 = 1.5, a chain that does not exist
    cfg = json.loads((CONFIGS / "cutoff_sweep.json").read_text())
    cfg.update(change)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(errors.DualChainError) as info:
        run(["cutoff", "--config", str(tmp_path / "config.json"), "--out", str(out)])
    assert f"{type(info.value).__name__}: {info.value}" == error
    assert list(out.iterdir()) == []


def test_verify_chain_b_all_green(tmp_path):
    assert _run("verify", "chain_b.json", tmp_path) == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["feasible"] and summary["all_passed"]
    for key in (
        "dual_nonnegative",
        "duality_static",
        "duality_dynamic",
        "harmonic_fixed_point",
        "link_intertwining",
        "k_duality",
        "boundary_rows_carry_pi",
        "trace_match",
        "separation_dominated_by_survival",
        "sharp_equality",
        "absorption_agreement",
    ):
        assert summary["checks"][key]["passed"], key


def test_verify_cutoff_sweep_all_green(tmp_path):
    # K = H / phi reaches 1.3e30 at N = 100; K Ptilde' - P K formed from
    # products read 1.1e12 there, rounding of entries that size, where
    # |E| / phi reads 4.6e-4 and its scaled form eps
    assert _run("verify", "cutoff_sweep.json", tmp_path) == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["all_passed"]
    assert summary["checks"]["k_duality"]["value"] <= 1e-14


MORAN_30 = {"kind": "moran_mutation", "N": 30, "a1": 0.5, "a2": 0.5,
            "dual": {"family": "siegmund"}}


def _handing_on(monkeypatch, module, name, change):
    """Patch ``module.name`` to return ``change`` of what it returns."""
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: change(f(*a, **k)))


def _dual_changed(change):
    """A build_dual whose dual is a copy that ``change`` edits in place."""
    def changed(out):
        H, rep = out
        d = np.array(rep.dual)
        change(d)
        return H, dataclasses.replace(rep, dual=d)
    return lambda mp: _handing_on(mp, cli, "build_dual", changed)


def _dual_moved(rows, mass, to=lambda y: y - 1):
    """A build_dual that moves ``mass`` from Phat(y, y) to Phat(y, to(y)) in
    each of ``rows``, by default one state down: rows keep their sums."""
    def change(d):
        for y in rows:
            d[y, y] -= mass
            d[y, to(y)] += mass
    return _dual_changed(change)


def _dual_rows(rows):
    """A build_dual whose rows y of ``rows`` read {column: entry} instead."""
    def change(d):
        for y, entries in rows.items():
            d[y] = 0.0
            for column, entry in entries.items():
                d[y, column] = entry
    return _dual_changed(change)


def _hidden_moved(xs, y, mass):
    """A build_intertwining that moves ``mass`` from Ptilde(x, x) to
    Ptilde(x, y) in each row x of ``xs``."""
    def change(res):
        pt = np.array(res.p_tilde)
        pt[xs, xs] -= mass
        pt[xs, y] += mass
        return dataclasses.replace(res, p_tilde=pt)
    return lambda mp: _handing_on(mp, intertwining, "build_intertwining", change)


def _link_moved(x, mass):
    """A build_intertwining that moves ``mass`` from Lambda(x, x) to
    Lambda(x, 0): its rows stay laws, and a moved boundary row no longer
    carries pi within SHARP_TOL, so the sharpness stage refuses it."""
    def change(res):
        link = res.link.copy()
        link[x, x] -= mass
        link[x, 0] += mass
        return dataclasses.replace(res, link=link)
    return lambda mp: _handing_on(mp, intertwining, "build_intertwining", change)


def test_verify_writes_a_non_finite_value_as_null(tmp_path, monkeypatch):
    # a sharpness stage that refuses its input records the value nan, which
    # json.dumps once wrote as the bare token NaN
    _link_moved(2, 2e-9)(monkeypatch)
    assert _run("verify", "chain_b.json", tmp_path) == 1

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    text = (tmp_path / "verify_summary.json").read_text()
    check = json.loads(text, parse_constant=reject)["checks"]["separation_dominated_by_survival"]
    assert check == {"value": None, "passed": False,
                     "detail": "no absorbing state carries pi in the link"}


def test_verify_k_duality_catches_corrupt_k(tmp_path, monkeypatch):
    # 2e-11 of the hypergeometric dual's mass moved from Phat(1, 1) to
    # Phat(1, 0): |E| / (P H + H dual') reads 3e-10 on K Ptilde' = P K,
    # while the duality residual itself (2e-11), the harmonic one and the
    # link reading (8.4e-12) stay below their gates
    config, corrupt = FAILING_INPUTS["k_duality"]
    corrupt(monkeypatch)
    code, summary = _verify(config, tmp_path)
    checks = summary["checks"]
    assert code == 1 and [k for k, c in checks.items() if not c["passed"]] == ["k_duality"]
    assert checks["k_duality"]["value"] == pytest.approx(3e-10, rel=0.05)
    assert checks["duality_static"]["value"] == pytest.approx(2e-11, rel=0.01)


def test_verify_link_catches_a_dual_the_duality_gate_passes(tmp_path, monkeypatch):
    # 2e-11 moved from Phat(6, 6) to Phat(6, 0): the link weighs E(x, 0)
    # by pi(x) / phi(6), and reads 1.6e-10.  K Ptilde' = P K fails with it:
    # the move reaches entries (x, 6) where P H and H dual' were 0, so |E|
    # equals its scale there
    config, corrupt = FAILING_INPUTS["link_intertwining"]
    corrupt(monkeypatch)
    code, summary = _verify(config, tmp_path)
    checks = summary["checks"]
    failed = [k for k, c in checks.items() if not c["passed"]]
    assert code == 1 and failed == ["k_duality", "link_intertwining"]
    assert checks["link_intertwining"]["value"] == pytest.approx(1.6e-10, rel=0.05)
    assert checks["duality_static"]["value"] == pytest.approx(2e-11, rel=0.01)


def test_verify_trace_match_catches_moved_diagonal_mass(tmp_path, monkeypatch):
    # 1e-6 of mass from Ptilde(x, x) to Ptilde(x, x+1) at x = N/2: rows stay
    # stochastic, tr(Ptilde) moves by 1e-6, above the gate 3.1e-7 of n = 31
    _hidden_moved([15], 16, 1e-6)(monkeypatch)
    assert _run_cfg("verify", MORAN_30, tmp_path) == 1
    checks = json.loads((tmp_path / "verify_summary.json").read_text())["checks"]
    # verify computes the sharpness table and the exact moments from the
    # corrupted Ptilde, so these fail as well; the link and K readings were
    # taken off the duality residual before the move.  Separation exceeds
    # survival under a witness, so the excess is the largest gap
    failed = [k for k, c in checks.items() if not c["passed"]]
    assert failed == ["absorption_agreement", "separation_dominated_by_survival",
                      "sharp_equality", "trace_match"]
    assert checks["sharp_equality"] == checks["separation_dominated_by_survival"]
    assert checks["trace_match"]["value"] == pytest.approx(1e-6, rel=1e-6)


def test_absorption_agreement_measures_a_zero_reference_absolutely(tmp_path, monkeypatch):
    # at Moran (1, .5, .5) the one eigenvalue below 1 is 0, so the spectral
    # variance is exactly 0; a wrong variance must not pass as a relative
    # gap of 0
    monkeypatch.setattr(stationary_times, "hitting_moments", lambda *a: (1.0, 0.5))
    cfg = {"kind": "moran_mutation", "N": 1, "a1": 0.5, "a2": 0.5,
           "dual": {"family": "siegmund"}}
    assert _run_cfg("verify", cfg, tmp_path) == 1
    checks = json.loads((tmp_path / "verify_summary.json").read_text())["checks"]
    assert [k for k, c in checks.items() if not c["passed"]] == ["absorption_agreement"]
    assert checks["absorption_agreement"]["value"] == 0.5


def test_verify_duality_gates_catch_a_bad_dual(tmp_path, monkeypatch):
    # 5e-10 of mass from Phat(1, 1) to Phat(1, 0): build_intertwining hands
    # the residual on, and verify files it against RESID_TOL
    _dual_moved([1], 5e-10)(monkeypatch)
    assert _run_cfg("verify", MORAN_30, tmp_path) == 1
    checks = json.loads((tmp_path / "verify_summary.json").read_text())["checks"]
    assert not checks["duality_static"]["passed"]
    assert checks["duality_static"]["value"] == pytest.approx(5e-10, rel=1e-3)

    assert _run_cfg("verify", MORAN_30, tmp_path, "--nmax", "7") == 1
    checks = json.loads((tmp_path / "verify_summary.json").read_text())["checks"]
    P = cli.build_chain(MORAN_30)
    H, rep = cli.build_dual(MORAN_30, P)           # the corrupted dual
    assert checks["duality_dynamic"]["value"] == duals.verify_duality(
        P, H, rep.dual, n_max=7)["dynamic"]


MORAN_20 = {**MORAN_30, "N": 20}
# 5e-11 of every transient row of P~ moved onto the boundary N = 20: the
# link residual stays below its gate, but the hidden chain arrives early
EARLY_ARRIVAL = _hidden_moved(range(20), 20, 5e-11)

# for each check of verify, a config and a corruption of a chain, a dual or
# a result a stage hands on that fails it.  A check added to VERIFY_CHECKS
# without an entry here fails the test below.
FAILING_INPUTS = {
    "dual_nonnegative": ("non_monotone.json", lambda mp: None),
    # 1e-7 of P^ mass moved in row 29: the stage hands the residual on
    "duality_static": (MORAN_30, _dual_moved([29], 1e-7)),
    # 5e-10 moved in every transient row: over 20 steps the moves add up to
    # 1.4e-9
    "duality_dynamic": (MORAN_30, _dual_moved(range(1, 30), 5e-10)),
    # 1e-8 moved in row 20: phi reads 2.8e-10 off harmonic, and P~ stays
    # stochastic
    "harmonic_fixed_point": (MORAN_30, _dual_moved([20], 1e-8)),
    # the states 29 and 30 of the dual a closed class that exchanges 1e-7
    # each way: phi is harmonic within 1e-16 there but reads pi(30) / 2 =
    # 4.7e-10 off its mean
    "phi_constant_on_classes": (MORAN_30, _dual_rows(
        {29: {29: 1 - 1e-7, 30: 1e-7}, 30: {29: 1e-7, 30: 1 - 1e-7}})),
    # 2e-11 of the hypergeometric dual's mass moved from Phat(6, 6) to
    # Phat(6, 0): the link reads 1.6e-10, the duality residual 2e-11
    "link_intertwining": ("moran_hypergeometric.json", _dual_moved([6], 2e-11, lambda y: 0)),
    # 2e-11 moved from Phat(1, 1) to Phat(1, 0): only k_duality fails
    "k_duality": ("moran_hypergeometric.json", _dual_moved([1], 2e-11, lambda y: 0)),
    # a dual absorbing at 15, whose link row is pi on 0..15 renormalised
    "boundary_rows_carry_pi": (MORAN_30, _dual_rows({15: {15: 1.0}})),
    "trace_match": (MORAN_30, _hidden_moved([15], 16, 1e-6)),
    "separation_dominated_by_survival": (MORAN_20, EARLY_ARRIVAL),
    "sharp_equality": (MORAN_20, EARLY_ARRIVAL),
    "absorption_agreement": (MORAN_30, lambda mp: _handing_on(
        mp, stationary_times, "hitting_moments", lambda mv: (mv[0] * (1 + 2e-8), mv[1]))),
}


def _verify(config, out):
    """The exit code and summary of verify on a shipped config or a dict."""
    cfg = json.loads((CONFIGS / config).read_text()) if isinstance(config, str) else config
    code = _run_cfg("verify", cfg, out)
    return code, json.loads((out / "verify_summary.json").read_text())


@pytest.mark.parametrize("name", cli.VERIFY_CHECKS)
def test_each_verify_check_fails_on_an_input_built_to_fail_it(tmp_path, monkeypatch, name):
    config, corrupt = FAILING_INPUTS[name]
    corrupt(monkeypatch)
    code, summary = _verify(config, tmp_path)
    assert code == (2 if name == "dual_nonnegative" else 1)
    assert summary["checks"][name]["passed"] is False
    assert not summary["all_passed"]


@pytest.mark.parametrize("cfg, corrupt, message", [
    (MORAN_30, FAILING_INPUTS["duality_static"][1],
     "duality_static (stage build_intertwining) reads 1e-07, above its gate 1e-10"),
    (MORAN_20, EARLY_ARRIVAL, "separation_dominated_by_survival (stage verify_sharpness) "
                              "reads 2.13e-09, above its gate 1e-09"),
], ids=["duality_static", "separation_dominated_by_survival"])
def test_ssd_refuses_by_the_check_it_relies_on(tmp_path, monkeypatch, capsys, cfg, corrupt,
                                               message):
    # the inputs that fail these checks of verify: ssd gates the same
    # reading through the same table, names it and writes nothing
    corrupt(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr("sys.argv", ["dualchain", "ssd", "--config", str(path),
                                     "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: CheckFailedError: {message}\n"
    assert not (tmp_path / "out").exists()


def test_verify_files_phi_off_constant_on_a_class_rather_than_raising(tmp_path):
    # at Moran (100, 1e-9, 1e-9) the dual's states 0..99 pass as one
    # mass-conserving class, as each of its rows leaks at most 1e-9, within
    # EPS_STOCH; phi = Pi reads 2.6e-7 off its mean there.  The stage once
    # raised with the 100 states and verify wrote nothing; ROADMAP item 13
    # is to mend the reading itself
    cfg = {**MORAN_30, "N": 100, "a1": 1e-9, "a2": 1e-9}
    code, summary = _verify(cfg, tmp_path)
    assert code == 1
    check = summary["checks"]["phi_constant_on_classes"]
    assert not check["passed"] and check["value"] == pytest.approx(2.6e-7, rel=0.01)


# runs of verify and the checks each skips: the shipped configs, Moran
# (30, .1, .1), a dense chain, a start other than 0, a sharpness stage that
# refuses a boundary row that does not carry pi, and a run without a witness
# state
MORAN_30_1 = {**MORAN_30, "a1": 0.1, "a2": 0.1}
SKIPPED = {
    "chain_a.json": {}, "chain_b.json": {}, "cutoff_sweep.json": {},
    "dense_monotone.json": {"absorption_agreement": "the chain is not birth-death"},
    "moran_hypergeometric.json": {
        "absorption_agreement": "the hidden chain runs from 6 to 0, not from 0 to N = 6"},
    "non_monotone.json": {name: "the dual is infeasible"
                          for name in cli.VERIFY_CHECKS if name != "dual_nonnegative"},
    "moran_30": {},
    "non_reversible": {"absorption_agreement": "the chain is not birth-death"},
    "start_1": {"absorption_agreement":
                "the hidden chain runs from 1 to 30, not from 0 to N = 30"},
    "sharpness_raises": {"absorption_agreement":
                         "the sharpness stage raised, so no boundary is known"},
    "no_witness": {"sharp_equality": "no witness state, so separation need not equal survival"},
}
RUN_CONFIGS = {"moran_30": MORAN_30_1, "non_reversible": NON_REVERSIBLE,
               "start_1": {**MORAN_30_1, "options": {"start": 1}},
               "sharpness_raises": MORAN_30_1, "no_witness": MORAN_30_1}


@pytest.mark.parametrize("run_name", SKIPPED)
def test_verify_names_each_check_once(tmp_path, monkeypatch, run_name):
    if run_name == "sharpness_raises":
        _link_moved(30, 2e-9)(monkeypatch)
    if run_name == "no_witness":
        _handing_on(monkeypatch, stationary_times, "verify_sharpness",
                    lambda rep: dataclasses.replace(rep, witness=None, sharp=False))
    code, summary = _verify(RUN_CONFIGS.get(run_name, run_name), tmp_path)
    checks, skipped = summary["checks"], summary["skipped"]
    assert sorted([*checks, *skipped]) == sorted(cli.VERIFY_CHECKS)
    assert skipped == SKIPPED[run_name]
    assert summary["all_passed"] == all(c["passed"] for c in checks.values())
    assert code == {"non_monotone.json": 2, "sharpness_raises": 1}.get(run_name, 0)


@pytest.mark.parametrize("config", ["chain_b.json", MORAN_30], ids=["chain_b", "moran30"])
@pytest.mark.parametrize("args", [
    ["ssd"], ["simulate"], ["plotdata", "--series", "phi_profile"],
    ["plotdata", "--series", "sep_vs_survival"], ["plotdata", "--series", "absorption_pmf"],
], ids=lambda args: args[-1])
def test_commands_that_write_no_identity_residual_compute_none(
        tmp_path, monkeypatch, config, args):
    # the trace comparison and the hitting solves of the phi decomposition
    # are computed only for intertwine and verify, which write or gate them;
    # no command but simulate, whose coupled kernel is built from the two
    # products, measures the link from products
    def boom(*a, **k):
        raise AssertionError("identity residual computed")

    monkeypatch.setattr(intertwining, "spectrum_equivalence", boom)
    monkeypatch.setattr(kernels, "hitting_probabilities", boom)
    if args[0] != "simulate":
        monkeypatch.setattr(kernels, "link_residual", boom)
    if isinstance(config, dict):
        assert _run_cfg(*args[:1], config, tmp_path, *args[1:]) == 0
    else:
        assert _run(args[0], config, tmp_path, *args[1:]) == 0


@pytest.mark.parametrize("config", ["chain_b.json", "moran_hypergeometric.json"])
def test_verify_solves_no_hitting_system(tmp_path, monkeypatch, config):
    # the phi decomposition is written by intertwine alone: verify gates no
    # reading of its hitting solves, so it makes none
    def boom(*a, **k):
        raise AssertionError("hitting solve computed")

    monkeypatch.setattr(kernels, "hitting_probabilities", boom)
    assert _run("verify", config, tmp_path) == 0


MORAN_10 = {"kind": "moran_mutation", "N": 10, "a1": 0.5, "a2": 0.5,
            "dual": {"family": "siegmund"}}


@pytest.mark.parametrize("config", ["chain_b.json", MORAN_10],
                         ids=["chain_b", "moran_mutation_10"])
@pytest.mark.parametrize("args", [
    ["ssd"], ["simulate"], ["build"], ["dual"], ["intertwine"], ["verify"],
    ["plotdata", "--series", "absorption_pmf"],
], ids=lambda args: args[0])
def test_cli_import_leaves_out_unused_scipy(tmp_path, config, args):
    # the import loads no SciPy module, and a run loads neither scipy.linalg
    # nor jsonschema: numpy's LAPACK takes the small solves and the config
    # check is built in.  Only spectrum needs SciPy (eigenvectors).
    code = ("import sys, dualchain.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.signal') "
            "if m in sys.modules]); "
            "assert dualchain.cli.run(sys.argv[1:]) == 0; "
            "print([m for m in ('scipy.linalg', 'jsonschema') if m in sys.modules])")
    src = str(Path(dualchain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = CONFIGS / config
    argv = [*args, "--config", str(path), "--out", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, check=True, env=env, timeout=120)
    assert out.stdout.split() == ["[]", "[]"]


def test_verify_infeasible_exit_2(tmp_path):
    assert _run("verify", "non_monotone.json", tmp_path) == 2
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert not summary["feasible"] and not summary["all_passed"]
    # the dual's worst entry is F(0, 0) - F(1, 0) = 0.1 - 0.8
    assert summary["checks"] == {"dual_nonnegative": {"value": pytest.approx(0.7),
                                                      "passed": False}}
    assert summary["skipped"] == {name: "the dual is infeasible"
                                  for name in cli.VERIFY_CHECKS if name != "dual_nonnegative"}


def test_plotdata_series(tmp_path):
    for series in ("spectrum", "phi_profile", "sep_vs_survival", "absorption_pmf"):
        out = tmp_path / series
        out.mkdir()
        cfg = "chain_b.json" if series in ("spectrum", "phi_profile") else "chain_a.json"
        assert _run("plotdata", cfg, out, "--series", series) == 0
        assert (out / "series.csv").exists()
    phi = np.loadtxt(
        tmp_path / "phi_profile" / "series.csv",
        delimiter=",", skiprows=1, usecols=(0, 2),
    )
    np.testing.assert_allclose(phi[:, 1], [1 / 6, 1 / 2, 1.0], atol=1e-12)
    pmf = np.loadtxt(
        tmp_path / "absorption_pmf" / "series.csv",
        delimiter=",", skiprows=1, usecols=(0, 2),
    )
    n = pmf[1:, 0]
    np.testing.assert_allclose(pmf[1:, 1], 0.5**n, atol=1e-12)


def test_plotdata_unknown_series(tmp_path):
    with pytest.raises(errors.ConfigError, match="'wat'; the series are spectrum, phi_profile, "
                                                 "sep_vs_survival, absorption_pmf$"):
        _run("plotdata", "chain_a.json", tmp_path, "--series", "wat")


def test_config_schema_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "unheard-of"}))
    with pytest.raises(errors.ConfigError,
                       match=r"at \$\.kind: 'unheard-of' is not one of \['dense', "):
        run(["build", "--config", str(bad), "--out", str(tmp_path)])


@pytest.mark.parametrize("command, flag, value, path", [
    ("simulate", "--trials", "0", "$.options.trials"),
    ("ssd", "--nmax", "0", "$.options.n_max"),
    ("verify", "--nmax", "-3", "$.options.n_max"),
    ("simulate", "--seed", "-1", "$.options.seed"),
    ("simulate", "--seed", str(2**64), "$.options.seed"),
])
def test_flags_are_checked_against_the_schema(tmp_path, command, flag, value, path):
    # each flag once skipped the schema: nan frequencies, an IndexError, a
    # ValueError from the RNG
    with pytest.raises(errors.ConfigError, match=re.escape(f"at {path}:")):
        _run(command, "chain_a.json", tmp_path, flag, value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, entry, path", [
    ("ssd", {"options": {"n_max": 50.0}}, "$.options.n_max"),
    ("simulate", {"options": {"trials": 100.0}}, "$.options.trials"),
    ("ssd", {"options": {"start": 1.0}}, "$.options.start"),
    ("intertwine", {"dual": {"family": "ultrametric", "k": 2.0, "alpha": 0.5, "beta": 0.0}},
     "$.dual.k"),
    ("build", {"N": 10.0}, "$.N"),
])
def test_integral_floats_are_not_integers(tmp_path, command, entry, path):
    # JSON Schema counts 50.0 as an integer: these once passed the schema and
    # ended in a TypeError or an IndexError, and N = 10.0 ran
    cfg = {"kind": "moran_mutation", "N": 10, "a1": 0.5, "a2": 0.5, **entry}
    with pytest.raises(errors.ConfigError, match=re.escape(f"at {path}:")):
        _run_cfg(command, cfg, tmp_path)
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("cfg", [
    {"kind": "moran", "N": 0, "bias": [0.1, 0.9]},
    {"kind": "moran_mutation", "N": 0, "a1": 0.5, "a2": 0.5},
    {"kind": "bernoulli_laplace", "N": 0},
    {"kind": "wright_fisher", "N": 0, "bias": [0.1, 0.9]},
], ids=lambda cfg: cfg["kind"])
def test_a_chain_of_no_steps_is_refused_by_the_schema(tmp_path, monkeypatch, capsys, cfg):
    # N = 0 once passed the schema, warned of 0/0 in np.arange(N + 1) / N
    # and failed with an error about a bias table or unequal vectors
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr("sys.argv", ["dualchain", "build", "--config", str(path),
                                     "--out", str(tmp_path / "out")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main()
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: config schema violation at $.N: 0 is less than the minimum of 1\n")
    assert not (tmp_path / "out").exists()


def _schema_keywords(schema):
    for key, arg in schema.items():
        yield key
        subs = arg.values() if key == "properties" else [arg] if key == "items" else []
        for sub in subs:
            yield from _schema_keywords(sub)


def test_config_check_implements_every_schema_keyword():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
    assert set(_schema_keywords(cli.CONFIG_SCHEMA)) <= set(cli.SCHEMA_KEYWORDS)


# names the mutations add: every key CONFIG_SCHEMA knows, and one it does not
SCHEMA_NAMES = ["kind", "N", "matrix", "p", "q", "r", "bias", "a1", "a2", "dual",
                "options", "family", "k", "alpha", "beta", "R", "n_max", "trials",
                "seed", "start", "sweep", "series", "other"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**64 + 1)
    | st.floats(-2, 2, allow_nan=False) | st.sampled_from([50.0, 1.0, 0.0, -0.0])
    | st.sampled_from(["siegmund", "ultrametric", "dense", "moran_mutation", "", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_NAMES), inner, max_size=3),
    max_leaves=6,
)
SHIPPED = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]


def _nodes(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_configs(draw):
    cfg = draw(st.sampled_from(SHIPPED + [MORAN_10]))
    cfg = json.loads(json.dumps(cfg))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(cfg))))
        value = draw(JSON_VALUES)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add":
            target = parent[path[-1]] if path else cfg
            if isinstance(target, dict):
                target[draw(st.sampled_from(SCHEMA_NAMES))] = value
        elif not path:
            cfg = value
        elif action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return cfg


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_config_check_agrees_with_jsonschema(cfg):
    # oracle: jsonschema's Draft 2020-12 validator with the int-not-float
    # integer type; both accept or both reject, and a lone violation is
    # reported at the same path in the same words
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    validator = jsonschema.validators.extend(base, type_checker=base.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool),
    ))(cli.CONFIG_SCHEMA)
    want = list(validator.iter_errors(cfg))
    if not want:
        cli.check_config(cfg)
        return
    with pytest.raises(errors.ConfigError) as exc:
        cli.check_config(cfg)
    if len(want) == 1:
        assert str(exc.value) == (
            f"config schema violation at {want[0].json_path}: {want[0].message}")


@pytest.mark.parametrize("N", [30, 100, 300])
@pytest.mark.parametrize("a", [0.1, 0.25, 0.5])
def test_verify_moran_mutation_green(tmp_path, N, a):
    cfg = {"kind": "moran_mutation", "N": N, "a1": a, "a2": a,
           "dual": {"family": "siegmund"}}
    assert _run_cfg("verify", cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["all_passed"]
    assert summary["checks"]["absorption_agreement"]["passed"]


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv",
        ["dualchain", "build", "--config", str(tmp_path / "missing.json")],
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    assert "error: ConfigError" in capsys.readouterr().err


def test_verify_names_where_a_mutation_free_moran_chain_breaks(tmp_path, monkeypatch, capsys):
    # both ends absorb, so the pipeline has no stationary law to link
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MORAN_10, "a1": 0.0, "a2": 0.0}))
    monkeypatch.setattr("sys.argv", ["dualchain", "verify", "--config", str(path),
                                     "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "error: NotIrreducibleError: kernel is not irreducible: n = 11 states, "
        "no link both ways between x = 0 and x + 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "ssd"])
def test_stationary_law_outside_the_float_range_exits_1(tmp_path, monkeypatch, capsys,
                                                        command):
    # build once wrote 1041 NaN stationary entries at Moran (1040, .5, .5), and
    # ssd ended in an unnamed NonFiniteEntryError after three RuntimeWarnings;
    # the tridiagonal kernel's law comes from the product form
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MORAN_10, "N": 1040}))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(
        "sys.argv", ["dualchain", command, "--config", str(path), "--out", str(out)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main()
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "error: ZeroStationaryEntryError: birth-death product form: the stationary law "
        "of n = 1041 states leaves the float range (its unnormalised weights overflow)\n")
    assert list(out.iterdir()) == []


def test_moran_1000_stays_inside_the_float_range(tmp_path):
    cfg = {**MORAN_10, "N": 1000}
    assert _run_cfg("build", cfg, tmp_path) == 0
    pi = np.array(json.loads((tmp_path / "build_summary.json").read_text())["stationary"])
    assert np.all(np.isfinite(pi)) and pi.min() > 0
    assert _run_cfg("ssd", cfg, tmp_path) == 0


def test_nmax_override(tmp_path):
    assert _run("ssd", "chain_a.json", tmp_path, "--nmax", "12") == 0
    table = np.loadtxt(tmp_path / "ssd.csv", delimiter=",", skiprows=1)
    assert table.shape[0] == 13


def test_nmax_leaves_the_absorption_pmf_alone(tmp_path):
    # the series runs to the automatic cut of absorption_exact
    tables = []
    for n_max in ("5", "40"):
        out = tmp_path / n_max
        assert _run("plotdata", "chain_b.json", out, "--series", "absorption_pmf",
                    "--nmax", n_max) == 0
        tables.append((out / "series.csv").read_text())
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 128  # header and n = 0..126


def test_verify_non_reversible_chain_all_passed(tmp_path):
    assert _run_cfg("verify", NON_REVERSIBLE, tmp_path) == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["all_passed"]
    assert summary["checks"]["separation_dominated_by_survival"]["passed"]
    assert summary["checks"]["sharp_equality"]["passed"]


def test_non_reversible_chain_runs_on_time_reversal(tmp_path):
    assert _run_cfg("ssd", NON_REVERSIBLE, tmp_path) == 0
    summary = json.loads((tmp_path / "ssd_summary.json").read_text())
    assert summary["sharp"] and summary["max_gap"] <= 1e-9
    assert _run_cfg("simulate", NON_REVERSIBLE, tmp_path) == 0
    assert json.loads((tmp_path / "simulate_summary.json").read_text())["ok"]
    for series in ("phi_profile", "sep_vs_survival", "absorption_pmf"):
        out = tmp_path / series
        out.mkdir()
        assert _run_cfg("plotdata", NON_REVERSIBLE, out, "--series", series) == 0
        assert (out / "series.csv").exists()


def test_verify_measures_the_link_against_the_kernel_the_sharpness_runs_on(
        tmp_path, monkeypatch):
    # one Pbar per run: verify's link_intertwining is the reading ssd gates
    # before its table, read off the duality residual, and within rounding
    # of ||P~ Lambda - Lambda Pbar|| from products with Pbar = res.back
    gate, gated = cli.gate, []

    def recorded(readings, n):
        if "link_intertwining" in readings:
            gated.append(readings["link_intertwining"])
        return gate(readings, n)

    monkeypatch.setattr(cli, "gate", recorded)
    feasible = 0
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        try:
            res = cli.pipeline(cfg, cfg.get("options", {})).res
        except cli.Infeasible:
            continue
        feasible += 1
        out = tmp_path / path.stem
        out.mkdir()
        gated.clear()
        assert _run("ssd", path.name, out) == 0 and len(gated) == 1, path.stem
        assert _run("verify", path.name, out) == 0, path.stem
        value = json.loads((out / "verify_summary.json").read_text())["checks"][
            "link_intertwining"]["value"]
        assert value == gated[0] == res.diagnostics["intertwining"], path.stem
        direct = kernels.link_residual(res.p_tilde, res.link, res.back)[0]
        assert abs(value - direct) <= 1e-15, path.stem
    assert feasible == len(list(CONFIGS.glob("*.json"))) - 1    # all but non_monotone


def test_ultrametric_dual_with_a_heavy_upper_block_is_accepted(tmp_path):
    # k = beta = 0: row 0 of the dual has mass 1 - p_0 + alpha q_1, about
    # 1e9 here, and the dual is right
    cfg = {"kind": "moran_mutation", "N": 20, "a1": 0.3, "a2": 0.3,
           "dual": {"family": "ultrametric", "k": 0, "alpha": 1e10, "beta": 0.0}}
    assert _run_cfg("dual", cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "dual_summary.json").read_text())
    b = cli.build_chain(cfg).bands
    want = b.p[0] - 1e10 * b.q[1]
    assert summary["feasible"] and abs(summary["leak0"] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("command", ["ssd", "verify", "simulate"])
def test_start_out_of_range_is_config_error(tmp_path, command):
    cfg = json.loads((CONFIGS / "chain_a.json").read_text())
    cfg["options"]["start"] = 5
    with pytest.raises(errors.ConfigError, match=r"start = 5 .* 0\.\.1"):
        _run_cfg(command, cfg, tmp_path)


@pytest.mark.parametrize("command", ["ssd", "simulate"])
def test_infeasible_summary_says_only_infeasible(tmp_path, command):
    assert _run(command, "non_monotone.json", tmp_path) == 2
    summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
    assert summary == {"feasible": False}


@pytest.mark.parametrize("series", ["phi_profile", "sep_vs_survival", "absorption_pmf"])
def test_plotdata_infeasible_writes_no_series(tmp_path, series):
    # the spectrum series builds no dual
    assert _run("plotdata", "non_monotone.json", tmp_path, "--series", series) == 2
    assert not (tmp_path / "series.csv").exists()


BIAS = [0.1, 0.3, 0.5, 0.7, 0.9]
RUNS = {"build": ["build"], "dual": ["dual"], "intertwine": ["intertwine"],
        "spectrum": ["spectrum"], "ssd": ["ssd"], "simulate": ["simulate"],
        "verify": ["verify"],
        **{f"plotdata-{series}": ["plotdata", "--series", series] for series in cli.SERIES}}
# the runs that build the dual
PIPELINE_RUNS = ["dual", "intertwine", "ssd", "simulate", "verify", "plotdata-phi_profile",
                 "plotdata-sep_vs_survival", "plotdata-absorption_pmf"]
NOT_BD = {"spectrum": "ConfigError: spectrum needs a birth-death chain",
          "plotdata-spectrum": "ConfigError: spectrum series needs a birth-death chain"}


@pytest.mark.parametrize("cfg, failing", [
    ({"kind": "moran", "N": 4, "bias": BIAS}, {}),
    ({"kind": "bernoulli_laplace", "N": 8}, dict.fromkeys(PIPELINE_RUNS, 2)),  # not monotone
    ({"kind": "wright_fisher", "N": 4, "bias": BIAS}, NOT_BD),
    ({**NON_REVERSIBLE, "dual": {"family": "potential",
                                 "R": [[0.5, 0.2, 0.0], [0.1, 0.5, 0.2], [0.0, 0.1, 0.5]]}},
     {**NOT_BD, **dict.fromkeys(PIPELINE_RUNS[1:],
                                "DualChainError: dual has no mass-conserving class")}),
    ({**MORAN_10, "N": 6, "a1": 0.3, "a2": 0.2, "dual": {"family": "vandermonde"}}, {}),
], ids=["moran", "bernoulli_laplace", "wright_fisher", "potential", "vandermonde"])
def test_chain_kinds_and_dual_families_exit_codes(tmp_path, cfg, failing):
    # the exit code of every command (0 unless listed in `failing`) and, for
    # exit 1, the error main prints; a run that exits 1 writes nothing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    got, want = {}, {}
    for name, args in RUNS.items():
        out = tmp_path / name
        out.mkdir()
        try:
            got[name] = run([*args, "--config", str(path), "--out", str(out)])
        except errors.DualChainError as e:
            got[name] = f"{type(e).__name__}: {e}"
            assert list(out.iterdir()) == [], name
        want[name] = failing.get(name, 0)
    assert got == want


# the dense n x n matrices each run builds from the birth-death records of
# its chain, its dual and P~, each once and only where a stage reads it
# densely: P (the kernel.csv of build, the duality residual of the dual and
# the pipeline, the reversal P~ is intertwined with), the dual (the same
# residual, dual.csv) and P~ (the sharpness table, the absorption law, the
# coupling, p_tilde.csv); none where the bands are all a run reads
DENSE_BUILDS = {"build": 1, "dual": 2, "plotdata-phi_profile": 2,           # P, dual
                "ssd": 3, "simulate": 3, "plotdata-sep_vs_survival": 3,     # P, dual, P~
                "plotdata-absorption_pmf": 3, "intertwine": 3, "verify": 3,
                "spectrum": 0, "plotdata-spectrum": 0, "cutoff": 0}


def test_each_run_builds_the_dense_kernel_once_and_only_where_it_is_read(tmp_path):
    cfg = {**MORAN_10, "N": 30, "a1": 0.1, "a2": 0.1,
           "options": {"trials": 2000, "sweep": [100, 300, 1000]}}
    got = {}
    for name, args in {**RUNS, "cutoff": ["cutoff"]}.items():
        (tmp_path / name).mkdir()
        builds = kernels.dense_builds
        assert _run_cfg(args[0], cfg, tmp_path / name, *args[1:]) == 0, name
        got[name] = kernels.dense_builds - builds
    assert got == DENSE_BUILDS
    # a dense config gives its matrix, so no run builds one
    builds = kernels.dense_builds
    for name in ["build", *PIPELINE_RUNS]:
        args, out = RUNS[name], tmp_path / f"dense-{name}"
        out.mkdir()
        assert _run_cfg(args[0], NON_REVERSIBLE, out, *args[1:]) == 0, name
    assert kernels.dense_builds == builds


# the measurements of ||P~ Lambda - Lambda Pbar|| from products
# (kernels.link_residual) each run makes: one in simulate, whose coupled
# kernel is built from those products, none elsewhere, as every other run
# reads the link off the duality residual
LINK_MEASUREMENTS = {"dual": 0, "plotdata-phi_profile": 0, "intertwine": 0, "verify": 0,
                     "ssd": 0, "simulate": 1, "plotdata-sep_vs_survival": 0,
                     "plotdata-absorption_pmf": 0}


def test_each_run_measures_the_link_residual_at_most_once(tmp_path):
    cfg = {**MORAN_10, "N": 20, "a1": 0.3, "a2": 0.2, "options": {"trials": 2000}}
    got = {}
    for name in LINK_MEASUREMENTS:
        (tmp_path / name).mkdir()
        measured = kernels.link_measurements
        assert _run_cfg(RUNS[name][0], cfg, tmp_path / name, *RUNS[name][1:]) == 0, name
        got[name] = kernels.link_measurements - measured
    assert got == LINK_MEASUREMENTS


# the raw arrays each run scans in kernels._bands for a birth-death record:
# none, as the dual and P~ leave their stage as records and the reversal is P
BAND_SCANS = dict.fromkeys(["ssd", "plotdata-absorption_pmf", "verify", "intertwine",
                            "simulate", "dual"], 0)


def test_each_run_scans_a_raw_array_for_bands_only_where_it_makes_one(tmp_path):
    cfg = {**MORAN_10, "N": 20, "a1": 0.3, "a2": 0.2}
    got = {}
    for name in BAND_SCANS:
        (tmp_path / name).mkdir()
        scans = kernels.band_scans
        assert _run_cfg(RUNS[name][0], cfg, tmp_path / name, *RUNS[name][1:]) == 0, name
        got[name] = kernels.band_scans - scans
    assert got == BAND_SCANS
