"""The benchmark's workloads.

Each workload is a closed loop with one client.  Its inputs are made from the
run's seed at set-up; the library sees only those inputs.  One round is a
fixed list of checked ops in three phases:

  cli    one `python -m dualchain.cli` call, interpreter start and import
         included (run in-process through `cli.run` when traced)
  solve  one in-process analytic pipeline on one problem
  sim    one `coupling.simulate` call on a coupled kernel made earlier

Every op is checked against a reference built in `checks`; a failed check
marks the op failed and the round goes on.
"""
from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
from dualchain import chains, cli, coupling, duals, intertwining, spectra, stationary_times

@dataclass(frozen=True)
class KnownDefect:
    op: str         # label prefix of the ops it hits
    message: str    # text every failure message of such an op contains
    why: str


# Library defects that make ops fail on the code this benchmark was written
# against.  Those ops are attempted, checked and counted in `failed` like any
# other; only `correct` treats them as known.  Delete an entry with its fix.
KNOWN_DEFECTS = (
    KnownDefect("moran_ssd/solve/N=20,a1=0.5,a2=0.5", "matrix-power ",
                "P~ rows leak ~2e-11 mass, so absorption_exact runs to its 10^6-step cap "
                "and returns mean 118.82 against the closed form 71.955"),
)


def known_defect(label: str, failures: list[str]) -> KnownDefect | None:
    for d in KNOWN_DEFECTS:
        if label.startswith(d.op) and all(d.message in f for f in failures):
            return d
    return None


class Clock:
    """Accumulates the time spent inside `with clock:` blocks, also when
    the block raises."""

    def __init__(self):
        self.s = 0.0
        self.work = 0       # path-steps of a sim op, bytes written by a cli op

    def __enter__(self):
        self._t = perf_counter()
        return self

    def __exit__(self, *exc):
        self.s += perf_counter() - self._t
        return False


@dataclass
class Recorder:
    # phase -> op label -> seconds of each run of that op
    samples: dict = field(default_factory=lambda: {"cli": {}, "solve": {}, "sim": {}})
    path_steps: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    failures: dict = field(default_factory=dict)     # label -> first messages
    cli_bytes: int = 0

    def add(self, phase: str, label: str, clock: Clock, failures: list[str]) -> None:
        self.attempted += 1
        self.samples[phase].setdefault(label, []).append(clock.s)
        if phase == "sim":
            self.path_steps += clock.work
        elif phase == "cli":
            self.cli_bytes += clock.work
        if failures:
            self.failed += 1
            self.unexpected += known_defect(label, failures) is None
            self.failures.setdefault(label, failures[:4])


@dataclass
class Op:
    phase: str
    label: str
    fn: Callable[[Clock], list[str]]


def run_op(op: Op, rec: Recorder, tracer=None) -> None:
    clock = Clock()
    try:
        if tracer is None:
            failures = op.fn(clock)
        else:
            with tracer.op(op.label):
                failures = op.fn(clock)
    except Exception as e:      # an op that raises is a failed op; the run goes on
        failures = [f"{type(e).__name__}: {e}"]
    rec.add(op.phase, op.label, clock, failures)


# ---------------------------------------------------------------- CLI calls

def package_env(root: Path) -> dict:
    """Environment for a child interpreter that imports dualchain from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


class CliRunner:
    """Runs one CLI command into a fresh output directory."""

    def __init__(self, root: Path, out: Path, in_process: bool):
        self.root = root
        self.out = out / "cli"
        self.in_process = in_process
        self.env = package_env(root)

    def op(self, label: str, argv: list[str], cfg: dict, opts: dict) -> Op:
        def fn(clock: Clock) -> list[str]:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out.mkdir(parents=True)
            full = [*argv, "--out", str(self.out)]
            err = ""
            if self.in_process:
                with clock:
                    try:
                        rc = cli.run(full)
                    except Exception as e:      # mirrors cli.main: any error exits 1
                        rc, err = 1, f"{type(e).__name__}: {e}"
            else:
                with clock:
                    proc = subprocess.run(
                        [sys.executable, "-m", "dualchain.cli", *full],
                        cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE, text=True, timeout=120)
                rc, err = proc.returncode, proc.stderr.strip()[-300:]
            clock.work = sum(f.stat().st_size for f in self.out.iterdir())
            failures = checks.check_cli(argv[0], cfg, opts, rc, self.out)
            return failures + ([f"stderr: {err}"] if failures and err else [])
        return Op("cli", label, fn)


def write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return str(path)


# -------------------------------------------------------- shared op bodies

def _e0(n: int) -> np.ndarray:
    v = np.zeros(n)
    v[0] = 1.0
    return v


@dataclass
class Coupled:
    """A coupled kernel ready to sample, with the data its check needs."""
    pk: object
    P: np.ndarray
    p_tilde: np.ndarray
    link: np.ndarray


def couple(P, p_tilde, link) -> Coupled:
    return Coupled(coupling.product_kernel(P, p_tilde, link), P, p_tilde, link)


def sim_op(label: str, coupled: Callable[[], Coupled], paths: int, steps: int,
           seed: int, digests: dict) -> Op:
    """Sample, then check the sampled laws and that a repeat of the same op
    reproduces the same trajectories."""
    def fn(clock: Clock) -> list[str]:
        c = coupled()
        start = _e0(c.p_tilde.shape[0])
        with clock:
            batch = coupling.simulate(c.pk, start, n_steps=steps, n_paths=paths, seed=seed)
        clock.work = paths * steps
        f = checks.check_coupled_sample(batch.x, batch.x_tilde, c.P, c.p_tilde, c.link, start)
        d = checks.trajectory_digest(batch.x, batch.x_tilde)
        first = digests.setdefault(f"{label} seed={seed}", {"digest": d})
        if first["digest"] != d:
            f.append(f"trajectories not reproduced: digest {d[:12]} != {first['digest'][:12]}")
        if "empirical_report_ok" not in first:       # information only
            first["empirical_report_ok"] = bool(
                coupling.empirical_report(batch, c.pk, start)["ok"])
        return f
    return Op("sim", label, fn)


def moran_pipeline(N: int, a1: float, a2: float):
    params = chains.moran_kernel(N, chains.mutation_bias(a1, a2, N))
    P = chains.bd_kernel(params)
    H = duals.siegmund_function(N)
    rep = duals.siegmund_dual(P)
    res = intertwining.build_intertwining(P, H, rep.dual)
    return params, P, H, rep, res


def interleave(*groups: list[Op]) -> list[Op]:
    """Spread each group's ops evenly over the round, so that the samples of
    every metric cover the whole run rather than one stretch of it (the
    machine's speed drifts within a run).  Ties keep group order, so a
    solve op still precedes the sim op at the same position."""
    keyed = [(i / len(g), j, i) for j, g in enumerate(groups) for i in range(len(g))]
    return [groups[j][i] for _, j, i in sorted(keyed)]


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    why = ""
    # Ops per round.  Repeats give each metric enough samples for a steady
    # median on a noisy machine; the small coupled problem sampled by the
    # sim phase is set up once and sampled often in short calls.
    cli_repeats, solve_repeats = 2, 1
    sim_paths, sim_steps, sims_per_round = 2500, 30, 16
    # Seconds one round takes on a 2-vCPU x86-64 host.  A run is a fixed
    # number of rounds, about --seconds long there (see `rounds`).
    round_s = 10.0

    def __init__(self, seed: int, root: Path, out: Path, in_process_cli: bool):
        self.seed = seed
        self.root = root
        self.out = out
        self.rng = np.random.default_rng(seed)
        self.cli = CliRunner(root, out, in_process_cli)
        self.digests: dict = {}
        self.make_inputs()

    # subclasses fill these in
    def make_inputs(self) -> None: ...
    def problems(self) -> list: ...
    def cli_ops(self) -> list[Op]: ...
    def solve_ops(self) -> list[Op]: ...
    def warmup_op(self) -> Op: ...

    def sim_coupled(self) -> Coupled:
        """The small problem of the sim phase: Moran (10, .5, .5)."""
        params, P, H, rep, res = moran_pipeline(10, 0.5, 0.5)
        return couple(P.matrix, res.p_tilde, res.link)

    def sim_ops(self) -> list[Op]:
        # one label: the samples differ only in their seed, so they pool
        # into one median
        return [sim_op(f"{self.name}/sim", lambda: self.coupled, self.sim_paths,
                       self.sim_steps, self.seed * 1000 + k, self.digests)
                for k in range(self.sims_per_round)]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def round_ops(self) -> list[Op]:
        return interleave(self.cli_ops() * self.cli_repeats,
                          self.solve_ops() * self.solve_repeats, self.sim_ops())

    def warmup(self) -> None:
        """One op on the smallest problem and a short sample, unrecorded.
        The op may fail; the measured rounds count it."""
        self.coupled = self.sim_coupled()
        run_op(self.warmup_op(), Recorder())
        coupling.simulate(self.coupled.pk, _e0(self.coupled.p_tilde.shape[0]),
                          n_steps=5, n_paths=1000, seed=self.seed)


class MoranSsd(Workload):
    name = "moran_ssd"
    why = ("the paper family, tridiagonal: stationary_times does nearly all the "
           "work, dense algebra is milliseconds")
    PROBLEMS = [(10, 0.5, 0.5), (20, 0.5, 0.5), (20, 0.3, 0.2), (30, 0.1, 0.1), (40, 0.1, 0.1)]

    def make_inputs(self):
        self.order = [self.PROBLEMS[i] for i in self.rng.permutation(len(self.PROBLEMS))]
        self.ssd_cfg = {"kind": "moran_mutation", "N": 10, "a1": 0.5, "a2": 0.5,
                        "dual": {"family": "siegmund"}, "options": {"n_max": 100}}
        self.ssd_path = write_config(self.out / "inputs" / "moran_ssd.json", self.ssd_cfg)

    def problems(self):
        return [f"N={N},a1={a1},a2={a2}" for N, a1, a2 in self.PROBLEMS]

    def cli_ops(self):
        return [self.cli.op(f"{self.name}/cli/ssd N=10", ["ssd", "--config", self.ssd_path],
                            self.ssd_cfg, self.ssd_cfg["options"])]

    def solve_ops(self):
        return [self._solve(*p) for p in self.order]

    def warmup_op(self):
        return self._solve(*self.PROBLEMS[0])

    def _solve(self, N, a1, a2) -> Op:
        def fn(clock):
            start = _e0(N + 1)
            with clock:
                params = chains.moran_kernel(N, chains.mutation_bias(a1, a2, N))
                P = chains.bd_kernel(params)
                H = duals.siegmund_function(N)
                rep = duals.siegmund_dual(P)
                vd = duals.verify_duality(P, H, rep.dual, n_max=20)
                res = intertwining.build_intertwining(P, H, rep.dual)
                sharp = stationary_times.verify_sharpness(
                    P.matrix, res.p_tilde, res.link, res.link[0], start, n_max=100)
                ex = stationary_times.absorption_exact(res.p_tilde, start, sharp.boundary)
                sp = stationary_times.absorption_spectral(spectra.bd_spectrum(params))
                rc = stationary_times.absorption_recurrence(
                    chains.bd_params_from_kernel(res.p_tilde), n_max=sp.n_max)
            P_ref = checks.moran_mutation_matrix(N, a1, a2)
            kernel_dev = float(np.max(np.abs(P.matrix - P_ref)))
            f = [] if kernel_dev <= 1e-15 else [f"Moran kernel off by {kernel_dev:.3g}"]
            f += checks.check_duality_gates(rep.feasible, vd)
            f += checks.check_pipeline(P_ref, rep.dual, res.link, res.p_tilde, res.pi)
            f += checks.check_sharpness(sharp.table, sharp.sharp, P_ref, res.link[0],
                                        res.pi, ex.survival)
            mean, var = checks.absorption_moments(checks.moran_mutation_eigenvalues(N, a1, a2))
            f += checks.check_absorption(
                {r.source: (r.mean, r.variance, r.pmf) for r in (ex, sp, rc)}, mean, var)
            return f
        return Op("solve", f"{self.name}/solve/N={N},a1={a1},a2={a2}", fn)

class CoupledSim(Workload):
    name = "coupled_sim"
    why = ("the Diaconis-Fill coupling: pair kernel, exact joint law and "
           "sampling; the only workload where RNG and memory matter")
    PROBLEMS = [(10, 0.5, 0.5, 100_000, 30), (20, 0.3, 0.2, 20_000, 100)]
    solve_repeats = 20      # the preparation takes milliseconds

    def make_inputs(self):
        self.sim_cfg = {"kind": "moran_mutation", "N": 10, "a1": 0.5, "a2": 0.5,
                        "dual": {"family": "siegmund"},
                        "options": {"n_max": 30, "trials": 20000, "seed": self.seed}}
        self.sim_path = write_config(self.out / "inputs" / "coupled.json", self.sim_cfg)
        self.prepared: dict = {}

    def problems(self):
        return [f"N={N},a1={a1},a2={a2} paths={paths} steps={steps}"
                for N, a1, a2, paths, steps in self.PROBLEMS]

    def cli_ops(self):
        return [self.cli.op(f"{self.name}/cli/simulate N=10",
                            ["simulate", "--config", self.sim_path],
                            self.sim_cfg, self.sim_cfg["options"])]

    def solve_ops(self):
        """Pipeline, pair kernel and exact joint law of each problem."""
        return [self._prepare(k, *p) for k, p in enumerate(self.PROBLEMS)]

    def sim_ops(self):
        return [sim_op(f"{self.name}/sim/N={N},a1={a1},a2={a2}", functools.partial(self._take, k),
                       paths, steps, self.seed * 1000 + k, self.digests)
                for k, (N, a1, a2, paths, steps) in enumerate(self.PROBLEMS)]

    def round_ops(self) -> list[Op]:
        """A block of preparations in each of the four gaps between the long
        cli and sim ops.  A preparation takes milliseconds, and its time
        steps between two levels 1.5x apart as the host's speed changes over
        fractions of a second; the more windows its samples come from, the
        steadier their median."""
        preps = self.solve_ops() * self.solve_repeats
        q = len(preps) // 4
        (c0, c1), (s0, s1) = self.cli_ops() * 2, self.sim_ops()
        return [c0, *preps[:q], s0, *preps[q:2 * q], c1, *preps[2 * q:3 * q], s1, *preps[3 * q:]]

    def warmup_op(self):
        return self._prepare(-1, *self.PROBLEMS[0])

    def _take(self, k: int) -> Coupled:
        if k not in self.prepared:
            raise RuntimeError("coupled kernel was not prepared")
        return self.prepared.pop(k)

    def _prepare(self, k, N, a1, a2, paths, steps) -> Op:
        def fn(clock):
            self.prepared.pop(k, None)
            start = _e0(N + 1)
            with clock:
                params, P, H, rep, res = moran_pipeline(N, a1, a2)
                c = couple(P.matrix, res.p_tilde, res.link)
                ej = coupling.exact_joint(c.pk, start, steps)
            P_ref = checks.moran_mutation_matrix(N, a1, a2)
            f = checks.check_pipeline(P_ref, rep.dual, res.link, res.p_tilde, res.pi)
            f += checks.check_exact_joint(ej)
            self.prepared[k] = Coupled(c.pk, P_ref, c.p_tilde, c.link)
            return f
        return Op("solve", f"{self.name}/solve/N={N},a1={a1},a2={a2}", fn)


WORKLOADS = {w.name: w for w in (MoranSsd, CoupledSim)}
