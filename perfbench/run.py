"""dualchain benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it wraps
the library's public functions and reports per-layer metrics instead, plus
the tracing overhead against one untraced round.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full report (provenance,
failures, trajectory digests, spans) goes to .bench_out/.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, in this process and in every interpreter it starts, set
# before numpy loads.  On a host of few shared cores a second BLAS thread
# keeps spinning on the other core after each call and slows the numpy work
# that follows it about twofold for ~0.1 s, so each op's time would hinge on
# the op that ran before it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
SETUP_REPEATS = 3       # this process plus two fresh interpreters
IMPORT_REPEATS = 3
SLOWDOWN_LIMIT = 1.5    # a run stops after the round that passes this many times --seconds


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used by the benchmark itself)")
    return ap.parse_args(argv)


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import dualchain from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dualchain" / "__init__.py").is_file():
        sys.exit(f"error: no package at {src / 'dualchain'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import dualchain
    if Path(dualchain.__file__).resolve().parent != (src / "dualchain").resolve():
        sys.exit(f"error: dualchain imported from {dualchain.__file__}, not {src}")
    return dualchain


def setup(args, out: Path, in_process_cli: bool):
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, out, in_process_cli)
    wl.warmup()
    return wl, workloads.Recorder()


def fresh_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_seconds() -> dict:
    """Cumulative import time of dualchain and dualchain.chains in a fresh
    interpreter (-X importtime), median of IMPORT_REPEATS."""
    import workloads
    runs = {"import.s": [], "import.chains_s": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dualchain"],
                              cwd=ROOT, env=workloads.package_env(ROOT), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        runs["import.s"].append(cumulative["dualchain"])
        runs["import.chains_s"].append(cumulative["dualchain.chains"])
    return {k: statistics.median(v) for k, v in runs.items()}


def measure(wl, rec, rounds: int, limit_s: float, tracer=None) -> list[float]:
    """Closed loop over a fixed number of whole rounds, so that the ops
    attempted and failed depend on the seed alone, never on the machine's
    speed.  A run far slower than planned stops after the round that passes
    limit_s, so that it still ends in time."""
    import workloads
    t0 = time.perf_counter()
    times = []
    for _ in range(rounds):
        r0 = time.perf_counter()
        for op in wl.round_ops():
            workloads.run_op(op, rec, tracer)
        times.append(time.perf_counter() - r0)
        if time.perf_counter() - t0 > limit_s:
            break
    return times


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return "no percentile has 10 samples above it"
    v = sorted(values)[n - 11]
    return f"p{100 * (n - 10) / n:.0f}={v:.6g}"


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it."""
    import ctypes
    import glob
    import numpy as np
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def provenance(wl, args) -> dict:
    import hashlib
    import numpy as np
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "dualchain").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "DUALCHAIN_THREADS": os.environ.get("DUALCHAIN_THREADS", "unset"),
        "seed": args.seed,
        "workload": wl.name,
        "problems": wl.problems(),
        "machine": platform.machine(),
    }


def p50(by_op: dict) -> float:
    """Median time of each op of the round, combined over those ops by their
    geometric mean.  The value does not hinge on the few samples of whichever
    op happens to sit in the middle of a mixed list, and each op weighs the
    same, so the noise of one long op is not the whole figure."""
    return statistics.geometric_mean(statistics.median(v) for v in by_op.values())


def pooled(by_op: dict) -> list[float]:
    return [x for v in by_op.values() for x in v]


def end_to_end(rec, setup_s: float) -> dict:
    s = rec.samples
    solve, sim = pooled(s["solve"]), pooled(s["sim"])
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "cli_wall_s.p50": p50(s["cli"]),
        "solve_s.p50": p50(s["solve"]),
        "problems_per_s": len(solve) / sum(solve),
        "sim_s.p50": p50(s["sim"]),
        "path_steps_per_s": rec.path_steps / sum(sim),
    }


def run_untraced(args, wl, rec, setup_s: float, report: dict):
    setups = [setup_s] + [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    rounds = measure(wl, rec, wl.rounds(args.seconds), SLOWDOWN_LIMIT * args.seconds)
    report["setup_samples_s"] = setups
    samples = {"setup_s": setups, "cli_wall_s.p50": pooled(rec.samples["cli"]),
               "solve_s.p50": pooled(rec.samples["solve"]),
               "sim_s.p50": pooled(rec.samples["sim"])}
    return end_to_end(rec, statistics.median(setups)), rounds, samples


def run_traced(args, wl, rec, report: dict):
    """One untraced round as the reference, then the rest of the planned
    rounds traced; per-layer values are per traced op."""
    import spans
    imports = import_seconds()
    reference = measure(wl, rec, 1, 0.0)[0]
    ops_before, bytes_before = rec.attempted, rec.cli_bytes
    tracer = spans.Tracer()
    tracer.install()
    try:
        rounds = measure(wl, rec, max(1, wl.rounds(args.seconds) - 1),
                         SLOWDOWN_LIMIT * args.seconds - reference, tracer)
    finally:
        tracer.uninstall()
    ops = rec.attempted - ops_before
    values = tracer.layer_metrics(ops)
    values.update(imports)
    values["cli.bytes_written"] = (rec.cli_bytes - bytes_before) / ops
    values["trace.overhead_pct"] = 100.0 * (statistics.median(rounds) / reference - 1.0)
    report["reference_round_s"] = reference
    report["spans"] = tracer.dump()
    return values, rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    traced = bool(args.trace)
    wl, rec = setup(args, out, in_process_cli=traced)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans
    import workloads
    report = {"provenance": provenance(wl, args), "seconds": args.seconds, "trace": traced}
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}; problems: {'; '.join(wl.problems())}")
    if traced:
        values, rounds = run_traced(args, wl, rec, report)
        samples = {}
    else:
        values, rounds, samples = run_untraced(args, wl, rec, setup_s, report)
    units = {m["name"]: m["unit"]
             for m in bench_spec()["per_layer" if traced else "end_to_end"]}

    print(f"measured {sum(rounds):.2f} s in {len(rounds)} round(s)"
          + (" traced, after one untraced reference round" if traced else ""))
    for name, unit in units.items():
        note = ""
        if name in samples:
            note = f"  (n={len(samples[name])}; {tail(samples[name])})"
        elif name in spans.COMPUTED:
            note = "  (computed)"
        print(f"  {name:<48} {values.get(name, 0.0):>14.6g} {unit}{note}")
    print(f"ops: attempted {rec.attempted}, failed {rec.failed}")
    for label, msgs in rec.failures.items():
        known = workloads.known_defect(label, msgs)
        print(f"  FAILED {label}: {' | '.join(msgs)}"
              + (f"  [known defect: {known.why}]" if known else ""))
    for label, d in wl.digests.items():
        print(f"  digest {label}: {d['digest']} "
              f"(empirical_report ok={d.get('empirical_report_ok')}, information only)")
    prov = report["provenance"]
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items() if k != "problems"))

    report.update(rounds_s=rounds, samples_s=rec.samples, failures=rec.failures,
                  digests=wl.digests, metrics=values)
    result_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    shutil.rmtree(out, ignore_errors=True)
    print(f"report: {result_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": rec.unexpected == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
