#!/usr/bin/env python3
"""Wall time of `dual`, `intertwine`, `verify`, `ssd`, `simulate` and
`plotdata --series absorption_pmf` on Moran mutation chains at paper scale.

Usage: python3 scripts/paper_scale.py [N1 N2 ...] [--json PATH]    (default: N = 1000)

For each N and each a1 = a2 = a in {.1, .25, .5}, each command runs through
`dualchain.cli.run` on a moran_mutation config with the Siegmund dual, each
into its own temporary directory.  One row per run: N, a, the command, its
exit code, its wall seconds (import excluded), the dense n x n kernels the
in-process run built from the birth-death records of the chain, its dual
and the hidden chain (`dualchain.kernels.dense_builds`), the
raw arrays it scanned for a birth-death record (`dualchain.kernels.band_scans`;
0, as every stage hands its kernel on as a record), the times it measured
the link residual ||P~ Lambda - Lambda Pbar|| from products
(`dualchain.kernels.link_measurements`; 1 for simulate, whose coupled kernel
is built from those products, 0 for the others, which read it off the
duality residual), its cold wall seconds
(the same command in a fresh `python -m dualchain.cli` process, interpreter
start and import included), that process's peak RSS in MB and, for verify,
all_passed.  With --json, the printed rows are also written to PATH as a
JSON list of objects keyed by the column names, each value as printed.
Timings depend on the BLAS thread count; OPENBLAS_NUM_THREADS=1 makes them
comparable between runs.
"""
import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from dualchain import kernels
from dualchain.cli import run

A_VALUES = (0.1, 0.25, 0.5)
COMMANDS = ("dual", "intertwine", "verify", "ssd", "simulate", "plotdata")
# extra arguments per command: plotdata times the matrix-power absorption law
EXTRA = {"plotdata": ["--series", "absorption_pmf"]}
# A small interpreter starts the cold run and prints its wall seconds, exit
# code and ru_maxrss (KiB) from os.wait4.  Started from this script, the
# run would also report this script's peak RSS: at exec Linux charges a
# process with the peak RSS of the memory it leaves, which for a vfork
# child (subprocess's default) is its parent's.
COLD = """import os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_once(command, N, a):
    """(exit code, wall seconds, dense builds, band scans, link measurements,
    cold wall seconds, cold peak RSS in MB, all_passed or "-") of one command."""
    cfg = {"kind": "moran_mutation", "N": N, "a1": a, "a2": a,
           "dual": {"family": "siegmund"}}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        argv = [command, "--config", str(config), "--out", tmp, *EXTRA.get(command, [])]
        builds, scans, links = (kernels.dense_builds, kernels.band_scans,
                                kernels.link_measurements)
        t0 = time.perf_counter()
        try:
            code = run(argv)
        except Exception as e:  # the exit code dualchain.cli.main gives it
            print(f"# {command} N={N} a={a}: {type(e).__name__}: {e}")
            code = 1
        wall = time.perf_counter() - t0
        builds, scans, links = (kernels.dense_builds - builds, kernels.band_scans - scans,
                                kernels.link_measurements - links)
        summary = Path(tmp) / "verify_summary.json"
        passed = json.loads(summary.read_text())["all_passed"] if summary.exists() else "-"
        out = subprocess.run([sys.executable, "-c", COLD, sys.executable, "-m", "dualchain.cli",
                              *argv], capture_output=True, text=True, check=True).stdout
        cold, cold_code, rss_kib = out.split()
        if int(cold_code) != code:
            print(f"# {command} N={N} a={a}: the cold run exited {cold_code}")
    return code, wall, builds, scans, links, float(cold), int(rss_kib) / 1024, passed


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("N", type=int, nargs="*", default=[1000])
    ap.add_argument("--json", metavar="PATH", help="also write the rows to PATH as JSON")
    args = ap.parse_args(argv[1:])
    print(f"{'N':>6} {'a':>5} {'command':<8} {'exit':>4} {'wall_s':>9} {'dense_builds':>12} "
          f"{'band_scans':>10} {'link_measurements':>17} {'cold_s':>9} {'cold_rss_mb':>11} "
          f"{'all_passed':>10}")
    rows = []
    for N in args.N:
        for a in A_VALUES:
            for command in COMMANDS:
                code, wall, builds, scans, links, cold, rss, passed = run_once(command, N, a)
                print(f"{N:>6} {a:>5} {command:<8} {code:>4} {wall:>9.3f} {builds:>12} "
                      f"{scans:>10} {links:>17} {cold:>9.3f} {rss:>11.1f} {passed!s:>10}",
                      flush=True)
                rows.append({"N": N, "a": a, "command": command, "exit": code,
                             "wall_s": round(wall, 3), "dense_builds": builds,
                             "band_scans": scans, "link_measurements": links,
                             "cold_s": round(cold, 3),
                             "cold_rss_mb": round(rss, 1), "all_passed": passed})
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv)
