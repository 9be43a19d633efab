#!/usr/bin/env python3
"""Cutoff indicators for Moran mutation families over a geometric N-sweep.

Usage: python3 scripts/cutoff_table.py [a1] [a2] [N1 N2 ...]

The rows are those `dualchain cutoff` writes to cutoff.csv for the same
sweep.
"""
import sys

from dualchain import cli


def main(argv):
    a1 = float(argv[1]) if len(argv) > 1 else 0.5
    a2 = float(argv[2]) if len(argv) > 2 else 0.5
    Ns = [int(v) for v in argv[3:]] or [25, 50, 100, 200, 400, 800]

    cfg = {"kind": "moran_mutation", "N": min(Ns), "a1": a1, "a2": a2,
           "options": {"sweep": Ns}}
    cli.check_config(cfg)
    _, files = cli.cmd_cutoff(cfg, cfg["options"])
    _, rows = files["cutoff.csv"]
    print(f"# Moran mutation a1={a1} a2={a2} (a={a1 + a2})")
    print(f"{'N':>6} {'E(T)':>14} {'Var(T)':>14} {'Var/E^2':>10} "
          f"{'(1-t1)E':>10} {'E/asymptote':>12}")
    for N, mean, variance, relative_variance, gap_times_mean, ratio in rows:
        print(f"{N:>6} {mean:>14.6f} {variance:>14.6f} {relative_variance:>10.6f} "
              f"{gap_times_mean:>10.4f} {ratio:>12.6f}")
    print(f"# cutoff flag: {files['cutoff_summary.json']['cutoff_flag']}")


if __name__ == "__main__":
    main(sys.argv)
