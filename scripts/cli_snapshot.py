#!/usr/bin/env python3
"""Run every CLI command, and every plotdata series, on every config.

Usage: python3 scripts/cli_snapshot.py <outdir>

Each run gets its own directory <outdir>/<config>/<command>[-<series>]
holding the files the command wrote, its exit code (`exit_code`) and its
standard error (`stderr`).  The package is imported from the `src` next to
this script, so `diff -r` of the trees written by two checkouts compares
their behaviour run by run.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def runs(cli):
    for command in cli.HANDLERS:
        if command == "plotdata":
            for series in cli.SERIES:
                yield f"{command}-{series}", [command, "--series", series]
        else:
            yield command, [command]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.path.insert(0, str(ROOT / "src"))
    from dualchain import cli

    out = Path(argv[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for config in sorted((ROOT / "configs").glob("*.json")):
        for name, args in runs(cli):
            rundir = out / config.stem / name
            rundir.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "dualchain.cli", *args,
                 "--config", str(config), "--out", str(rundir)],
                env=env, capture_output=True, text=True,
            )
            (rundir / "exit_code").write_text(f"{proc.returncode}\n")
            (rundir / "stderr").write_text(proc.stderr)
            print(f"{config.stem:>22} {name:<26} exit {proc.returncode}")


if __name__ == "__main__":
    main(sys.argv)
