"""Golden outputs of the command line: every command, and every plotdata
series, on every shipped config, against ``tests/cli_golden.json``.

Each run is recorded as its exit code, or the class and message of the
error it raised, and the SHA-256 of each file it wrote.  The runs go
through ``cli.run`` in one child interpreter with BLAS held to one thread:
the absorption law of ``cutoff_sweep`` changes in its last bits between one
and two BLAS threads.

Run as a script, this module prints each "config run" entry whose outcome
changed, then rewrites ``tests/cli_golden.json`` from the current code:
python3 tests/test_cli_golden.py
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
SERIES = ("spectrum", "phi_profile", "sep_vs_survival", "absorption_pmf")
ONE_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def outcomes() -> dict:
    """{config: {run: outcome}} of every run, in this interpreter."""
    from dualchain import cli

    runs = [(name, [name]) for name in cli.HANDLERS if name != "plotdata"]
    runs += [(f"plotdata-{s}", ["plotdata", "--series", s]) for s in SERIES]
    table = {}
    for config in sorted((ROOT / "configs").glob("*.json")):
        table[config.stem] = {}
        for name, args in runs:
            with tempfile.TemporaryDirectory() as out:
                try:
                    result = {"exit": cli.run([*args, "--config", str(config), "--out", out])}
                except Exception as e:
                    result = {"error": f"{type(e).__name__}: {e}"}
                result["files"] = {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(Path(out).iterdir())
                }
            table[config.stem][name] = result
    return table


def recorded() -> dict:
    """``outcomes()`` of the code under ``src``, run in a child interpreter."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = (f"import json, sys; sys.path.insert(0, {str(GOLDEN.parent)!r}); "
            "import test_cli_golden; print(json.dumps(test_cli_golden.outcomes()))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def changed_entries(golden: dict, now: dict) -> list:
    """The "config run" names whose outcome differs between two records."""
    return sorted(
        f"{config} {name}"
        for config in golden.keys() | now.keys()
        for name in golden.get(config, {}).keys() | now.get(config, {}).keys()
        if golden.get(config, {}).get(name) != now.get(config, {}).get(name)
    )


def test_cli_outputs_match_the_golden_record():
    changed = changed_entries(json.loads(GOLDEN.read_text()), recorded())
    assert not changed, f"runs that differ from {GOLDEN.name}: {', '.join(changed)}"


if __name__ == "__main__":
    now = recorded()
    for entry in changed_entries(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, now):
        print(f"changed: {entry}")
    GOLDEN.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
