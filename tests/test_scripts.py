"""Smoke runs of the experiment scripts that call the pipeline: each exits 0
and prints its table, a header row and one row per chain, step or size.  The
README's library snippet runs too, so the API it documents cannot rot."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script, arguments, data rows expected under the header
RUNS = [
    ("absorption_crosscheck.py", ["3", "1", "10"], 3),             # three chains
    ("paper_scale.py", ["30", "--json", "{tmp}/rows.json"], 18),   # 3 a x 6 commands
]


# the dense matrices each paper_scale.py command builds: P and the dual;
# then P~ (a birth-death chain is its own reversal)
PAPER_SCALE_BUILDS = {"dual": 2, "ssd": 3, "simulate": 3, "plotdata": 3,
                      "intertwine": 3, "verify": 3}
# the link residual each measures from products (LINK_MEASUREMENTS in
# test_cli.py): only simulate, whose coupled kernel is built from them
PAPER_SCALE_LINKS = {"dual": 0, "ssd": 0, "simulate": 1, "plotdata": 0, "intertwine": 0,
                     "verify": 0}


@pytest.mark.parametrize("script, args, rows", RUNS, ids=[run[0] for run in RUNS])
def test_script_prints_its_table(script, args, rows, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [arg.format(tmp=tmp_path) for arg in args]
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    table = [line for line in out.stdout.splitlines()
             if line.strip() and not line.startswith("#")]
    assert len(table) == rows + 1, out.stdout
    assert "skipped" not in out.stdout
    if "cold_rss_mb" in table[0]:
        column = table[0].split().index("cold_rss_mb")
        assert all(float(line.split()[column]) > 0 for line in table[1:]), out.stdout
    if "dense_builds" in table[0]:
        # each command builds P, the dual and P~ from their records where
        # it reads them densely (DENSE_BUILDS in test_cli.py), scans no raw
        # array for a record, and measures the link residual at most once
        header = table[0].split()
        command, builds, scans, links = (header.index(c) for c in (
            "command", "dense_builds", "band_scans", "link_measurements"))
        for line in table[1:]:
            row = line.split()
            assert int(row[builds]) == PAPER_SCALE_BUILDS[row[command]], line
            assert row[scans] == "0", line
            assert int(row[links]) == PAPER_SCALE_LINKS[row[command]], line
    if "--json" in args:
        # one JSON row per printed row, keyed by the header, with the printed values
        written = json.loads((tmp_path / "rows.json").read_text())
        assert [list(row) for row in written] == [table[0].split()] * rows
        for line, row in zip(table[1:], written):
            assert all(cell == str(v) if isinstance(v, (int, str)) else float(cell) == v
                       for cell, v in zip(line.split(), row.values())), (line, row)


def test_the_readme_library_snippet_runs(capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    sharp, witness, max_gap, excess = capsys.readouterr().out.split()
    # the Siegmund link's last column is zero off its top row: a witness at
    # N = 2, so separation equals survival
    assert (sharp, witness) == ("True", "2") and float(max_gap) <= 1e-9
    assert float(excess) <= float(max_gap)
