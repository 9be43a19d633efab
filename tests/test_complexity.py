"""Memory exponents of the CLI commands, free of host noise.

Each command runs through ``cli.run`` in process on Moran (N, .5, .5) with
the Siegmund dual at N = 125 and N = 500, and the ratio of the two
``tracemalloc`` peaks is gated.  For 4x the states a ratio of 4 is O(n)
memory and 16 is O(n^2).  The peaks are deterministic, unlike wall times.
``intertwine`` has no gate: it reads 15.5, but takes 1.4 s at these sizes
on a 2-vCPU x86-64 host, which would double the test's time.  ``dual``
reads 15.45 in 0.5 s there.
"""
import json
import tracemalloc

import numpy  # noqa: F401  imported before any peak is taken, as SciPy is
import pytest
import scipy.linalg  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.stats  # noqa: F401

from dualchain import cli

EXTRA = {"plotdata": ["--series", "absorption_pmf"]}
# cutoff sweeps its own sizes; the config's N is only checked
OPTIONS = {"cutoff": {"sweep": [20, 40]}}

# the peak ratio N = 500 / N = 125 each command reads at this version.
# simulate is dominated at N = 125 by its 10,000 x 51 trajectories and at
# N = 500 by the dense n x n kernels.  Tighten a gate when its command
# moves to O(n) memory.
RATIO = {"ssd": 15.0, "verify": 15.0, "dual": 15.5, "plotdata": 13.0, "spectrum": 14.9,
         "simulate": 6.2}
# a gate is its ratio plus 10 %; a command that grew by a further factor
# n^(1/2) would read twice its ratio
MARGIN = 1.1
# the commands held to O(n) memory, gated at a ratio of 5: 4 for the states
# plus room for what a run allocates whatever its size
LINEAR = {"cutoff"}
LINEAR_GATE = 5.0


def peak(tmp_path, command, N):
    """tracemalloc peak of one command, in bytes."""
    config = tmp_path / f"moran_{N}.json"
    config.write_text(json.dumps({"kind": "moran_mutation", "N": N, "a1": 0.5, "a2": 0.5,
                                  "dual": {"family": "siegmund"},
                                  "options": OPTIONS.get(command, {})}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / str(N)),
            *EXTRA.get(command, [])]
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(RATIO.keys() | LINEAR))
def test_memory_ratio_per_command(tmp_path, command):
    peak(tmp_path, command, 20)      # lazy imports and first-call set-up
    ratio = peak(tmp_path, command, 500) / peak(tmp_path, command, 125)
    gate = LINEAR_GATE if command in LINEAR else MARGIN * RATIO[command]
    assert ratio <= gate, f"{command}: peak ratio {ratio:.2f}"
