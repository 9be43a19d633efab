"""The benchmark's own operations, run once and judged by its own checks:
every solve op of both workloads and the sim ops of `coupled_sim`.  A rename
or a signature change in what `perfbench/workloads.py` calls fails here
before a benchmark run does."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_solve_and_sim_ops_pass(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    moran = workloads.MoranSsd(0, ROOT, tmp_path / "moran_ssd", in_process_cli=True)
    coupled = workloads.CoupledSim(0, ROOT, tmp_path / "coupled_sim", in_process_cli=True)
    rec = workloads.Recorder()
    # the sim ops sample the kernels the solve ops of coupled_sim prepare
    for op in [*moran.solve_ops(), *coupled.solve_ops(), *coupled.sim_ops()]:
        workloads.run_op(op, rec)
    assert rec.failures == {}
    assert (rec.attempted, rec.failed) == (9, 0)
