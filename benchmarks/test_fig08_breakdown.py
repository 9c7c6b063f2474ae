"""E5 — Fig. 8: step-wise breakdown of every proposed technique."""

from conftest import run_once

from repro.analysis import artifacts


def test_fig08_breakdown(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.fig8)
    record_table("fig08_breakdown", artifact.table)
    steps = artifact.data

    speedups = [s.speedup_vs_baseline for s in steps]
    utils = [s.fp32_utilization for s in steps]
    # Paper shape: monotone improvements, <10% baseline utilization,
    # ~4x after uniform interleaving, ~10.5x and ~95% utilization at the end.
    assert speedups == sorted(speedups)
    assert utils == sorted(utils)
    assert utils[0] < 0.12
    assert 2.5 <= speedups[1] <= 6.0  # paper: 4.06x
    assert 7.0 <= speedups[-1] <= 15.0  # paper: 10.5x
    assert utils[-1] >= 0.85  # paper: 94.7%
