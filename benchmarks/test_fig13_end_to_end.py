"""E10 — Fig. 13: end-to-end comparison with eight baseline architectures."""

from conftest import run_once

from repro.analysis import artifacts


def test_fig13_end_to_end(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.fig13)
    record_table("fig13_end_to_end", artifact.table)
    results = artifact.data

    ecssd, baselines = results[0], results[1:]
    assert ecssd.architecture == "ECSSD"
    # Exact paper ordering: CPU-N slowest down to SmartSSD-H-AP fastest.
    slowdowns = [r.mean_slowdown_vs_ecssd for r in baselines]
    assert slowdowns == sorted(slowdowns, reverse=True)
    assert [r.architecture for r in baselines] == [
        "CPU-N", "SmartSSD-N", "GenStore-N", "SmartSSD-H-N",
        "CPU-AP", "SmartSSD-AP", "GenStore-AP", "SmartSSD-H-AP",
    ]
    # Every factor within 2x of the published one (paper: 49.87x .. 3.24x).
    for r in baselines:
        ratio = r.mean_slowdown_vs_ecssd / r.paper_slowdown
        assert 0.5 <= ratio <= 2.0, (r.architecture, r.mean_slowdown_vs_ecssd)
    # Headline range.
    assert slowdowns[0] > 30
    assert slowdowns[-1] > 2
