"""E6/E11 — Fig. 9 and §4.2: MAC circuit comparison and GFLOPS claims."""

import pytest
from conftest import run_once

from repro.analysis import artifacts
from repro.analysis.reporting import render_table
from repro.cfp32.circuits import MacCircuitModel, MacDesign, required_fp32_gflops


def test_fig09_mac_comparison(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.fig9)
    record_table("fig09_mac_circuit", artifact.table)
    rows_data = artifact.data

    for r in rows_data:
        assert r.area_ratio == pytest.approx(r.paper_area_ratio, rel=0.02)
        assert r.power_ratio == pytest.approx(r.paper_power_ratio, rel=0.02)


def test_sec42_gflops_claims(benchmark, record_table):
    """§4.2's LSTM-W33K numbers: 34.8 needed, 29.2 naive, 50 alignment-free."""

    def experiment():
        needed = required_fp32_gflops(8e9, batch_size=8.7)
        naive = MacCircuitModel(MacDesign.NAIVE).gflops_under_area(0.139)
        ours = MacCircuitModel(MacDesign.ALIGNMENT_FREE).gflops_under_area(0.139)
        return needed, naive, ours

    needed, naive, ours = run_once(benchmark, experiment)
    table = render_table(
        ["quantity", "ours", "paper"],
        [
            ["GFLOPS needed to consume the flash stream", f"{needed:.1f}", "34.8"],
            ["naive FP32 MAC under the area budget", f"{naive:.1f}", "29.2"],
            ["alignment-free FP32 MAC under the budget", f"{ours:.1f}", "50"],
        ],
        title="Section 4.2 GFLOPS claims (LSTM-W33K)",
    )
    record_table("sec42_gflops", table)

    assert needed == pytest.approx(34.8, rel=0.01)
    assert naive == pytest.approx(29.2, rel=0.05)
    assert ours == pytest.approx(50.0, rel=0.05)
    assert naive < needed <= ours  # the compute-bound -> hidden transition
