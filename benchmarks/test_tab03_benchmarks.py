"""E3 — Table 3: benchmark registry and §6.1 matrix geometry."""

import pytest
from conftest import run_once

from repro.analysis import artifacts
from repro.units import GB
from repro.workloads.benchmarks import get_benchmark


def test_tab03_benchmarks(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.tab3)
    record_table("tab03_benchmarks", artifact.table)
    specs = artifact.data

    assert len(specs) == 7
    s100m = get_benchmark("XMLCNN-S100M")
    # §6.1's worked example: 12.8 GB / 400 GB for S100M.
    assert s100m.int4_matrix_bytes == pytest.approx(12.8 * GB, rel=0.01)
    assert s100m.fp32_matrix_bytes == pytest.approx(400 * GB, rel=0.03)
    # Category counts exactly as published.
    assert [s.num_labels for s in specs] == [
        32_317, 33_278, 267_744, 670_091, 10_000_000, 50_000_000, 100_000_000
    ]
