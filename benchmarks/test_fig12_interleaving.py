"""E9 — Fig. 12: sequential vs uniform vs learned on four benchmarks."""

import numpy as np
from conftest import run_once

from repro.analysis import artifacts


def test_fig12_interleaving(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.fig12)
    record_table("fig12_interleaving", artifact.table)
    results = artifact.data
    lu = float(np.mean([r.speedup("uniform", "learned") for r in results]))
    ls = float(np.mean([r.speedup("sequential", "learned") for r in results]))

    for r in results:
        assert r.times["learned"] < r.times["uniform"] < r.times["sequential"]
    assert 1.1 <= lu <= 2.0  # paper: 1.43x
    assert 4.5 <= ls <= 11.0  # paper: 7.57x
