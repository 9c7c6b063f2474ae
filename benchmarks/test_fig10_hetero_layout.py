"""E7 — Fig. 10: heterogeneous vs homogeneous layout across candidate ratios."""

import numpy as np
from conftest import run_once

from repro.analysis import artifacts


def test_fig10_hetero_layout(benchmark, record_table):
    artifact = run_once(benchmark, artifacts.fig10)
    record_table("fig10_hetero_layout", artifact.table)
    points = artifact.data
    avg = float(np.mean([p.speedup for p in points]))

    # Shape: hetero always wins, gains shrink as candidate traffic grows
    # (the fixed 4-bit stream matters less), average in the paper's range.
    assert all(p.speedup > 1.0 for p in points)
    speedups = [p.speedup for p in points]
    assert speedups[0] == max(speedups)
    assert 1.15 <= avg <= 2.0  # paper: 1.43x
