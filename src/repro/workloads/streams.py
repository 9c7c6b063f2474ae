"""Query arrival streams: load generation for latency-under-load studies.

:func:`poisson_arrivals` generates a deterministic (seeded) sequence of
memoryless arrival times at a target rate, the classic open-loop load
model.  The serving and fleet simulators, the ablation runners and the
benchmarks replay it.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError


def poisson_arrivals(rate: float, num_queries: int, seed: int = 0) -> np.ndarray:
    """Arrival timestamps of a Poisson process at ``rate`` queries/s."""
    if rate <= 0:
        raise WorkloadError("rate must be positive")
    if num_queries <= 0:
        raise WorkloadError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_queries)
    return np.cumsum(gaps)
