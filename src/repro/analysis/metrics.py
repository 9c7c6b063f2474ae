"""Small metric helpers shared by experiments and tests."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import WorkloadError


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the right average for speedup ratios)."""
    values = list(values)
    if not values:
        raise WorkloadError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise WorkloadError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def topk_retention(
    clean_labels: np.ndarray,
    faulty_labels: np.ndarray,
) -> float:
    """Fraction of queries whose clean top-1 label survives in the faulty top-k.

    The accuracy-cost metric for device faults: ``clean_labels`` and
    ``faulty_labels`` are the ``(B, k)`` top-k label matrices of a fault-free
    and a fault-injected run of the *same* queries.  A query retains its
    answer when the clean run's best label still appears anywhere in the
    faulty run's top-k (padding label -1 never matches).  Because fault
    drops are nested across an RBER sweep — a higher error rate drops a
    superset of labels — retention is monotonically nonincreasing in the
    injected RBER.
    """
    clean = np.atleast_2d(np.asarray(clean_labels))
    faulty = np.atleast_2d(np.asarray(faulty_labels))
    if clean.shape[0] != faulty.shape[0]:
        raise WorkloadError(
            f"query counts differ: {clean.shape[0]} clean vs {faulty.shape[0]} faulty"
        )
    if clean.shape[0] == 0:
        raise WorkloadError("top-k retention of an empty batch")
    top1 = clean[:, 0]
    hits = (faulty == top1[:, None]) & (top1[:, None] >= 0)
    return float(np.mean(np.any(hits, axis=1)))


def weighted_utilization(
    pages_per_channel_series: Sequence[np.ndarray],
) -> float:
    """Time-weighted channel utilization over many tiles.

    Total useful transfer divided by total channel-time, where each tile's
    wall time is its busiest channel — the aggregate Fig. 8 reports.
    """
    total_pages = 0
    total_max = 0
    channels = None
    for counts in pages_per_channel_series:
        counts = np.asarray(counts)
        if channels is None:
            channels = len(counts)
        total_pages += int(counts.sum())
        total_max += int(counts.max())
    if channels is None or total_max == 0:
        return 1.0
    return total_pages / (channels * total_max)
