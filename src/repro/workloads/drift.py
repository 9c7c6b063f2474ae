"""Temporal hotness drift: what makes the interleaving *adaptive* (§5.3).

The learned placement is computed at deploy time from training-set candidate
frequencies.  Production query distributions drift — new topics get hot,
old ones cool — and a placement tuned for yesterday's hotness gradually
loses its balance.  The framework's answer is periodic re-fine-tuning plus
re-interleaving (the FTL makes moving a vector a logical-address rewrite).

:class:`DriftingHotnessModel` interpolates per-label hotness between the
deploy-time distribution and an independently drawn future one; the drift
study (`benchmarks/test_ablations.py`, `examples/scale_out_and_drift.py`)
measures how channel balance decays with drift and how much re-tuning
recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .traces import CandidateTraceGenerator, LabelHotnessModel


@dataclass(frozen=True)
class DriftingHotnessModel:
    """Hotness that morphs from a base distribution toward a target one.

    ``drift`` in [0, 1]: 0 reproduces the base model exactly (what the
    placement was tuned for); 1 is a completely re-drawn hotness landscape.
    Interpolation happens in log-space so intermediate drifts stay
    Zipf-shaped.
    """

    base: LabelHotnessModel
    drift: float
    target_seed: int = 10_007

    def __post_init__(self) -> None:
        if not (0.0 <= self.drift <= 1.0):
            raise WorkloadError(f"drift must be in [0, 1], got {self.drift}")

    @property
    def seed(self) -> int:
        # CandidateTraceGenerator keys its RNG streams off this; keep it a
        # deterministic non-negative 32-bit value.
        mix = (self.target_seed * 1_000_003 + round(self.drift * 1e6)) & 0x7FFFFFFF
        return (self.base.seed ^ mix) & 0x7FFFFFFF

    def tile_weights(self, tile_index: int, tile_size: int) -> np.ndarray:
        """Log-space interpolation between base and target tile hotness."""
        base_w = self.base.tile_weights(tile_index, tile_size)
        if self.drift == 0.0:
            return base_w
        target_model = LabelHotnessModel(
            num_labels=self.base.num_labels,
            zipf_exponent=self.base.zipf_exponent,
            run_length=self.base.run_length,
            mass_noise=self.base.mass_noise,
            seed=self.target_seed,
        )
        target_w = target_model.tile_weights(tile_index, tile_size)
        log_mix = (1.0 - self.drift) * np.log(base_w) + self.drift * np.log(target_w)
        return np.exp(log_mix)


def drifted_generator(
    base: LabelHotnessModel,
    drift: float,
    candidate_ratio: float = 0.10,
    query_noise: float = 0.05,
) -> CandidateTraceGenerator:
    """A trace generator whose hotness has drifted from ``base``."""
    return CandidateTraceGenerator(
        DriftingHotnessModel(base=base, drift=drift),
        candidate_ratio=candidate_ratio,
        query_noise=query_noise,
    )


def placement_balance_under_drift(
    placement,
    base: LabelHotnessModel,
    drift: float,
    tile_index: int,
    tile_size: int,
    num_queries: int = 16,
    candidate_ratio: float = 0.10,
) -> float:
    """Time-weighted channel balance of a fixed placement under drift.

    The placement was built for ``base``'s hotness; candidates now come
    from the drifted distribution.  Returns total-pages / (channels x
    total-max) over the sampled queries — 1.0 is perfect balance.
    """
    generator = drifted_generator(base, drift, candidate_ratio=candidate_ratio)
    trace = generator.tile_trace(tile_index, tile_size, num_queries=num_queries)
    total_pages = 0
    total_max = 0
    channels = placement.num_channels
    for candidates in trace.candidates:
        counts = placement.pages_per_channel(candidates)
        total_pages += int(counts.sum())
        total_max += int(counts.max())
    if total_max == 0:
        return 1.0
    return total_pages / (channels * total_max)
