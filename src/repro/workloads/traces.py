"""Scalable candidate-trace generation for tile-level timing experiments.

The huge Table 3 benchmarks (10M-100M labels) cannot be materialized as
matrices, but the timing model only needs *which labels each query selects
per tile*.  :class:`CandidateTraceGenerator` synthesizes those selections
directly from a statistical hotness model, tile by tile, with the two
properties measured on real extreme-classification label distributions:

* per-label selection probability is Zipf-skewed (head labels are selected
  by most queries, the long tail rarely);
* hot labels appear in contiguous *runs* in label-index space (labels are
  grouped by topic/frequency when models are exported), which is what makes
  uniform round-robin interleaving imbalanced per tile.

Generation is deterministic per (seed, tile index) so any tile can be
re-generated independently — experiments sample a handful of tiles from a
100M-label space and scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class LabelHotnessModel:
    """Statistical model of per-label candidate probability within tiles.

    ``zipf_exponent`` controls head-vs-tail skew; ``run_length`` is the size
    of contiguous hot label runs; ``mass_noise`` adds per-tile lognormal
    variation of total hotness (some tiles hold hot topics, others don't).
    """

    num_labels: int
    zipf_exponent: float = 1.1
    run_length: int = 32
    mass_noise: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_labels <= 0:
            raise WorkloadError("num_labels must be positive")
        if self.zipf_exponent < 0:
            raise WorkloadError("zipf_exponent must be non-negative")
        if self.run_length <= 0:
            raise WorkloadError("run_length must be positive")

    def tile_weights(self, tile_index: int, tile_size: int) -> np.ndarray:
        """Unnormalized per-label hotness for one tile (deterministic).

        Labels come in runs of ``run_length``; each run draws one Zipf-style
        weight (``u^-zipf`` for uniform u), shared with jitter by its
        members, producing contiguous hot stretches.
        """
        if tile_size <= 0:
            raise WorkloadError("tile_size must be positive")
        rng = np.random.default_rng((self.seed, 0xEC55D, tile_index))
        runs = -(-tile_size // self.run_length)
        u = rng.random(runs) + 1e-9
        run_weight = u ** (-self.zipf_exponent)
        weights = np.repeat(run_weight, self.run_length)[:tile_size]
        jitter = rng.lognormal(0.0, 0.25, size=tile_size)
        tile_mass = rng.lognormal(0.0, self.mass_noise)
        return weights * jitter * tile_mass


@dataclass
class TileTrace:
    """Candidate selections of ``num_queries`` queries within one tile."""

    tile_index: int
    tile_start: int
    tile_size: int
    candidates: List[np.ndarray]  # per query, tile-local indices
    weights: np.ndarray  # the hotness weights used

    @property
    def num_queries(self) -> int:
        return len(self.candidates)

    def selection_frequency(self) -> np.ndarray:
        """Per-label (tile-local) fraction of queries that selected it."""
        counts = np.zeros(self.tile_size, dtype=np.int64)
        for selected in self.candidates:
            counts[selected] += 1
        return counts / max(1, self.num_queries)


class CandidateTraceGenerator:
    """Generates per-tile candidate traces from a hotness model."""

    def __init__(
        self,
        hotness: LabelHotnessModel,
        candidate_ratio: float = 0.10,
        query_noise: float = 1.0,
    ) -> None:
        if not (0 < candidate_ratio <= 1):
            raise WorkloadError("candidate_ratio must be in (0, 1]")
        if query_noise < 0:
            raise WorkloadError("query_noise must be non-negative")
        self.hotness = hotness
        self.candidate_ratio = candidate_ratio
        self.query_noise = query_noise

    def tile_trace(
        self, tile_index: int, tile_size: int, num_queries: int, seed: int = 0
    ) -> TileTrace:
        """Sample candidate sets for one tile.

        Each query draws Gumbel-perturbed log-hotness scores (``query_noise``
        scales the perturbation: 0 = every query selects the same hottest
        labels, large = near-uniform selection) and keeps the top
        ``candidate_ratio`` share of the tile.
        """
        if num_queries <= 0:
            raise WorkloadError("num_queries must be positive")
        weights = self.hotness.tile_weights(tile_index, tile_size)
        log_w = np.log(weights)
        keep = max(1, int(round(tile_size * self.candidate_ratio)))
        rng = np.random.default_rng((self.hotness.seed, 0xCA4D, tile_index, seed))
        candidates: List[np.ndarray] = []
        for _ in range(num_queries):
            gumbel = rng.gumbel(0.0, self.query_noise, size=tile_size)
            scores = log_w + gumbel
            top = np.argpartition(scores, -keep)[-keep:]
            candidates.append(np.sort(top).astype(np.int64))
        tile_start = tile_index * tile_size
        return TileTrace(
            tile_index=tile_index,
            tile_start=tile_start,
            tile_size=tile_size,
            candidates=candidates,
            weights=weights,
        )

    def predictor_abs_sums(
        self, tile_index: int, tile_size: int, fidelity: float = 0.8
    ) -> np.ndarray:
        """Synthetic INT4 |code|-sum signal correlated with true hotness.

        ``fidelity`` in [0, 1] blends the true log-hotness with independent
        noise — 1.0 is a perfect predictor, 0.0 is uninformative.  Real
        predictors sit high (big projected rows do produce big approximate
        scores) but are imperfect, hence the paper's fine-tuning step.
        """
        if not (0.0 <= fidelity <= 1.0):
            raise WorkloadError("fidelity must be in [0, 1]")
        weights = self.hotness.tile_weights(tile_index, tile_size)
        rng = np.random.default_rng((self.hotness.seed, 0xAB5, tile_index))
        log_w = np.log(weights)
        noise = rng.normal(0.0, log_w.std() + 1e-9, size=tile_size)
        blended = fidelity * log_w + (1.0 - fidelity) * noise
        # Map to a plausible |code|-sum range: positive, bounded.
        shifted = blended - blended.min()
        scale = shifted.max() if shifted.max() > 0 else 1.0
        return 1.0 + 6.0 * shifted / scale  # in [1, 7] "average |code|" units
