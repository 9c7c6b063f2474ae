"""Learning-based adaptive interleaving (§5.3, Fig. 7).

Placement happens at deploy time, before any query arrives, so the framework
*predicts* how likely each 32-bit weight vector is to be selected as a
candidate — its **hot degree** — and balances that predicted load across the
channels of every tile:

1. **Grading** — the predictor computes the sum of absolute 4-bit codes of
   each projected weight vector (big-magnitude rows produce big approximate
   scores, hence survive thresholds more often) and buckets vectors into
   three grades: very hot / medium hot / not hot.
2. **Fine-tuning** — observed candidate frequencies from running the screener
   over a training set refine the raw score (a convex blend, weighted by how
   much training evidence exists).
3. **Balanced interleaving** — within each tile window (classification is
   tile-by-tile, and a tile's latency is its busiest channel), vectors are
   assigned to channels by greedy longest-processing-time scheduling on the
   fine-tuned scores, so every channel carries nearly the same expected
   candidate load for every tile.

The FTL's static logical-range-per-channel contract
(:meth:`repro.ssd.ftl.FlashTranslationLayer.channel_logical_range`) is what
makes step 3 implementable by a host-side framework: assigning a logical
address from channel *c*'s range pins the vector to channel *c*.
"""

from __future__ import annotations

import enum
import heapq
import logging
from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .placement import InterleavingStrategy

logger = logging.getLogger(__name__)


class HotGrade(enum.IntEnum):
    """The paper's three-way hotness classification."""

    NOT_HOT = 0
    MEDIUM_HOT = 1
    VERY_HOT = 2


@dataclass
class HotnessPredictor:
    """Predicts per-vector candidate likelihood from INT4 weight codes.

    ``abs_sums`` is the §5.3 signal (sum of |4-bit code| per vector).  After
    optional fine-tuning with observed candidate frequencies, ``scores``
    holds the blended estimate used for balancing and ``grades`` the
    three-way bucketing (top 10% very hot, next 30% medium, rest not hot,
    following the screening candidate-ratio regime).
    """

    abs_sums: np.ndarray
    very_hot_fraction: float = 0.10
    medium_hot_fraction: float = 0.30

    def __post_init__(self) -> None:
        self.abs_sums = np.asarray(self.abs_sums, dtype=np.float64)
        if self.abs_sums.ndim != 1:
            raise WorkloadError("abs_sums must be 1-D (one per weight vector)")
        if not (0 < self.very_hot_fraction < 1) or not (
            0 < self.medium_hot_fraction < 1
        ):
            raise WorkloadError("grade fractions must be in (0, 1)")
        total = self.abs_sums.sum()
        self.scores = (
            self.abs_sums / total
            if total > 0
            else np.full_like(self.abs_sums, 1.0 / max(1, len(self.abs_sums)))
        )
        self._fine_tuned = False

    def __len__(self) -> int:
        return len(self.abs_sums)

    @classmethod
    def from_quantized(cls, quantized, **kwargs) -> "HotnessPredictor":
        """Build from a :class:`repro.screening.QuantizedMatrix`."""
        return cls(abs_sums=quantized.abs_sum_per_row().astype(np.float64), **kwargs)

    def fine_tune(
        self, candidate_frequency: np.ndarray, observations: int
    ) -> None:
        """Blend in observed per-vector candidate frequencies (§5.3).

        ``candidate_frequency`` is the fraction of training queries that
        selected each vector; ``observations`` is the number of training
        queries, controlling how much the empirical signal outweighs the
        prior (frequencies from 10 queries are noisier than from 10,000).
        """
        frequency = np.asarray(candidate_frequency, dtype=np.float64)
        if frequency.shape != self.abs_sums.shape:
            raise WorkloadError("one frequency per weight vector is required")
        if observations < 0:
            raise WorkloadError("observations cannot be negative")
        if frequency.min() < 0 or frequency.max() > 1:
            raise WorkloadError("frequencies must lie in [0, 1]")
        weight = observations / (observations + 32.0)
        prior = self.scores / max(self.scores.sum(), 1e-30)
        freq_total = frequency.sum()
        empirical = frequency / freq_total if freq_total > 0 else prior
        self.scores = (1.0 - weight) * prior + weight * empirical
        self._fine_tuned = True
        logger.debug(
            "fine-tuned hotness predictor on %d observations (blend %.2f)",
            observations, weight,
        )

    @property
    def is_fine_tuned(self) -> bool:
        return self._fine_tuned

    def grades(self) -> np.ndarray:
        """Three-grade bucketing of the current scores."""
        n = len(self.scores)
        order = np.argsort(self.scores)[::-1]
        grades = np.full(n, HotGrade.NOT_HOT, dtype=np.int64)
        very = max(1, int(round(n * self.very_hot_fraction)))
        medium = max(1, int(round(n * self.medium_hot_fraction)))
        grades[order[:very]] = HotGrade.VERY_HOT
        grades[order[very : very + medium]] = HotGrade.MEDIUM_HOT
        return grades


class LearnedInterleaving(InterleavingStrategy):
    """Per-tile LPT balancing of predicted hot mass across channels."""

    name = "learned"

    def __init__(self, predictor: HotnessPredictor) -> None:
        self.predictor = predictor

    def assign_channels(
        self, num_vectors: int, num_channels: int, tile_vectors: int
    ) -> np.ndarray:
        if num_vectors != len(self.predictor):
            raise WorkloadError(
                f"predictor covers {len(self.predictor)} vectors,"
                f" placement needs {num_vectors}"
            )
        if tile_vectors <= 0:
            raise WorkloadError("tile_vectors must be positive")
        scores = self.predictor.scores
        channels = np.empty(num_vectors, dtype=np.int64)
        for start in range(0, num_vectors, tile_vectors):
            stop = min(start + tile_vectors, num_vectors)
            channels[start:stop] = self._balance_tile(
                scores[start:stop], num_channels
            )
        return channels

    @staticmethod
    def _balance_tile(scores: np.ndarray, num_channels: int) -> np.ndarray:
        """Greedy LPT: heaviest vector first onto the lightest channel.

        Ties break toward the channel with fewer vectors so counts stay
        even too (page-packing benefits from even counts).
        """
        order = np.argsort(scores)[::-1]
        assignment = np.empty(len(scores), dtype=np.int64)
        heap = [(0.0, 0, c) for c in range(num_channels)]
        heapq.heapify(heap)
        for index in order:
            load, count, channel = heapq.heappop(heap)
            assignment[index] = channel
            heapq.heappush(heap, (load + float(scores[index]), count + 1, channel))
        return assignment


def empirical_frequencies(
    candidates_per_query, num_vectors: int
) -> np.ndarray:
    """Per-vector selection frequency from a list of candidate index arrays."""
    counts = np.zeros(num_vectors, dtype=np.int64)
    queries = 0
    for selected in candidates_per_query:
        counts[np.asarray(selected, dtype=np.int64)] += 1
        queries += 1
    if queries == 0:
        return np.zeros(num_vectors, dtype=np.float64)
    return counts / queries
