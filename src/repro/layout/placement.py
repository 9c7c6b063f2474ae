"""Placement framework: weight vectors -> flash channels -> logical pages.

A *placement* fixes, for every 32-bit weight vector, which flash channel
holds it and which logical page(s) within that channel.  The inference-time
question the timing model asks is: *given this tile's candidate vectors, how
many pages must each channel read?* — answered by
:meth:`WeightPlacement.pages_per_channel`.

Packing rules:

* a vector smaller than a page shares pages with its channel-neighbours
  (``vectors_per_page = page_size // vector_bytes``), so fetching two
  candidates that happen to sit in the same page costs one read;
* a vector larger than a page occupies ``ceil(vector_bytes / page_size)``
  dedicated pages.

Channel assignment itself is delegated to an :class:`InterleavingStrategy`
(§5's sequential / uniform / learned variants live in sibling modules).
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError, WorkloadError, candidate_ids

logger = logging.getLogger(__name__)


class InterleavingStrategy(abc.ABC):
    """Assigns each weight vector to a flash channel."""

    name: str = "abstract"

    @abc.abstractmethod
    def assign_channels(
        self,
        num_vectors: int,
        num_channels: int,
        tile_vectors: int,
    ) -> np.ndarray:
        """Return an int array (num_vectors,) of channel indices.

        ``tile_vectors`` is the number of weight vectors processed per tile;
        strategies that balance per-tile workloads (the learned one) need it.
        """


@dataclass
class WeightPlacement:
    """A concrete placement of ``num_vectors`` weight vectors."""

    num_vectors: int
    num_channels: int
    vector_bytes: int
    page_size: int
    channel_of: np.ndarray  # (L,) channel per vector
    slot_of: np.ndarray  # (L,) slot order within its channel
    strategy_name: str

    def __post_init__(self) -> None:
        if self.channel_of.shape != (self.num_vectors,):
            raise WorkloadError("channel_of must have one entry per vector")
        if self.slot_of.shape != (self.num_vectors,):
            raise WorkloadError("slot_of must have one entry per vector")
        if self.num_vectors and (
            self.channel_of.min() < 0 or self.channel_of.max() >= self.num_channels
        ):
            raise WorkloadError("channel index outside device")

    # --- packing arithmetic ------------------------------------------------------
    @property
    def vectors_per_page(self) -> int:
        """How many vectors share one page (0 when vectors span pages)."""
        if self.vector_bytes <= self.page_size:
            return max(1, self.page_size // self.vector_bytes)
        return 0

    @property
    def pages_per_vector(self) -> int:
        """Pages one vector occupies when it is page-sized or larger."""
        return -(-self.vector_bytes // self.page_size)

    def page_index_of(self, vector: int) -> int:
        """First channel-local page index holding ``vector``."""
        slot = int(self.slot_of[vector])
        if self.vectors_per_page:
            return slot // self.vectors_per_page
        return slot * self.pages_per_vector

    def channel_pages(self, channel: int) -> int:
        """Total channel-local pages this placement occupies on ``channel``."""
        count = int((self.channel_of == channel).sum())
        if self.vectors_per_page:
            return -(-count // self.vectors_per_page)
        return count * self.pages_per_vector

    # --- fetch analysis -------------------------------------------------------------
    def pages_per_channel(self, candidates: np.ndarray) -> np.ndarray:
        """Pages each channel reads to fetch ``candidates`` (Fig. 11's data).

        Shared pages are counted once; multi-page vectors count all their
        pages.  This is the per-tile access pattern whose maximum determines
        tile latency.
        """
        candidates = candidate_ids(candidates)
        if candidates.size == 0:
            return np.zeros(self.num_channels, dtype=np.int64)
        if candidates.min() < 0 or candidates.max() >= self.num_vectors:
            raise WorkloadError("candidate index outside placement")
        channels = self.channel_of[candidates]
        vectors_per_page = self.vectors_per_page
        # Mark each (channel, page) read -- or, when vectors span pages, each
        # (channel, slot) -- in a dense per-channel row spanning only the
        # candidates' units, then count the marks per row.  The key is built
        # per call because placements are edited in place (re-interleaving).
        units = self.slot_of[candidates]
        if vectors_per_page:
            units = units // vectors_per_page
        lo = int(units.min())
        stride = int(units.max()) - lo + 1
        touched = np.zeros(self.num_channels * stride, dtype=bool)
        touched[channels * stride + (units - lo)] = True
        counts = np.count_nonzero(touched.reshape(self.num_channels, stride), axis=1)
        return counts if vectors_per_page else counts * self.pages_per_vector

    def fetch_page_lists(self, candidates: np.ndarray) -> Dict[int, np.ndarray]:
        """Channel -> sorted channel-local page indices for a candidate set.

        This is what the event-level simulator consumes (each page becomes a
        flash read command on its channel).
        """
        candidates = candidate_ids(candidates)
        result: Dict[int, np.ndarray] = {}
        if candidates.size == 0:
            return result
        channels = self.channel_of[candidates]
        for channel in np.unique(channels):
            members = candidates[channels == channel]
            if self.vectors_per_page:
                pages = np.unique(self.slot_of[members] // self.vectors_per_page)
            else:
                starts = self.slot_of[members] * self.pages_per_vector
                pages = np.unique(
                    (starts[:, None] + np.arange(self.pages_per_vector)).ravel()
                )
            result[int(channel)] = pages.astype(np.int64)
        return result

    def balance_metric(self, candidates: np.ndarray) -> float:
        """mean/max page load across channels: 1.0 is perfectly balanced.

        This is exactly the channel-bandwidth-utilization upper bound for the
        tile: the tile ends when the busiest channel drains.
        """
        counts = self.pages_per_channel(candidates)
        peak = counts.max()
        if peak == 0:
            return 1.0
        return float(counts.mean() / peak)


def build_placement(
    strategy: InterleavingStrategy,
    num_vectors: int,
    num_channels: int,
    vector_bytes: int,
    page_size: int,
    tile_vectors: Optional[int] = None,
) -> WeightPlacement:
    """Run a strategy and pack its assignment into a :class:`WeightPlacement`.

    Slots are assigned in vector-index order within each channel, so two
    vectors adjacent in label order that share a channel also share (or
    neighbour) pages — matching how a real deployment streams the matrix in.
    """
    if num_vectors <= 0:
        raise ConfigurationError("placement needs at least one vector")
    if num_channels <= 0:
        raise ConfigurationError("placement needs at least one channel")
    if vector_bytes <= 0 or page_size <= 0:
        raise ConfigurationError("vector/page sizes must be positive")
    tile = tile_vectors if tile_vectors is not None else num_vectors
    channel_of = np.asarray(
        strategy.assign_channels(num_vectors, num_channels, tile),
        dtype=np.int64,
    )
    if channel_of.shape != (num_vectors,):
        raise WorkloadError(
            f"strategy {strategy.name!r} returned shape {channel_of.shape}"
        )
    slot_of = np.zeros(num_vectors, dtype=np.int64)
    for channel in range(num_channels):
        members = np.flatnonzero(channel_of == channel)
        slot_of[members] = np.arange(len(members))
    logger.debug(
        "placement %s: %d vectors over %d channels (max/channel %d)",
        strategy.name, num_vectors, num_channels,
        int(np.bincount(channel_of, minlength=num_channels).max()),
    )
    return WeightPlacement(
        num_vectors=num_vectors,
        num_channels=num_channels,
        vector_bytes=vector_bytes,
        page_size=page_size,
        channel_of=channel_of,
        slot_of=slot_of,
        strategy_name=strategy.name,
    )
