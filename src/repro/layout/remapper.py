"""Online re-interleaving: moving vectors when the placement goes stale.

The drift study shows a placement tuned at deploy time loses channel balance
as query hotness drifts; §5.3's framework can fix it because the FTL makes
"move vector v to channel c" a logical-address rewrite plus a data copy.
This module computes and prices that maintenance operation:

* :func:`diff_placements` — which vectors actually change channel between an
  old and a new placement (most don't: hotness drifts at the head);
* :class:`RemapPlan` — the move list plus its I/O cost: each moved vector is
  read from its old channel and programmed on its new one, overlapping
  channel work like any other flash traffic;
* :func:`remap_time` — the executor's makespan under per-channel read/
  program queues, so a maintenance window can be scheduled against the
  re-tuning benefit measured in the drift ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import ECSSDConfig
from ..errors import WorkloadError
from .placement import WeightPlacement


@dataclass(frozen=True)
class VectorMove:
    """One vector's relocation."""

    vector: int
    source_channel: int
    target_channel: int


@dataclass
class RemapPlan:
    """The set of moves turning ``old`` into ``new``."""

    moves: List[VectorMove] = field(default_factory=list)
    total_vectors: int = 0

    @property
    def moved_fraction(self) -> float:
        if self.total_vectors == 0:
            return 0.0
        return len(self.moves) / self.total_vectors

    def reads_per_channel(self, channels: int) -> np.ndarray:
        counts = np.zeros(channels, dtype=np.int64)
        for move in self.moves:
            counts[move.source_channel] += 1
        return counts

    def programs_per_channel(self, channels: int) -> np.ndarray:
        counts = np.zeros(channels, dtype=np.int64)
        for move in self.moves:
            counts[move.target_channel] += 1
        return counts


def diff_placements(old: WeightPlacement, new: WeightPlacement) -> RemapPlan:
    """Vectors whose channel changed between two placements."""
    if old.num_vectors != new.num_vectors:
        raise WorkloadError("placements cover different vector counts")
    if old.num_channels != new.num_channels:
        raise WorkloadError("placements target different channel counts")
    changed = np.flatnonzero(old.channel_of != new.channel_of)
    moves = [
        VectorMove(
            vector=int(v),
            source_channel=int(old.channel_of[v]),
            target_channel=int(new.channel_of[v]),
        )
        for v in changed
    ]
    return RemapPlan(moves=moves, total_vectors=old.num_vectors)


def remap_time(
    plan: RemapPlan,
    vector_bytes: int,
    config: Optional[ECSSDConfig] = None,
) -> float:
    """Makespan of executing a remap plan.

    Each channel serves its read queue and its program queue; reads stream
    at the channel rate, programs at the die-limited program rate.  The
    busiest channel sets the makespan (moves buffer through the device's
    DRAM, so reads and programs on *different* channels overlap freely).
    """
    if vector_bytes <= 0:
        raise WorkloadError("vector_bytes must be positive")
    config = config or ECSSDConfig()
    flash = config.flash
    channels = flash.channels
    pages_per_vector = max(1, -(-vector_bytes // flash.page_size))
    read_time_per_vector = pages_per_vector * max(
        flash.page_transfer_time, flash.read_latency / flash.dies_per_channel
    )
    program_time_per_vector = (
        pages_per_vector * flash.program_latency / flash.dies_per_channel
    )
    reads = plan.reads_per_channel(channels) * read_time_per_vector
    programs = plan.programs_per_channel(channels) * program_time_per_vector
    per_channel = reads + programs
    return float(per_channel.max()) if plan.moves else 0.0


def incremental_rebalance(
    placement: WeightPlacement,
    scores: np.ndarray,
    tolerance: float = 0.05,
    max_moves: Optional[int] = None,
) -> tuple:
    """Minimal-move rebalancing: fix imbalance without a full re-layout.

    A full LPT re-run relocates most of a tile even for small hotness
    perturbations (any reordering cascades).  This operator instead keeps
    the existing placement and greedily migrates vectors from the heaviest
    channel to the lightest until every channel is within ``tolerance`` of
    the mean predicted load — the maintenance loop an operator would
    actually run.

    Returns ``(new_channel_of, plan)``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (placement.num_vectors,):
        raise WorkloadError("one score per vector is required")
    if tolerance <= 0:
        raise WorkloadError("tolerance must be positive")
    channels = placement.num_channels
    channel_of = placement.channel_of.copy()
    loads = np.zeros(channels, dtype=np.float64)
    for c in range(channels):
        loads[c] = scores[channel_of == c].sum()
    mean = loads.mean()
    moves: List[VectorMove] = []
    budget = max_moves if max_moves is not None else placement.num_vectors
    while len(moves) < budget:
        heavy = int(np.argmax(loads))
        light = int(np.argmin(loads))
        excess = loads[heavy] - mean
        if excess <= tolerance * mean or heavy == light:
            break
        members = np.flatnonzero(channel_of == heavy)
        if members.size == 0:
            break
        # Move the vector whose score best matches the excess (but no more
        # than the gap to the lightest channel, to avoid oscillation).
        gap = min(excess, mean - loads[light])
        if gap <= 0:
            break
        member_scores = scores[members]
        candidates = members[member_scores <= excess]
        if candidates.size == 0:
            candidates = members
        pick = candidates[np.argmin(np.abs(scores[candidates] - gap))]
        if scores[pick] <= 0:
            break
        channel_of[pick] = light
        loads[heavy] -= scores[pick]
        loads[light] += scores[pick]
        moves.append(
            VectorMove(vector=int(pick), source_channel=heavy, target_channel=light)
        )
    plan = RemapPlan(moves=moves, total_vectors=placement.num_vectors)
    return channel_of, plan
