"""Replica routing for label-sharded, replicated ECSSD clusters.

The scale-out model (§7.1, :mod:`repro.core.scaleout`) partitions the label
space across S devices; every query must visit *all* shards of one replica
group and completes at the slowest shard plus the host-side top-k merge.  A
production deployment replicates that group R times for throughput.  The
router therefore places whole batches onto replica *groups*, one batch per
group at a time:

* **fastest idle group, hotness-weighted** — among idle groups, pick the one
  minimizing ``speed``, the group's worst-shard service-time multiplier
  derived from per-shard hot degree (ties break to the lowest index, so
  placement is deterministic);
* **per-shard hot degree** comes from the layout package's
  :class:`~repro.layout.learned.HotnessPredictor` (§5.3): the same
  sum-of-|INT4-code| signal that drives adaptive interleaving, aggregated
  over each shard's slice of the label space and normalized to mean 1.

The router also owns the fan-out cost model: a batch's service time on a
group is the max over shards of the service model evaluated at that shard's
label fraction and hot degree, plus the §7.1 merge transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..layout.learned import HotnessPredictor
from ..units import gbps
from ..workloads.traces import CandidateTraceGenerator
from .scheduler import AffineServiceModel

#: Bytes per (label, score) result entry in the host merge (§7.1).
MERGE_ENTRY_BYTES = 12

#: Host merge link, matching ScaleOutCluster's default.
MERGE_BANDWIDTH = gbps(10.0)

#: Results per query at full fidelity (the top-k each shard returns).
TOP_K = 5

#: Tiles :func:`shard_hot_degrees` samples from each shard's label slice.
TILES_PER_SHARD = 2


@dataclass(frozen=True)
class ShardModel:
    """One device's slice of the label space, with its predicted heat."""

    index: int
    label_fraction: float
    hot_degree: float

    def __post_init__(self) -> None:
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigurationError("label_fraction must be in (0, 1]")
        if self.hot_degree <= 0:
            raise ConfigurationError("hot_degree must be positive")


class ReplicaState:
    """One replica group: S shards that execute every batch in parallel."""

    def __init__(self, index: int, shards: List[ShardModel]) -> None:
        if not shards:
            raise ConfigurationError("a replica needs at least one shard")
        self.index = index
        self.shards = shards
        self.outstanding_batches = 0
        self.outstanding_requests = 0

    @property
    def speed_factor(self) -> float:
        """Relative service-time multiplier of the group's slowest shard."""
        return max(s.label_fraction * s.hot_degree for s in self.shards)


def shard_hot_degrees(
    generator: CandidateTraceGenerator,
    num_shards: int,
    tile_size: int,
) -> List[float]:
    """Per-shard hot degree from the §5.3 predictor signal.

    Samples :data:`TILES_PER_SHARD` tiles from each shard's contiguous slice of
    the label space, feeds their |INT4-code| sums through one
    :class:`~repro.layout.learned.HotnessPredictor` (so scores are
    comparable across shards), and returns each shard's share of the total
    predicted candidate load, normalized to mean 1.0.
    """
    if num_shards <= 0:
        raise ConfigurationError("num_shards must be positive")
    if tile_size <= 0:
        raise ConfigurationError("tile_size must be positive")
    per_tile = [
        generator.predictor_abs_sums(shard * TILES_PER_SHARD + sample, tile_size)
        for shard in range(num_shards)
        for sample in range(TILES_PER_SHARD)
    ]
    predictor = HotnessPredictor(np.concatenate(per_tile))
    scores = predictor.scores
    span = TILES_PER_SHARD * tile_size
    masses = np.array(
        [scores[s * span : (s + 1) * span].sum() for s in range(num_shards)]
    )
    mean_mass = masses.mean()
    if mean_mass <= 0:
        return [1.0] * num_shards
    return [float(m / mean_mass) for m in masses]


def build_replicas(
    num_replicas: int,
    hot_degrees: List[float],
) -> List[ReplicaState]:
    """R identical replica groups over the same label sharding."""
    if num_replicas <= 0:
        raise ConfigurationError("num_replicas must be positive")
    if not hot_degrees:
        raise ConfigurationError("need at least one shard hot degree")
    fraction = 1.0 / len(hot_degrees)
    shards = [
        ShardModel(index=i, label_fraction=fraction, hot_degree=degree)
        for i, degree in enumerate(hot_degrees)
    ]
    return [ReplicaState(index=r, shards=shards) for r in range(num_replicas)]


class Router:
    """Places batches on replica groups and prices their execution."""

    def __init__(self, replicas: List[ReplicaState], service: AffineServiceModel) -> None:
        if not replicas:
            raise ConfigurationError("router needs at least one replica")
        self.replicas = replicas
        self.service = service

    @property
    def inflight_requests(self) -> int:
        return sum(r.outstanding_requests for r in self.replicas)

    def has_capacity(self) -> bool:
        """Whether some replica group is idle."""
        return any(r.outstanding_batches == 0 for r in self.replicas)

    def route(self) -> Optional[ReplicaState]:
        """Fastest idle replica group, weighted by shard heat.

        Returns ``None`` when every group is busy.  The key
        ``(speed_factor, index)`` sends work to the idle group that would
        finish it soonest; the index tie-break keeps the choice
        deterministic.
        """
        best: Optional[Tuple[float, int]] = None
        chosen: Optional[ReplicaState] = None
        for replica in self.replicas:
            if replica.outstanding_batches:
                continue
            key = (replica.speed_factor, replica.index)
            if best is None or key < best:
                best = key
                chosen = replica
        return chosen

    def merge_time(self, batch: int, top_k_scale: float = 1.0) -> float:
        """§7.1 host merge: per-device top-k lists over the host link."""
        shards = len(self.replicas[0].shards)
        effective_k = max(1, int(round(TOP_K * top_k_scale)))
        merge_bytes = batch * effective_k * MERGE_ENTRY_BYTES * shards
        return merge_bytes / MERGE_BANDWIDTH

    def batch_time_on(
        self,
        replica: ReplicaState,
        batch: int,
        candidate_scale: float = 1.0,
        top_k_scale: float = 1.0,
    ) -> float:
        """Fan-out execution time: slowest shard + merge."""
        slowest = max(
            self.service.batch_time(
                batch,
                candidate_scale=candidate_scale * shard.hot_degree,
                work_fraction=shard.label_fraction,
            )
            for shard in replica.shards
        )
        return slowest + self.merge_time(batch, top_k_scale)

    def worst_batch_time(self, batch: int) -> float:
        """Full-fidelity upper bound over all replica groups."""
        return max(
            self.batch_time_on(replica, batch) for replica in self.replicas
        )

    def acquire(self, replica: ReplicaState, batch: int) -> None:
        if replica.outstanding_batches:
            raise SimulationError(f"replica {replica.index} is already busy")
        replica.outstanding_batches += 1
        replica.outstanding_requests += batch

    def release(self, replica: ReplicaState, batch: int) -> None:
        if replica.outstanding_batches <= 0 or replica.outstanding_requests < batch:
            raise SimulationError(
                f"replica {replica.index} released more work than it holds"
            )
        replica.outstanding_batches -= 1
        replica.outstanding_requests -= batch
