"""Scale-out execution across multiple ECSSDs (§7.1).

When the classification layer outgrows a single device's DRAM (the 4-bit
matrix must stay resident), the layer is partitioned label-wise across
several ECSSDs that screen and classify their shards in parallel; the host
merges the per-device top-k lists.  The paper sizes a 500M-category layer at
5 devices; this module makes the plan executable:

* :func:`partition_labels` — contiguous label shards sized to the per-device
  DRAM budget;
* :class:`ScaleOutCluster` — N devices running the same trace-driven timing
  model on their shards; cluster latency is the slowest shard plus the
  host-side merge;
* top-k merging is exact: each device returns its local top-k, and the
  global top-k over the union of shards equals the top-k of the merged
  candidates (shards partition the label space).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config import ECSSDConfig
from ..errors import CapacityError, ConfigurationError
from ..obs import CLUSTER_TRACK
from ..obs.hooks import current

logger = logging.getLogger(__name__)
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.traces import CandidateTraceGenerator, LabelHotnessModel
from .ecssd import ECSSDevice, PerformanceReport
from .pipeline import PipelineFeatures

_DRAM_RESERVED = 256 * 1024 * 1024


@dataclass(frozen=True)
class LabelShard:
    """One device's contiguous slice of the label space."""

    device_index: int
    start: int
    stop: int

    @property
    def num_labels(self) -> int:
        return self.stop - self.start

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ConfigurationError(f"invalid shard bounds [{self.start}, {self.stop})")


def max_labels_per_device(
    spec: BenchmarkSpec, config: Optional[ECSSDConfig] = None
) -> int:
    """Largest shard whose 4-bit matrix fits one device's DRAM."""
    config = config or ECSSDConfig()
    usable = config.dram_capacity - _DRAM_RESERVED
    per_label = spec.int4_vector_bytes
    if per_label <= 0:
        raise ConfigurationError("benchmark has zero-byte INT4 vectors")
    limit = usable // per_label
    if limit <= 0:
        raise CapacityError("device DRAM cannot hold even one label's codes")
    return int(limit)


def partition_labels(
    spec: BenchmarkSpec,
    config: Optional[ECSSDConfig] = None,
    devices: Optional[int] = None,
) -> List[LabelShard]:
    """Split ``spec``'s label space into per-device shards.

    With ``devices=None`` the minimum feasible device count is used; an
    explicit count is validated against the DRAM budget.  Shards are
    near-equal so the parallel makespan stays balanced.
    """
    limit = max_labels_per_device(spec, config)
    needed = -(-spec.num_labels // limit)
    count = needed if devices is None else devices
    if count < needed:
        raise CapacityError(
            f"{count} devices cannot hold {spec.num_labels} labels"
            f" ({limit} per device max)"
        )
    base = spec.num_labels // count
    remainder = spec.num_labels % count
    shards: List[LabelShard] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < remainder else 0)
        shards.append(LabelShard(device_index=index, start=start, stop=start + size))
        start += size
    return shards


@dataclass
class ClusterReport:
    """Timing of one scale-out inference."""

    shard_reports: List[PerformanceReport]
    merge_time: float

    @property
    def total_time(self) -> float:
        """Parallel shards + host merge."""
        return max(r.scaled_total_time for r in self.shard_reports) + self.merge_time

    @property
    def devices(self) -> int:
        return len(self.shard_reports)


class ScaleOutCluster:
    """N ECSSDs serving one partitioned extreme-classification layer."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        devices: Optional[int] = None,
        config: Optional[ECSSDConfig] = None,
        features: PipelineFeatures = PipelineFeatures.full(),
        interleaving: str = "learned",
        host_merge_bandwidth: float = 10e9,
    ) -> None:
        self.spec = spec
        self.config = config or ECSSDConfig()
        self.shards = partition_labels(spec, self.config, devices)
        self.features = features
        self.interleaving = interleaving
        self.host_merge_bandwidth = host_merge_bandwidth
        self.devices: List[ECSSDevice] = []
        for shard in self.shards:
            device = ECSSDevice(
                config=self.config, features=features, interleaving=interleaving
            )
            device.deploy_spec(spec.scaled(shard.num_labels, f"shard{shard.device_index}"))
            self.devices.append(device)

    def run_trace(
        self,
        queries: int,
        sample_tiles: int = 8,
        top_k: int = 5,
        seed: int = 3,
    ) -> ClusterReport:
        """Trace-driven timing of one batch across every shard."""
        tracer = current().tracer
        reports: List[PerformanceReport] = []
        with tracer.span(
            "cluster_run", devices=len(self.devices), queries=queries
        ):
            for shard, device in zip(self.shards, self.devices):
                hotness = LabelHotnessModel(
                    num_labels=shard.num_labels,
                    seed=seed + shard.device_index,
                )
                generator = CandidateTraceGenerator(
                    hotness,
                    candidate_ratio=self.spec.candidate_ratio,
                    query_noise=0.05,
                )
                with tracer.span(
                    f"shard{shard.device_index}",
                    labels=shard.num_labels,
                ) as span:
                    report = device.run_trace(
                        generator, queries=queries, sample_tiles=sample_tiles
                    )
                    span.set_sim_window(0.0, report.scaled_total_time)
                # Shards run in parallel on independent devices: overlay
                # their simulated windows on one cluster track.
                if tracer.enabled:
                    tracer.add_span(
                        f"shard{shard.device_index}",
                        0.0,
                        report.scaled_total_time,
                        track=CLUSTER_TRACK,
                        attrs={"labels": shard.num_labels},
                    )
                reports.append(report)
        # Host merge: each device returns top_k (label, score) pairs per
        # query (12 B each); merging is bandwidth-trivial but accounted.
        merge_bytes = queries * top_k * 12 * len(self.devices)
        merge_time = merge_bytes / self.host_merge_bandwidth
        registry = current().registry
        if registry.enabled:
            registry.counter(
                "ecssd_cluster_runs_total", "scale-out inference passes"
            ).inc()
            registry.gauge(
                "ecssd_cluster_devices", "devices in the active cluster"
            ).set(len(self.devices))
        slowest = max(r.scaled_total_time for r in reports)
        if tracer.enabled:
            tracer.add_span(
                "merge", slowest, slowest + merge_time, track=CLUSTER_TRACK
            )
        logger.info(
            "cluster: %d shards, slowest %.6fs, merge %.6fs",
            len(reports), slowest, merge_time,
        )
        return ClusterReport(shard_reports=reports, merge_time=merge_time)


def merge_topk(
    shard_labels: Sequence[np.ndarray],
    shard_scores: Sequence[np.ndarray],
    shard_offsets: Sequence[int],
    top_k: int,
) -> tuple:
    """Exact global top-k from per-shard local top-k lists.

    Each shard reports (B, k) local labels/scores; labels are shard-local
    and get shifted by their shard's offset.  Because shards partition the
    label space, the global top-k is contained in the union of local
    top-k's — the merge is exact, not approximate.

    Ties rank under a *total* order on (score desc, global label id asc), so
    the result is independent of the order shards are listed in — a cluster
    merging replies as they arrive gets the same answer as one merging in
    shard-index order.
    """
    if not shard_labels:
        raise ConfigurationError("merge_topk needs at least one shard")
    if not (len(shard_labels) == len(shard_scores) == len(shard_offsets)):
        raise ConfigurationError("shard lists must align")
    labels = np.concatenate(
        [lab + off for lab, off in zip(shard_labels, shard_offsets)], axis=1
    )
    scores = np.concatenate(list(shard_scores), axis=1)
    batch = labels.shape[0]
    k = min(top_k, labels.shape[1])
    out_labels = np.empty((batch, k), dtype=np.int64)
    out_scores = np.empty((batch, k), dtype=scores.dtype)
    for q in range(batch):
        # lexsort: last key is primary — score descending, label ascending
        # breaks exact-score ties deterministically across shard orderings.
        order = np.lexsort((labels[q], -scores[q]))[:k]
        out_labels[q] = labels[q][order]
        out_scores[q] = scores[q][order]
    return out_labels, out_scores
