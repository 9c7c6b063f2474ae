"""The fleet-level run outcome: :class:`ClusterReport` and its timeline.

Distinct from :class:`repro.core.scaleout.ClusterReport` (one inference
pass across the devices of a single deployment): this report aggregates a
whole *fleet serving run* — millions of requests over service nodes, data
nodes, failures, and failovers — into the quantities the ``repro cluster``
CLI prints and ``benchmarks/test_cluster.py`` gates:

* goodput, shed rate, cache hit rate, and latency percentiles vs the SLO;
* the **failover timeline** (every park / redispatch / unpark decision, in
  event order — the determinism tests compare it byte-for-byte across
  runs) plus the analytic per-shard outage time;
* work-stealing volume and per-node utilization skew.

Latency samples live in one numpy array indexed by request id, so a
million-request run costs megabytes, not gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError, WorkloadError
from ..faults.plan import ClusterFaultPlan
from ..obs.metrics import sample_percentile
from .placement import Placement

#: Sentinel latency for requests that never completed (shed); percentile
#: math masks these out.
LATENCY_UNSET = -1.0


@dataclass(frozen=True)
class FailoverEvent:
    """One failover decision, in event order.

    ``action`` is ``"redispatch"`` (task moved to a surviving replica),
    ``"park"`` (no routable replica — task held), or ``"unpark"`` (a held
    task found a home after recovery).
    """

    time: float
    action: str
    shard: int
    task_id: int
    from_node: int
    to_node: int  # -1 while parked

    def to_dict(self) -> Dict[str, object]:
        return {
            "time_s": self.time,
            "action": self.action,
            "shard": self.shard,
            "task_id": self.task_id,
            "from_node": self.from_node,
            "to_node": self.to_node,
        }


def shard_outage_seconds(
    plan: ClusterFaultPlan, placement: Placement
) -> List[float]:
    """Per-shard seconds during which *no* replica's node was alive.

    Computed analytically from the fault plan and the placement: for each
    shard, the intersection of its host nodes' crash windows.  Nonzero only
    when a crash schedule manages to hit every replica of a shard at once —
    the quantity the rack-spread placement exists to keep at zero.
    """
    outages: List[float] = []
    for shard in range(len(placement.assignments)):
        hosts = placement.nodes_for(shard)
        edges: List[float] = []
        for window in plan.crashes:
            if window.node in hosts:
                edges.append(window.start)
                edges.append(window.end)
        if not edges:
            outages.append(0.0)
            continue
        points = sorted(set(edges))
        total = 0.0
        for left, right in zip(points, points[1:]):
            midpoint = (left + right) / 2.0
            if all(not plan.node_alive(node, midpoint) for node in hosts):
                total += right - left
        outages.append(total)
    return outages


@dataclass
class ClusterReport:
    """Aggregate outcome of one fleet serving run (see module docstring)."""

    config: Dict[str, object]
    slo: float
    arrived: int
    completed: int
    shed: int
    cache_hits: int
    latencies: np.ndarray
    tasks_done: int
    steals: int
    redispatches: int
    parked_events: int
    parked_time: float
    batches: int
    scale_ups: int
    scale_downs: int
    peak_active_service_nodes: int
    node_busy: List[float]
    makespan: float
    failover_timeline: List[FailoverEvent] = field(default_factory=list)
    shard_outages: List[float] = field(default_factory=list)
    shed_by_reason: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.completed + self.shed != self.arrived:
            raise SimulationError(
                f"fleet conservation violated: {self.completed} completed + "
                f"{self.shed} shed != {self.arrived} arrived"
            )

    def _samples(self) -> np.ndarray:
        mask = self.latencies > LATENCY_UNSET
        return self.latencies[mask]

    def percentile(self, q: float) -> float:
        return sample_percentile(
            self._samples(),
            q,
            "cluster report has no completed requests; "
            "percentiles are undefined (everything was shed?)",
        )

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrived if self.arrived else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.arrived if self.arrived else 0.0

    @property
    def slo_attainment(self) -> float:
        samples = self._samples()
        if samples.size == 0:
            return 0.0
        return float(np.mean(samples <= self.slo))

    @property
    def goodput(self) -> float:
        """Requests completed within the SLO per simulated second."""
        if self.makespan <= 0.0:
            return 0.0
        samples = self._samples()
        good = int(np.sum(samples <= self.slo))
        return good / self.makespan

    @property
    def steal_rate(self) -> float:
        return self.steals / self.tasks_done if self.tasks_done else 0.0

    @property
    def failover_downtime(self) -> float:
        """Total analytic shard-outage seconds (0 when placement held)."""
        return float(sum(self.shard_outages))

    def utilization(self) -> List[float]:
        if self.makespan <= 0.0:
            return [0.0] * len(self.node_busy)
        return [busy / self.makespan for busy in self.node_busy]

    @property
    def utilization_skew(self) -> float:
        """Max over mean per-node utilization (1.0 = perfectly balanced)."""
        usage = self.utilization()
        if not usage:
            return 0.0
        mean = sum(usage) / len(usage)
        if mean <= 0.0:
            return 0.0
        return max(usage) / mean

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (the ``repro cluster --out`` payload)."""
        has_samples = bool(self._samples().size)
        return {
            "config": dict(self.config),
            "slo_s": self.slo,
            "arrived": self.arrived,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "goodput_qps": self.goodput,
            "slo_attainment": self.slo_attainment,
            "p50_s": self.p50 if has_samples else None,
            "p95_s": self.p95 if has_samples else None,
            "p99_s": self.p99 if has_samples else None,
            "p999_s": self.p999 if has_samples else None,
            "makespan_s": self.makespan,
            "batches": self.batches,
            "tasks_done": self.tasks_done,
            "steals": self.steals,
            "steal_rate": self.steal_rate,
            "redispatches": self.redispatches,
            "parked_events": self.parked_events,
            "parked_time_s": self.parked_time,
            "failover_downtime_s": self.failover_downtime,
            "failover_events": [e.to_dict() for e in self.failover_timeline],
            "shard_outages_s": list(self.shard_outages),
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "peak_active_service_nodes": self.peak_active_service_nodes,
            "node_utilization": self.utilization(),
            "utilization_skew": self.utilization_skew,
        }


def build_latency_array(num_requests: int) -> np.ndarray:
    """A request-indexed latency array initialized to the unset sentinel."""
    if num_requests <= 0:
        raise WorkloadError("num_requests must be positive")
    array = np.empty(num_requests, dtype=np.float64)
    array.fill(LATENCY_UNSET)
    return array


def failover_timeline_digest(
    timeline: Sequence[FailoverEvent], plan: Optional[ClusterFaultPlan] = None
) -> Tuple[int, int, int]:
    """Compact (redispatch, park, unpark) counts for quick comparisons."""
    redispatch = sum(1 for e in timeline if e.action == "redispatch")
    park = sum(1 for e in timeline if e.action == "park")
    unpark = sum(1 for e in timeline if e.action == "unpark")
    return redispatch, park, unpark
