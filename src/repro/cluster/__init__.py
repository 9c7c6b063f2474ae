"""Fleet-scale cluster simulation: service nodes, data nodes, failover.

The ECSSD paper evaluates one computational-SSD deployment; a production
extreme-classification service runs *fleets* of them.  This package layers
a deterministic multi-node simulator above :mod:`repro.serve`: stateless
**service nodes** (the single-deployment admission / deadline-batching /
degradation machinery, one :class:`~repro.serve.node.ServiceNodeCore` per
node, plus a host-side hot-label result cache) fan shard tasks over
replicated **data nodes** (ECSSD devices behind channel-parallel task
slots) across a latency/bandwidth-modeled interconnect with rack fault
domains.

Around that core: a hotness-aware replica :mod:`placement <repro.cluster.placement>`
engine that spreads each shard across nodes and racks, burn-rate-driven
:mod:`autoscaling <repro.cluster.autoscale>` of the service plane,
node-crash / interconnect-partition / slow-node fault injection replayed
from :class:`~repro.faults.ClusterFaultPlan`, replica **failover** with a
byte-comparable timeline, cross-node **work stealing**, and background
:mod:`crawler <repro.cluster.crawlers>` interference (scrub / remap /
rebalance).  Everything runs on one event heap with total tie-ordering, so
a million-request run is bit-identical per seed — the ``repro cluster``
CLI and ``tests/test_cluster.py`` hold it to that.

A single deployment is the smallest fleet:
:func:`~repro.cluster.engine.build_single_deployment` maps S shards x R
replicas behind one host onto one service node over S x R one-slot data
nodes, and ``repro serve`` runs it.
"""

from .autoscale import SCALE_DOWN_FRACTION, Autoscaler
from .cache import HotLabelCache, zipf_keys
from .crawlers import DEFAULT_CRAWLERS, CrawlerKind, CrawlerSchedule
from .engine import (
    ClusterSimulator,
    build_cluster,
    build_single_deployment,
    cluster_saturating_rate,
    single_deployment_rate,
)
from .nodes import BatchState, DataNode, FleetCounters, ServiceNode, ShardTask
from .placement import Placement, place_replicas
from .report import (
    LATENCY_UNSET,
    ClusterReport,
    FailoverEvent,
    build_latency_array,
    failover_timeline_digest,
    shard_outage_seconds,
)
from .topology import (
    PLACEMENT_STRATEGIES,
    REQUEST_BYTES,
    STEAL_POLICIES,
    ClusterConfig,
    Interconnect,
    rack_of,
)

__all__ = [
    "Autoscaler",
    "SCALE_DOWN_FRACTION",
    "HotLabelCache",
    "zipf_keys",
    "CrawlerKind",
    "CrawlerSchedule",
    "DEFAULT_CRAWLERS",
    "ClusterSimulator",
    "build_cluster",
    "build_single_deployment",
    "cluster_saturating_rate",
    "single_deployment_rate",
    "BatchState",
    "DataNode",
    "FleetCounters",
    "ServiceNode",
    "ShardTask",
    "Placement",
    "place_replicas",
    "ClusterReport",
    "FailoverEvent",
    "LATENCY_UNSET",
    "build_latency_array",
    "failover_timeline_digest",
    "shard_outage_seconds",
    "ClusterConfig",
    "Interconnect",
    "PLACEMENT_STRATEGIES",
    "REQUEST_BYTES",
    "STEAL_POLICIES",
    "rack_of",
]
