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

from .._lazy import lazy_exports

# Bound at import, not lazily: perfbench's traced run wraps
# ``repro.cluster.build_cluster`` by replacing the entry in the package
# namespace, which a lazy name does not have until its first read.
from .engine import build_cluster  # noqa: F401

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".autoscale": ("Autoscaler", "SCALE_DOWN_FRACTION"),
    ".cache": ("HotLabelCache", "zipf_keys"),
    ".crawlers": ("CrawlerKind", "CrawlerSchedule", "DEFAULT_CRAWLERS"),
    ".engine": (
        "ClusterSimulator",
        "build_cluster",
        "build_single_deployment",
        "cluster_saturating_rate",
        "single_deployment_rate",
    ),
    ".nodes": ("BatchState", "DataNode", "FleetCounters", "ServiceNode", "ShardTask"),
    ".placement": ("Placement", "place_replicas"),
    ".report": (
        "ClusterReport",
        "FailoverEvent",
        "LATENCY_UNSET",
        "build_latency_array",
        "failover_timeline_digest",
        "shard_outage_seconds",
    ),
    ".topology": (
        "ClusterConfig",
        "Interconnect",
        "PLACEMENT_STRATEGIES",
        "REQUEST_BYTES",
        "STEAL_POLICIES",
        "rack_of",
    ),
})
