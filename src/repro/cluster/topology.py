"""Fleet shape and the latency/bandwidth-modeled interconnect.

:class:`ClusterConfig` names every knob of a fleet deployment — how many
stateless service nodes front how many data nodes, how the label space is
sharded and replicated, which racks (fault domains) nodes live in, and the
host-side cache/autoscaler parameters.  :class:`Interconnect` prices the
network hops between them: a fixed per-message latency plus a
bandwidth-proportional transfer term, doubled across racks (one extra
switch hop in a two-tier topology).

Everything here is pure configuration and arithmetic — no state, no clock,
no randomness — so the same config prices the same byte the same way on
every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..units import gbps, us

#: Bytes shipped per query from a service node to each data-node task (the
#: embedding vector plus framing).
REQUEST_BYTES = 512

#: Replica-placement strategies the placement engine can run (see
#: :func:`repro.cluster.placement.place_replicas`): ``rack-spread`` prefers
#: untaken racks (fault-domain first), ``locality-packed`` prefers racks the
#: shard already occupies (cheap intra-rack traffic, weaker fault spread),
#: ``hotness-weighted`` ignores racks and balances predicted heat alone.
PLACEMENT_STRATEGIES: Tuple[str, ...] = (
    "rack-spread",
    "locality-packed",
    "hotness-weighted",
)

#: Work-steal policies for idle data nodes (see
#: :meth:`repro.cluster.engine.ClusterSimulator`): steal the victim's
#: ``newest`` queued task (best cache locality for the victim's old work),
#: its ``oldest`` (FIFO fairness), or ``none`` (stealing disabled).
STEAL_POLICIES: Tuple[str, ...] = ("newest", "oldest", "none")


def rack_of(node: int, racks: int) -> int:
    """The rack (fault domain) hosting ``node`` — round-robin striping."""
    if racks <= 0:
        raise ConfigurationError("racks must be positive")
    if node < 0:
        raise ConfigurationError("node index cannot be negative")
    return node % racks


@dataclass(frozen=True)
class Interconnect:
    """Latency + bandwidth cost model for one network hop.

    ``cross_rack_factor`` multiplies the fixed latency when the endpoints
    sit in different racks (the extra spine hop); bandwidth is assumed
    symmetric and uncontended — congestion shows up in the simulator as
    data-node queueing, not link queueing.
    """

    latency: float = us(20.0)
    bandwidth: float = gbps(40.0)
    cross_rack_factor: float = 2.0

    def __post_init__(self) -> None:
        # Negated comparisons, so a NaN (which compares false) is rejected.
        if not 0.0 <= self.latency < math.inf:
            raise ConfigurationError(
                "interconnect latency must be non-negative and finite"
            )
        if not self.bandwidth > 0:
            raise ConfigurationError("interconnect bandwidth must be positive")
        if not 1.0 <= self.cross_rack_factor < math.inf:
            # Every fleet prices a cross-rack hop (worst_task_time), so an
            # infinite factor can never build: 0 latency x inf is NaN.
            raise ConfigurationError("cross_rack_factor must be >= 1 and finite")

    def transfer_time(self, nbytes: int, cross_rack: bool) -> float:
        """Seconds to move ``nbytes`` over one hop."""
        if nbytes < 0:
            raise ConfigurationError("transfer size cannot be negative")
        latency = self.latency * (self.cross_rack_factor if cross_rack else 1.0)
        return latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one fleet deployment, independent of the service model.

    ``replicas`` is the *total* number of shard-replica instances placed on
    data nodes (so ``replicas / shards`` is the mean replication factor);
    the placement engine spreads each shard's replicas across distinct
    nodes and racks.  ``slots_per_node`` is how many shard tasks one data
    node executes concurrently (its channel-level parallelism budget);
    further tasks queue FIFO on the node.  ``token_rate`` (requests/s)
    optionally gives each service node's admission a token bucket; ``None``
    leaves it off.

    Float fields are checked with negated comparisons, so a NaN is rejected
    here, at construction, rather than partway through a run.
    """

    data_nodes: int
    service_nodes: int = 2
    shards: int = 4
    replicas: int = 8
    racks: int = 2
    slots_per_node: int = 2
    slo: float = 0.020
    # -- host-side hot-label result cache -----------------------------------
    cache_capacity: int = 4096
    cache_ttl: float = 0.25
    cache_groups: int = 16384
    cache_skew: float = 1.1
    cache_hit_time: float = us(50.0)
    # -- elastic autoscaling -------------------------------------------------
    autoscale: bool = True
    autoscale_min: int = 1
    autoscale_interval: float = 0.05
    # -- sweepable fleet policies --------------------------------------------
    placement_strategy: str = "rack-spread"
    steal_policy: str = "newest"
    interconnect: Interconnect = Interconnect()
    token_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.data_nodes <= 0 or self.service_nodes <= 0:
            raise ConfigurationError("data_nodes and service_nodes must be positive")
        if self.shards <= 0:
            raise ConfigurationError("shards must be positive")
        if self.replicas < self.shards:
            raise ConfigurationError(
                f"{self.replicas} replicas cannot cover {self.shards} shards "
                f"(need at least one replica per shard)"
            )
        if self.racks <= 0:
            raise ConfigurationError("racks must be positive")
        if self.slots_per_node <= 0:
            raise ConfigurationError("slots_per_node must be positive")
        if not 0 < self.slo < math.inf:
            raise ConfigurationError("slo must be positive and finite")
        if self.cache_capacity < 0 or self.cache_groups <= 0:
            raise ConfigurationError(
                "cache_capacity cannot be negative; cache_groups must be positive"
            )
        if not self.cache_ttl >= 0:
            raise ConfigurationError("cache_ttl cannot be negative")
        if not 0 < self.cache_hit_time < math.inf:
            # A hit completes strictly after the arrival that scheduled it,
            # or it would pop after that arrival at the same instant with
            # an earlier kind and break the (time, kind, seq) order.
            raise ConfigurationError("cache_hit_time must be positive and finite")
        if not self.cache_skew > 0:
            raise ConfigurationError("cache_skew must be positive")
        if not 1 <= self.autoscale_min <= self.service_nodes:
            raise ConfigurationError(
                "autoscale_min must be in [1, service_nodes]"
            )
        if not 0 < self.autoscale_interval < math.inf:
            raise ConfigurationError(
                "autoscale_interval must be positive and finite"
            )
        if self.placement_strategy not in PLACEMENT_STRATEGIES:
            raise ConfigurationError(
                f"unknown placement strategy {self.placement_strategy!r}; "
                f"expected one of {PLACEMENT_STRATEGIES}"
            )
        if self.steal_policy not in STEAL_POLICIES:
            raise ConfigurationError(
                f"unknown steal policy {self.steal_policy!r}; "
                f"expected one of {STEAL_POLICIES}"
            )
        if self.token_rate is not None and not 0 < self.token_rate < math.inf:
            raise ConfigurationError(
                "token_rate must be positive and finite (or None)"
            )

    @property
    def total_slots(self) -> int:
        """Concurrent shard tasks the whole fleet can execute."""
        return self.data_nodes * self.slots_per_node

    def node_rack(self, node: int) -> int:
        """The rack hosting data node ``node``."""
        if not 0 <= node < self.data_nodes:
            raise ConfigurationError(
                f"data node {node} out of range [0, {self.data_nodes})"
            )
        return rack_of(node, self.racks)

    def service_rack(self, service_node: int) -> int:
        """The rack a service node is attached to (striped like data nodes)."""
        if not 0 <= service_node < self.service_nodes:
            raise ConfigurationError(
                f"service node {service_node} out of range "
                f"[0, {self.service_nodes})"
            )
        return rack_of(service_node, self.racks)
