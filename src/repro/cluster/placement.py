"""Hotness-aware, rack-spread replica placement for label shards.

The placement engine answers one question at cluster-build time: *which
data nodes host a replica of which label shard?*  Three pressures shape the
answer, in priority order:

1. **Coverage** — every shard gets at least one replica; extra replica
   budget (``config.replicas - config.shards``) goes to the hottest shards
   first (§5.3 hot-degree prediction), because they draw the most traffic.
2. **Rack preference** — governed by ``config.placement_strategy``:

   * ``rack-spread`` (default) — a shard's replicas land on distinct nodes
     and, while possible, distinct racks, so one node crash or one rack
     partition never takes out every copy (the failover protocol in
     :mod:`repro.cluster.engine` depends on this);
   * ``locality-packed`` — the inverse preference: replicas pack into racks
     the shard already occupies, trading fault spread for cheap intra-rack
     failover and steal traffic;
   * ``hotness-weighted`` — rack-blind; only predicted heat decides.
3. **Load balance** — among candidates tied on the rack term, the node with
   the least *predicted heat* (sum over hosted shards of
   ``hot_degree / replication_factor``) wins, index as the tie-break.

The strategies exist as sweep axes for the ablation engine
(:mod:`repro.ablate`); the fleet-policy campaign scores them against each
other under a shared fault plan.  The whole computation is a deterministic
fold over sorted inputs: same config and hot degrees, same placement, every
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from .topology import ClusterConfig


@dataclass(frozen=True)
class Placement:
    """The materialized shard -> data-node replica map.

    ``assignments[shard]`` is the sorted list of data nodes hosting a
    replica of ``shard``; ``hosted[node]`` the sorted list of shards a node
    carries.  Both views are kept because the engine routes by shard while
    work stealing scans by node.
    """

    assignments: Tuple[Tuple[int, ...], ...]
    hosted: Tuple[Tuple[int, ...], ...]
    hot_degrees: Tuple[float, ...]

    def nodes_for(self, shard: int) -> Tuple[int, ...]:
        """Data nodes hosting a replica of ``shard`` (sorted)."""
        if not 0 <= shard < len(self.assignments):
            raise ConfigurationError(f"shard {shard} has no placement entry")
        return self.assignments[shard]

    def shards_on(self, node: int) -> Tuple[int, ...]:
        """Shards replicated on data node ``node`` (sorted)."""
        if not 0 <= node < len(self.hosted):
            raise ConfigurationError(f"node {node} has no placement entry")
        return self.hosted[node]

    @property
    def total_replicas(self) -> int:
        return sum(len(nodes) for nodes in self.assignments)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (sorted keys, no wall-clock content)."""
        return {
            "assignments": [list(nodes) for nodes in self.assignments],
            "replication": [len(nodes) for nodes in self.assignments],
            "hot_degrees": list(self.hot_degrees),
        }


def _replica_counts(
    shards: int, replicas: int, hot_degrees: Sequence[float]
) -> List[int]:
    """Replicas per shard: one each, extras to the hottest shards first."""
    counts = [1] * shards
    extras = replicas - shards
    # Hottest shards first; shard index breaks exact-heat ties.
    order = sorted(range(shards), key=lambda s: (-hot_degrees[s], s))
    position = 0
    while extras > 0:
        counts[order[position % shards]] += 1
        position += 1
        extras -= 1
    return counts


def place_replicas(
    config: ClusterConfig, hot_degrees: Sequence[float]
) -> Placement:
    """Assign every shard's replicas to data nodes (see module docstring).

    Raises :class:`~repro.errors.ConfigurationError` when a shard needs
    more replicas than there are data nodes (replicas of one shard must
    live on distinct nodes, or they are not replicas at all).
    """
    if len(hot_degrees) != config.shards:
        raise ConfigurationError(
            f"{len(hot_degrees)} hot degrees for {config.shards} shards"
        )
    if any(degree <= 0 for degree in hot_degrees):
        raise ConfigurationError("hot degrees must be positive")
    counts = _replica_counts(config.shards, config.replicas, hot_degrees)
    max_count = max(counts)
    if max_count > config.data_nodes:
        raise ConfigurationError(
            f"shard needs {max_count} replicas but only "
            f"{config.data_nodes} data nodes exist; add nodes or shrink "
            f"the replica budget"
        )
    heat: List[float] = [0.0] * config.data_nodes
    assignments: List[List[int]] = [[] for _ in range(config.shards)]
    strategy = config.placement_strategy
    # Hottest shards place first so they get the pick of cold nodes.
    order = sorted(range(config.shards), key=lambda s: (-hot_degrees[s], s))
    for shard in order:
        per_replica_heat = hot_degrees[shard] / counts[shard]
        for _ in range(counts[shard]):
            taken = set(assignments[shard])
            racks_taken = {config.node_rack(n) for n in taken}
            best_key: Tuple[int, float, int] = (0, 0.0, 0)
            best_node = -1
            for node in range(config.data_nodes):
                if node in taken:
                    continue
                in_taken_rack = config.node_rack(node) in racks_taken
                if strategy == "rack-spread":
                    rack_term = 1 if in_taken_rack else 0
                elif strategy == "locality-packed":
                    rack_term = 0 if in_taken_rack else 1
                else:  # hotness-weighted: rack-blind
                    rack_term = 0
                key = (rack_term, heat[node], node)
                if best_node < 0 or key < best_key:
                    best_key = key
                    best_node = node
            assignments[shard].append(best_node)
            heat[best_node] += per_replica_heat
    hosted: List[List[int]] = [[] for _ in range(config.data_nodes)]
    for shard in range(config.shards):
        assignments[shard].sort()
        for node in assignments[shard]:
            hosted[node].append(shard)
    for shards_list in hosted:
        shards_list.sort()
    return Placement(
        assignments=tuple(tuple(nodes) for nodes in assignments),
        hosted=tuple(tuple(shards_list) for shards_list in hosted),
        hot_degrees=tuple(float(d) for d in hot_degrees),
    )
