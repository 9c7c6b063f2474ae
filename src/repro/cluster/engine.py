"""The deterministic fleet event loop: service nodes over data nodes.

:class:`ClusterSimulator` replays one seeded arrival stream through a whole
fleet::

    arrive -> pick service node -> cache? -> admit / shed -> deadline batch
           -> per-shard tasks to replica data nodes -> slots / FIFO / steal
           -> results return -> cross-shard top-k merge -> complete

on a single event heap with seven event kinds, ordered
``(time, kind, sequence)`` so ties resolve identically on every run:
fault-plan edges first (a node must change state before work lands on it),
then autoscaler evaluations, task completions, merges, cache hits, batch
deadlines, and finally arrivals.

Failover protocol: a node crash cancels its running and queued tasks; each
is **redispatched** to a surviving reachable replica (new transfer, new
execution) or **parked** when no replica is routable, then **unparked** by
the next recovery edge.  A cancelled task's completion event stays in the
heap; a task remembers the seq of its one live completion event, and any
other completion popped for it is skipped.  Every decision lands on the
failover timeline in event order — the determinism tests compare that
timeline byte-for-byte across runs.

Work stealing: a data node that drains its queue pulls a queued task for a
shard it replicates from the most-backlogged node, paying the re-transfer.
``ClusterConfig.steal_policy`` picks the end of the victim's queue
(``newest`` by default, ``oldest``, or ``none`` to disable) — a sweep axis
for the :mod:`repro.ablate` fleet-policy campaign.  Background crawlers and
brownout windows multiply execution time at task start (when they are
knowable), never retroactively.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError, WorkloadError
from ..faults.plan import (
    EDGE_NODE_DOWN,
    EDGE_NODE_UP,
    EDGE_PARTITION_HEAL,
    EDGE_PARTITION_START,
    ClusterFaultConfig,
    ClusterFaultPlan,
)
from ..obs import CLUSTER_TRACK, get_registry, get_tracer
from ..obs.causal import get_collector
from ..obs.digest import DigestRecorder
from ..serve.admission import AdmissionConfig, AdmissionController
from ..serve.degrade import DegradationLadder
from ..serve.kernel import EventKernel, arrival_times
from ..serve.node import ServiceNodeCore
from ..serve.request import Request
from ..serve.router import MERGE_ENTRY_BYTES
from ..serve.scheduler import AffineServiceModel, DeadlineBatcher
from .autoscale import Autoscaler
from .cache import HotLabelCache, zipf_keys
from .crawlers import CrawlerSchedule
from .nodes import BatchState, DataNode, FleetCounters, ServiceNode, ShardTask
from .placement import Placement, place_replicas
from .report import (
    ClusterReport,
    FailoverEvent,
    build_latency_array,
    shard_outage_seconds,
)
from .topology import REQUEST_BYTES, ClusterConfig

logger = logging.getLogger(__name__)

# Event kinds, in tie-break order at equal timestamps.
_KIND_EDGE = 0
_KIND_SCALE = 1
_KIND_TASK = 2
_KIND_MERGE = 3
_KIND_CACHE = 4
_KIND_DEADLINE = 5
_KIND_ARRIVAL = 6


class ClusterSimulator:
    """Drives the whole fleet over one arrival stream (see module docstring)."""

    def __init__(
        self,
        service: AffineServiceModel,
        config: ClusterConfig,
        placement: Placement,
        fault_plan: ClusterFaultPlan,
        crawlers: CrawlerSchedule,
        seed: int = 0,
        digest_recorder: Optional[DigestRecorder] = None,
    ) -> None:
        if len(placement.assignments) != config.shards:
            raise ConfigurationError(
                f"placement covers {len(placement.assignments)} shards, "
                f"config says {config.shards}"
            )
        self.service = service
        self.config = config
        self.placement = placement
        self.fault_plan = fault_plan
        self.crawlers = crawlers
        self.seed = seed
        self.digest_recorder = digest_recorder

        worst = self.worst_task_time(service.knee)
        merge = self.merge_time(service.knee, 1.0)
        worst_batch = worst + merge
        close_margin = worst_batch * config.close_margin_factor
        if close_margin >= config.slo:
            raise ConfigurationError(
                f"SLO {config.slo:.6f}s cannot fit one knee batch "
                f"({worst_batch:.6f}s through the slowest shard); add data "
                f"nodes, shrink the knee, or relax the SLO"
            )
        drain_parallelism = max(
            1, config.total_slots // (config.shards * config.service_nodes)
        )
        self.service_nodes: List[ServiceNode] = []
        for index in range(config.service_nodes):
            admission = AdmissionController(
                AdmissionConfig.for_slo(
                    slo=config.slo,
                    worst_batch_time=worst_batch,
                    knee=service.knee,
                    replicas=drain_parallelism,
                    safety=config.safety,
                )
            )
            batcher = DeadlineBatcher(service, close_margin=close_margin)
            core = ServiceNodeCore(admission, batcher, DegradationLadder())
            cache = HotLabelCache(config.cache_capacity, config.cache_ttl)
            self.service_nodes.append(
                ServiceNode(index, config.service_rack(index), core, cache)
            )
        self.data_nodes: List[DataNode] = [
            DataNode(index, config.node_rack(index), config.slots_per_node)
            for index in range(config.data_nodes)
        ]
        self.autoscaler = Autoscaler(
            slo=config.slo,
            min_nodes=config.autoscale_min,
            max_nodes=config.service_nodes,
        )
        self._pressure_fallback = max(
            1, service.knee * max(1, config.total_slots // config.shards) * 4
        )

    # -- cost model -----------------------------------------------------------
    def shard_exec_time(
        self, shard: int, size: int, candidate_scale: float = 1.0
    ) -> float:
        """On-node execution cost of one shard task (no slowdowns)."""
        return self.service.batch_time(
            size,
            candidate_scale=candidate_scale * self.placement.hot_degrees[shard],
            work_fraction=1.0 / self.config.shards,
        )

    def merge_time(self, size: int, top_k_scale: float) -> float:
        """§7.1 cross-shard top-k merge cost at the service node."""
        effective_k = max(1, int(round(self.config.top_k * top_k_scale)))
        merge_bytes = size * effective_k * MERGE_ENTRY_BYTES * self.config.shards
        return merge_bytes / self.config.interconnect.bandwidth

    def result_bytes(self, size: int, top_k_scale: float) -> int:
        effective_k = max(1, int(round(self.config.top_k * top_k_scale)))
        return size * effective_k * MERGE_ENTRY_BYTES

    def worst_task_time(self, size: int) -> float:
        """Upper bound on one shard task: transfers + hottest-shard exec."""
        link = self.config.interconnect
        out = link.transfer_time(size * REQUEST_BYTES, cross_rack=True)
        back = link.transfer_time(self.result_bytes(size, 1.0), cross_rack=True)
        exec_worst = max(
            self.shard_exec_time(shard, size)
            for shard in range(self.config.shards)
        )
        return out + exec_worst * self.crawlers.mean_overhead() + back

    # -- the event loop -------------------------------------------------------
    def run(
        self,
        arrivals: Sequence[float],
        keys: Optional[np.ndarray] = None,
    ) -> ClusterReport:
        """Replay ``arrivals`` (sorted timestamps, seconds) to completion.

        ``keys`` optionally supplies each request's cache label-group key;
        by default they are drawn from the seeded Zipf stream
        (:func:`~repro.cluster.cache.zipf_keys`).  Raises
        :class:`~repro.errors.SimulationError` when conservation breaks or
        work is left behind.
        """
        times = arrival_times(arrivals)
        num_requests = int(times.size)
        if keys is None:
            keys = zipf_keys(
                num_requests,
                self.config.cache_groups,
                self.config.cache_skew,
                self.seed,
            )
        if keys.shape[0] != num_requests:
            raise WorkloadError("cache keys must align with arrivals")

        config = self.config
        link = config.interconnect
        sns = self.service_nodes
        dns = self.data_nodes

        latencies = build_latency_array(num_requests)
        counters = FleetCounters()
        shed_by_reason: Dict[str, int] = {}
        timeline: List[FailoverEvent] = []
        owner: Dict[int, int] = {}  # queued request id -> service node
        live: Dict[int, ShardTask] = {}  # started task id -> task
        batches: Dict[int, BatchState] = {}
        parked: List[ShardTask] = []
        parked_since: Dict[int, float] = {}
        severed: Set[Tuple[int, int]] = set()
        active = [True] * len(sns)
        self._active_count = len(sns)
        peak_active = self._active_count
        alive_slots = sum(dn.slots for dn in dns)
        running_tasks = 0
        parked_time = 0.0
        last_completion = float(times[0])

        kernel = EventKernel("cluster")
        push = kernel.push
        pop = kernel.pop
        next_task_id = 0
        next_batch_id = 0

        # Fault-plan state edges (crash + partition; brownouts are queried
        # point-in-time at task start instead).
        edges: List[Tuple[float, int, object]] = [
            edge
            for edge in self.fault_plan.edges()
            if edge[1]
            in (EDGE_NODE_UP, EDGE_NODE_DOWN, EDGE_PARTITION_HEAL, EDGE_PARTITION_START)
        ]
        for index, edge in enumerate(edges):
            push(float(edge[0]), _KIND_EDGE, index)
        # Autoscaler evaluations, one per interval across the arrival span.
        if config.autoscale and len(sns) > 1:
            evaluations = int(float(times[-1]) / config.autoscale_interval)
            for step in range(1, evaluations + 1):
                push(step * config.autoscale_interval, _KIND_SCALE, 0)
        # Arrivals enter the heap one at a time (they are sorted), keeping
        # the heap at working-set size rather than run size.
        push(float(times[0]), _KIND_ARRIVAL, 0)

        registry = get_registry()
        tracer = get_tracer()
        recorder = self.digest_recorder
        collector = get_collector()

        def reachable(rack_a: int, rack_b: int) -> bool:
            if rack_a == rack_b or not severed:
                return True
            pair = (rack_a, rack_b) if rack_a <= rack_b else (rack_b, rack_a)
            return pair not in severed

        def start_on(node: DataNode, task: ShardTask, now: float) -> None:
            nonlocal running_tasks
            start = now if now > task.ready_at else task.ready_at
            slow = self.fault_plan.slowdown(
                node.index, start
            ) * self.crawlers.slowdown(node.index, start)
            end = start + task.exec_time * slow
            task.started_at = start
            if collector.enabled:
                collector.on_task_start(
                    task.task_id, start, end, task.exec_time
                )
            node.start(task, end)
            live[task.task_id] = task
            running_tasks += 1
            task.end_seq = push(end, _KIND_TASK, task.task_id)

        def route_task(task: ShardTask, now: float) -> bool:
            """Place ``task`` on a replica; False when parked."""
            sn_rack = sns[task.service_node].rack
            best_node: Optional[DataNode] = None
            best_key = (0, 0)
            for node_index in self.placement.nodes_for(task.shard):
                node = dns[node_index]
                if not node.alive or not reachable(sn_rack, node.rack):
                    continue
                key = (node.outstanding, node.index)
                if best_node is None or key < best_key:
                    best_key = key
                    best_node = node
            if best_node is None:
                parked.append(task)
                parked_since[task.task_id] = now
                counters.parked += 1
                timeline.append(
                    FailoverEvent(
                        time=now,
                        action="park",
                        shard=task.shard,
                        task_id=task.task_id,
                        from_node=task.node,
                        to_node=-1,
                    )
                )
                if collector.enabled:
                    collector.on_task_park(
                        task.task_id, task.batch_id, task.shard
                    )
                return False
            cross = sn_rack != best_node.rack
            task.ready_at = now + link.transfer_time(task.bytes_out, cross)
            task.node = best_node.index
            if collector.enabled:
                collector.on_task_route(
                    task.task_id,
                    task.batch_id,
                    task.shard,
                    task.exec_time,
                    now,
                    task.ready_at,
                    task.node,
                )
            if best_node.has_free_slot() and not best_node.pending:
                start_on(best_node, task, task.ready_at)
            else:
                best_node.pending.append(task)
            return True

        steal_policy = self.config.steal_policy

        def try_steal(node: DataNode, now: float) -> None:
            """Pull one queued task for a shard ``node`` replicates.

            ``config.steal_policy`` picks which end of the victim's FIFO to
            scan: ``newest`` (tail first — the victim keeps its oldest,
            soonest-to-run work), ``oldest`` (head first — FIFO fairness at
            the cost of re-shipping the request that waited longest), or
            ``none`` (stealing disabled; idle slots stay idle).
            """
            if steal_policy == "none":
                return
            if not node.alive or not node.has_free_slot() or node.pending:
                return
            my_shards = set(self.placement.shards_on(node.index))
            if not my_shards:
                return
            victims = sorted(
                (v for v in dns if v is not node and v.pending),
                key=lambda v: (-len(v.pending), v.index),
            )
            for victim in victims:
                if steal_policy == "newest":
                    positions = range(len(victim.pending) - 1, -1, -1)
                else:
                    positions = range(len(victim.pending))
                for position in positions:
                    task = victim.pending[position]
                    if task.shard not in my_shards:
                        continue
                    if not reachable(sns[task.service_node].rack, node.rack):
                        continue
                    del victim.pending[position]
                    task.stolen = True
                    node.steals += 1
                    counters.steals += 1
                    cross = sns[task.service_node].rack != node.rack
                    task.ready_at = now + link.transfer_time(
                        task.bytes_out, cross
                    )
                    task.node = node.index
                    if collector.enabled:
                        collector.on_task_route(
                            task.task_id,
                            task.batch_id,
                            task.shard,
                            task.exec_time,
                            now,
                            task.ready_at,
                            task.node,
                        )
                        collector.on_task_steal(task.task_id)
                    start_on(node, task, task.ready_at)
                    return

        def failover_task(task: ShardTask, now: float, from_node: int) -> None:
            task.node = from_node
            if route_task(task, now):
                if collector.enabled:
                    collector.on_task_redispatch(task.task_id)
                counters.redispatches += 1
                timeline.append(
                    FailoverEvent(
                        time=now,
                        action="redispatch",
                        shard=task.shard,
                        task_id=task.task_id,
                        from_node=from_node,
                        to_node=task.node,
                    )
                )
                if registry.enabled:
                    registry.counter(
                        "cluster_failovers_total",
                        "tasks redispatched or parked after a fault",
                    ).inc(action="redispatch")

        def retry_parked(now: float) -> None:
            nonlocal parked_time
            still_parked: List[ShardTask] = []
            for task in sorted(parked, key=lambda t: t.task_id):
                from_node = task.node
                task.node = -1
                sn_rack = sns[task.service_node].rack
                routable = any(
                    dns[n].alive and reachable(sn_rack, dns[n].rack)
                    for n in self.placement.nodes_for(task.shard)
                )
                if not routable:
                    task.node = from_node
                    still_parked.append(task)
                    continue
                route_task(task, now)
                parked_time += now - parked_since.pop(task.task_id)
                timeline.append(
                    FailoverEvent(
                        time=now,
                        action="unpark",
                        shard=task.shard,
                        task_id=task.task_id,
                        from_node=from_node,
                        to_node=task.node,
                    )
                )
            parked[:] = still_parked

        def dispatch(sn: ServiceNode, now: float) -> None:
            nonlocal next_task_id, next_batch_id
            pressure = sn.core.pressure(
                sn.outstanding_requests, self._pressure_fallback
            )
            level = sn.core.dispatch_level(pressure)
            batch = sn.core.form_batch()
            if not batch:
                raise SimulationError("dispatch from an empty queue")
            size = len(batch)
            for request in batch:
                owner.pop(request.request_id, None)
            sn.outstanding_requests += size
            candidate_scale = sn.core.ladder.candidate_scale
            top_k_scale = sn.core.ladder.top_k_scale
            state = BatchState(
                batch_id=next_batch_id,
                service_node=sn.index,
                size=size,
                request_ids=tuple(r.request_id for r in batch),
                level=level,
                dispatch_time=now,
                remaining=config.shards,
            )
            state.merge_cost = self.merge_time(size, top_k_scale)
            batches[next_batch_id] = state
            if collector.enabled:
                collector.on_dispatch(
                    next_batch_id,
                    sn.index,
                    now,
                    level,
                    state.request_ids,
                    tuple(float(times[r]) for r in state.request_ids),
                )
            counters.batches += 1
            if registry.enabled:
                registry.counter(
                    "cluster_batches_total", "batches dispatched by the fleet"
                ).inc(service_node=sn.index, level=level)
            bytes_back = self.result_bytes(size, top_k_scale)
            for shard in range(config.shards):
                task = ShardTask(
                    task_id=next_task_id,
                    batch_id=next_batch_id,
                    shard=shard,
                    size=size,
                    service_node=sn.index,
                    exec_time=self.shard_exec_time(shard, size, candidate_scale),
                    bytes_out=size * REQUEST_BYTES,
                    bytes_back=bytes_back,
                )
                next_task_id += 1
                route_task(task, now)
            next_batch_id += 1

        def fleet_has_idle_capacity() -> bool:
            return running_tasks < alive_slots

        def drain(sn: ServiceNode, now: float) -> None:
            while sn.core.depth > 0:
                must = sn.core.should_close(now)
                eager = config.eager_when_idle and fleet_has_idle_capacity()
                if not (must or eager):
                    break
                dispatch(sn, now)

        def pick_service_node() -> ServiceNode:
            best: Optional[ServiceNode] = None
            best_key = (0, 0)
            for sn in sns:
                if not active[sn.index]:
                    continue
                key = (sn.core.pending(sn.outstanding_requests), sn.index)
                if best is None or key < best_key:
                    best_key = key
                    best = sn
            if best is None:
                raise SimulationError("no active service node to route to")
            return best

        while kernel:
            now, kind, seq, payload = pop()
            if recorder is not None:
                recorder.tick(
                    now,
                    kind=kind,
                    completed=counters.completed,
                    shed=counters.shed,
                    cache_hits=counters.cache_hits,
                    tasks_done=counters.tasks_done,
                    steals=counters.steals,
                    running=running_tasks,
                    parked=len(parked),
                    batches=counters.batches,
                    active=self._active_count,
                    seq=kernel.seq,
                )
            if kind == _KIND_TASK:
                task = live.get(payload)
                if task is None or task.end_seq != seq:
                    # Cancelled by a crash edge, or a crashed node's stale
                    # completion for a task since restarted elsewhere.
                    continue
                del live[payload]
                node = dns[task.node]
                node.finish(task.task_id, now - task.started_at)
                running_tasks -= 1
                counters.tasks_done += 1
                if node.pending:
                    while node.has_free_slot() and node.pending:
                        start_on(node, node.pending.popleft(), now)
                else:
                    try_steal(node, now)
                state = batches[task.batch_id]
                sn_rack = sns[state.service_node].rack
                cross = node.rack != sn_rack
                result_at = now + link.transfer_time(task.bytes_back, cross)
                if collector.enabled:
                    collector.on_task_finish(task.task_id, now, result_at)
                if result_at > state.last_result_at:
                    state.last_result_at = result_at
                state.remaining -= 1
                if state.remaining == 0:
                    merge_end = state.last_result_at + state.merge_cost
                    push(merge_end, _KIND_MERGE, state.batch_id)
            elif kind == _KIND_MERGE:
                state = batches.pop(payload)
                sn = sns[state.service_node]
                sn.outstanding_requests -= state.size
                for rid in state.request_ids:
                    latency = now - float(times[rid])
                    latencies[rid] = latency
                    self.autoscaler.observe(now, latency > config.slo)
                    sn.cache.insert(int(keys[rid]), now)
                counters.completed += state.size
                last_completion = now if now > last_completion else last_completion
                if tracer.enabled:
                    tracer.add_span(
                        f"batch{state.batch_id}",
                        state.dispatch_time,
                        now,
                        track=CLUSTER_TRACK,
                        attrs={
                            "size": state.size,
                            "level": state.level,
                            "service_node": state.service_node,
                        },
                    )
                if collector.enabled:
                    collector.on_merge(state.batch_id, now)
                drain(sn, now)
            elif kind == _KIND_CACHE:
                latency = now - float(times[payload])
                latencies[payload] = latency
                counters.completed += 1
                counters.cache_hits += 1
                if collector.enabled:
                    collector.on_cache_hit(payload, float(times[payload]), now)
                self.autoscaler.observe(now, latency > config.slo)
                last_completion = now if now > last_completion else last_completion
            elif kind == _KIND_DEADLINE:
                sn_index = owner.get(payload)
                if sn_index is not None and sns[sn_index].core.is_waiting(payload):
                    drain(sns[sn_index], now)
            elif kind == _KIND_ARRIVAL:
                arrival_time = float(times[payload])
                sn = pick_service_node()
                sn.arrived += 1
                if sn.cache.lookup(int(keys[payload]), now):
                    sn.cache_hits += 1
                    push(now + config.cache_hit_time, _KIND_CACHE, payload)
                else:
                    request = Request(
                        request_id=payload,
                        arrival=arrival_time,
                        deadline=arrival_time + config.slo,
                    )
                    reason = sn.core.offer(
                        request, sn.outstanding_requests, now
                    )
                    if registry.enabled:
                        registry.counter(
                            "cluster_requests_total",
                            "requests offered to the fleet",
                        ).inc(outcome="shed" if reason else "admitted")
                    if reason is not None:
                        sn.shed += 1
                        counters.shed += 1
                        shed_by_reason[reason] = (
                            shed_by_reason.get(reason, 0) + 1
                        )
                        if collector.enabled:
                            collector.on_shed(reason)
                        self.autoscaler.observe(now, True)
                    else:
                        owner[payload] = sn.index
                        push(sn.core.close_time(request), _KIND_DEADLINE, payload)
                        drain(sn, now)
                if payload + 1 < num_requests:
                    push(float(times[payload + 1]), _KIND_ARRIVAL, payload + 1)
            elif kind == _KIND_EDGE:
                _edge_time, edge_kind, edge_payload = edges[payload]
                if edge_kind == EDGE_NODE_DOWN:
                    down = dns[int(edge_payload)]
                    if down.alive:
                        down.alive = False
                        alive_slots -= down.slots
                        lost: List[ShardTask] = []
                        for task_id in sorted(down.running):
                            task = down.running[task_id]
                            live.pop(task_id, None)
                            running_tasks -= 1
                            if task.started_at < now:
                                down.busy_time += now - task.started_at
                            lost.append(task)
                        down.running.clear()
                        lost.extend(down.pending)
                        down.pending.clear()
                        for task in lost:
                            failover_task(task, now, down.index)
                elif edge_kind == EDGE_NODE_UP:
                    up = dns[int(edge_payload)]
                    # Another crash window may still cover this instant
                    # (overlapping windows share one node); stay down and
                    # let that window's own up-edge revive the node.
                    if not up.alive and self.fault_plan.node_alive(
                        up.index, now
                    ):
                        up.alive = True
                        alive_slots += up.slots
                        retry_parked(now)
                        try_steal(up, now)
                elif edge_kind == EDGE_PARTITION_START:
                    severed.add((edge_payload[0], edge_payload[1]))
                elif edge_kind == EDGE_PARTITION_HEAL:
                    pair = (edge_payload[0], edge_payload[1])
                    # Another window on the same rack pair may still cover
                    # this instant; its own heal edge lifts the severance.
                    if self.fault_plan.reachable(pair[0], pair[1], now):
                        severed.discard(pair)
                        retry_parked(now)
            else:  # _KIND_SCALE
                target = self.autoscaler.decide(now, self._active_count)
                if target > self._active_count:
                    for sn in sns:
                        if not active[sn.index]:
                            active[sn.index] = True
                            break
                    self._active_count += 1
                    counters.scale_ups += 1
                elif target < self._active_count:
                    for sn in reversed(sns):
                        if active[sn.index]:
                            active[sn.index] = False
                            break
                    self._active_count -= 1
                    counters.scale_downs += 1
                peak_active = max(peak_active, self._active_count)

        for sn in sns:
            sn.core.verify_drained()
            sn.core.admission.verify_conservation()
            if sn.outstanding_requests != 0:
                raise SimulationError(
                    f"service node {sn.index} ended with "
                    f"{sn.outstanding_requests} requests unmerged"
                )
        if live or batches or parked:
            raise SimulationError(
                f"cluster run ended with work left behind: {len(live)} tasks "
                f"running, {len(batches)} batches open, {len(parked)} parked"
            )
        if counters.completed + counters.shed != num_requests:
            raise SimulationError(
                f"fleet conservation violated: {counters.completed} completed "
                f"+ {counters.shed} shed != {num_requests} arrived"
            )
        makespan = last_completion - float(times[0])
        if recorder is not None:
            recorder.capture(
                last_completion,
                kind=-1,
                completed=counters.completed,
                shed=counters.shed,
                cache_hits=counters.cache_hits,
                tasks_done=counters.tasks_done,
                steals=counters.steals,
                running=0,
                parked=0,
                batches=counters.batches,
                active=self._active_count,
                seq=kernel.seq,
            )
        report = ClusterReport(
            config={
                "data_nodes": config.data_nodes,
                "service_nodes": config.service_nodes,
                "shards": config.shards,
                "replicas": config.replicas,
                "racks": config.racks,
                "slots_per_node": config.slots_per_node,
                "seed": self.seed,
            },
            slo=config.slo,
            arrived=num_requests,
            completed=counters.completed,
            shed=counters.shed,
            cache_hits=counters.cache_hits,
            latencies=latencies,
            tasks_done=counters.tasks_done,
            steals=counters.steals,
            redispatches=counters.redispatches,
            parked_events=counters.parked,
            parked_time=parked_time,
            batches=counters.batches,
            scale_ups=counters.scale_ups,
            scale_downs=counters.scale_downs,
            peak_active_service_nodes=peak_active,
            node_busy=[dn.busy_time for dn in dns],
            makespan=makespan,
            failover_timeline=timeline,
            shard_outages=shard_outage_seconds(self.fault_plan, self.placement),
            shed_by_reason=shed_by_reason,
        )
        logger.info(
            "fleet served %d/%d requests (%.1f%% shed, %.1f%% cached) across "
            "%d batches / %d tasks; %d steals, %d redispatches",
            counters.completed,
            num_requests,
            100.0 * report.shed_rate,
            100.0 * report.cache_hit_rate,
            counters.batches,
            counters.tasks_done,
            counters.steals,
            counters.redispatches,
        )
        return report


def build_cluster(
    service: AffineServiceModel,
    config: ClusterConfig,
    seed: int = 0,
    fault_config: Optional[ClusterFaultConfig] = None,
    hot_degrees: Optional[Sequence[float]] = None,
    digest_recorder: Optional[DigestRecorder] = None,
) -> ClusterSimulator:
    """Assemble placement, fault plan, crawlers, and nodes into one fleet."""
    degrees = (
        list(hot_degrees) if hot_degrees is not None else [1.0] * config.shards
    )
    placement = place_replicas(config, degrees)
    plan = ClusterFaultPlan.build(
        fault_config if fault_config is not None else ClusterFaultConfig.disabled(),
        nodes=config.data_nodes,
        racks=config.racks,
    )
    crawlers = CrawlerSchedule(seed, enabled=config.crawlers_enabled)
    return ClusterSimulator(
        service=service,
        config=config,
        placement=placement,
        fault_plan=plan,
        crawlers=crawlers,
        seed=seed,
        digest_recorder=digest_recorder,
    )


def cluster_saturating_rate(
    service: AffineServiceModel, config: ClusterConfig
) -> float:
    """Offered load (queries/s) at which the fleet's task slots saturate.

    Each knee-sized batch occupies ``shards`` slots for one worst-case task
    time; ``total_slots`` slots drain in parallel.  The bench's 1x point.
    """
    placement = place_replicas(config, [1.0] * config.shards)
    crawlers = CrawlerSchedule(0, enabled=config.crawlers_enabled)
    plan = ClusterFaultPlan.build(
        ClusterFaultConfig.disabled(), nodes=config.data_nodes, racks=config.racks
    )
    probe = ClusterSimulator(
        service=service,
        config=config,
        placement=placement,
        fault_plan=plan,
        crawlers=crawlers,
    )
    worst = probe.worst_task_time(service.knee)
    return config.total_slots * service.knee / (config.shards * worst)
