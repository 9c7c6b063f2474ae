"""The deterministic fleet event loop: service nodes over data nodes.

:class:`ClusterSimulator` replays one seeded arrival stream through a whole
fleet::

    arrive -> pick service node -> cache? -> admit / shed -> deadline batch
           -> per-shard tasks to replica data nodes -> slots / FIFO / steal
           -> results return -> cross-shard top-k merge -> complete

in one ``(time, kind, sequence)`` order, so ties resolve identically on
every run: fault-plan edges first (a node must change state before work
lands on it), then autoscaler evaluations, task completions, merges, cache
hits, batch deadlines, and finally arrivals.  The first six kinds are
events on one heap; arrivals come straight off the sorted arrival stream,
merged in by :meth:`~repro.serve.kernel.EventKernel.run`, so they never
enter the heap.  Each replay is one :class:`FleetRun`: it
owns every piece of per-run state (nodes, caches, autoscaler, queues,
counters) and has one handler per event kind, so runs never share state.

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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from ..obs import CLUSTER_TRACK
from ..obs.digest import DigestRecorder
from ..obs.hooks import current
from ..serve.admission import AdmissionConfig, AdmissionController
from ..serve.degrade import DegradationLadder
from ..serve.kernel import EventKernel, arrival_times
from ..serve.node import ServiceNodeCore
from ..serve.request import Request
from ..serve.sharding import MERGE_BANDWIDTH, MERGE_ENTRY_BYTES, TOP_K
from ..serve.scheduler import CLOSE_MARGIN_FACTOR, AffineServiceModel, DeadlineBatcher
from .autoscale import Autoscaler
from .cache import HotLabelCache, zipf_keys
from .crawlers import CrawlerSchedule
from .nodes import BatchState, DataNode, FleetCounters, ServiceNode, ShardTask
from .placement import Placement, place_replicas
from .report import (
    LATENCY_UNSET,
    ClusterReport,
    FailoverEvent,
    build_latency_array,
    shard_outage_seconds,
)
from .topology import REQUEST_BYTES, ClusterConfig, Interconnect

logger = logging.getLogger(__name__)

# Event kinds, in tie-break order at equal timestamps; each heap kind
# indexes its handler in FleetRun.run.  Arrivals are the kernel's cursor,
# whose kind is the number of heap kinds.
_KIND_EDGE = 0
_KIND_SCALE = 1
_KIND_TASK = 2
_KIND_MERGE = 3
_KIND_CACHE = 4
_KIND_DEADLINE = 5
_KIND_ARRIVAL = 6

# Builds a Request without a Python-level ``Request.__new__`` frame: only
# after the caller has made the same deadline check itself.
_tuple_new = tuple.__new__


class ClusterSimulator:
    """Drives the whole fleet over one arrival stream (see module docstring).

    ``ladder`` supplies the degradation steps and watermarks; every run
    gives each service node a fresh ladder built from them (default
    :class:`~repro.serve.degrade.DegradationLadder`).
    """

    def __init__(
        self,
        service: AffineServiceModel,
        config: ClusterConfig,
        placement: Placement,
        fault_plan: ClusterFaultPlan,
        crawlers: CrawlerSchedule,
        seed: int = 0,
        digest_recorder: Optional[DigestRecorder] = None,
        ladder: Optional[DegradationLadder] = None,
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
        self.ladder = ladder if ladder is not None else DegradationLadder()

        worst_batch = self.worst_task_time(service.knee) + self.merge_time(
            service.knee, 1.0
        )
        #: Full-fidelity knee batch through the slowest shard, merge included.
        self.worst_batch = worst_batch
        self.close_margin = worst_batch * CLOSE_MARGIN_FACTOR
        if self.close_margin >= config.slo:
            raise ConfigurationError(
                f"SLO {config.slo:.6f}s cannot fit one knee batch "
                f"({worst_batch:.6f}s through the slowest shard); add data "
                f"nodes, shrink the knee, or relax the SLO"
            )
        drain_parallelism = max(
            1, config.total_slots // (config.shards * config.service_nodes)
        )
        self.admission_config = AdmissionConfig.for_slo(
            slo=config.slo,
            worst_batch_time=worst_batch,
            knee=service.knee,
            replicas=drain_parallelism,
            token_rate=config.token_rate,
        )
        self.pressure_fallback = max(
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
        effective_k = max(1, int(round(TOP_K * top_k_scale)))
        merge_bytes = size * effective_k * MERGE_ENTRY_BYTES * self.config.shards
        return merge_bytes / self.config.interconnect.bandwidth

    def result_bytes(self, size: int, top_k_scale: float) -> int:
        effective_k = max(1, int(round(TOP_K * top_k_scale)))
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
        (:func:`~repro.cluster.cache.zipf_keys`), or all zero when the
        cache has no capacity and never reads one.  Raises
        :class:`~repro.errors.SimulationError` when conservation breaks or
        work is left behind.  Every call starts from fresh nodes, so
        repeated runs on one simulator give equal reports.
        """
        times = arrival_times(arrivals)
        num_requests = int(times.size)
        if keys is None and self.config.cache_capacity == 0:
            keys = np.zeros(num_requests, dtype=np.int64)
        elif keys is None:
            keys = zipf_keys(
                num_requests,
                self.config.cache_groups,
                self.config.cache_skew,
                self.seed,
            )
        if keys.shape[0] != num_requests:
            raise WorkloadError("cache keys must align with arrivals")
        return FleetRun(self, times, keys).run()


class FleetRun:
    """One replay of an arrival stream: per-run state and per-kind handlers.

    Calls into the cache, autoscaler, crawler, interconnect, data-node and
    service-core classes are looked up on those classes at call time, never
    bound when the simulator is built, so a wrapper installed on a class
    after the simulator was built still sees every call.
    """

    def __init__(
        self, sim: ClusterSimulator, times: np.ndarray, keys: np.ndarray
    ) -> None:
        config = sim.config
        self.sim = sim
        self.config = config
        self.times: List[float] = times.tolist()
        self.keys: List[int] = keys.tolist()
        self.num_requests = len(self.times)
        self.slo = config.slo
        self.close_margin = sim.close_margin
        self.hit_time = config.cache_hit_time

        ladder = sim.ladder
        self.sns = [
            ServiceNode(index, config.service_rack(index), ServiceNodeCore(
                AdmissionController(sim.admission_config),
                DeadlineBatcher(sim.service, close_margin=sim.close_margin),
                DegradationLadder(
                    ladder.steps, ladder.high_watermark, ladder.low_watermark
                ),
            ), HotLabelCache(config.cache_capacity, config.cache_ttl))
            for index in range(config.service_nodes)
        ]
        self.dns = [
            DataNode(index, config.node_rack(index), config.slots_per_node)
            for index in range(config.data_nodes)
        ]
        self.autoscaler = Autoscaler(
            slo=config.slo, min_nodes=config.autoscale_min, max_nodes=config.service_nodes
        )
        self.active: List[ServiceNode] = list(self.sns)  # in index order
        self.peak_active = len(self.active)
        placement = sim.placement
        self.replicas = [
            [self.dns[node] for node in sorted(placement.nodes_for(shard))]
            for shard in range(config.shards)
        ]
        self.shard_sets = [
            frozenset(placement.shards_on(node)) for node in range(config.data_nodes)
        ]
        self.sn_racks = [sn.rack for sn in self.sns]
        self.crawlers = sim.crawlers
        self.fault_plan = sim.fault_plan
        self.link = config.interconnect
        self.stealing = config.steal_policy != "none"
        self.steal_newest = config.steal_policy == "newest"

        self.latencies = [LATENCY_UNSET] * self.num_requests
        self.counters = FleetCounters()
        self.shed_by_reason: Dict[str, int] = {}
        self.timeline: List[FailoverEvent] = []
        self.owner: Dict[int, ServiceNode] = {}  # queued request id -> node
        self.live: Dict[int, ShardTask] = {}  # started task id -> task
        self.batches: Dict[int, BatchState] = {}
        self.parked: List[ShardTask] = []
        self.parked_since: Dict[int, float] = {}
        self.severed: Set[Tuple[int, int]] = set()
        self.alive_slots = sum(dn.slots for dn in self.dns)
        self.running_tasks = 0
        self.parked_time = 0.0
        self.last_completion = self.times[0]
        self.next_task_id = 0
        self.next_batch_id = 0
        # (size, candidate scale, top-k scale) -> (merge cost, result bytes,
        # per-shard exec times)
        self.batch_costs: Dict[Tuple[int, float, float], Tuple[float, int, List[float]]] = {}

        hooks = current()
        self.registry = hooks.registry
        self.metered = self.registry.enabled
        self.tracer = hooks.tracer
        self.collector = hooks.collector
        self.causal = self.collector.enabled
        self.recorder = sim.digest_recorder

        self.kernel = EventKernel("cluster")
        push = self.push = self.kernel.push
        # Fault-plan state edges (crash + partition; brownouts are queried
        # point-in-time at task start instead).
        self.edges: List[Tuple[float, int, object]] = [
            edge for edge in sim.fault_plan.edges() if edge[1] in
            (EDGE_NODE_UP, EDGE_NODE_DOWN, EDGE_PARTITION_HEAL, EDGE_PARTITION_START)
        ]
        for index, edge in enumerate(self.edges):
            push(float(edge[0]), _KIND_EDGE, index)
        # Autoscaler evaluations, one per interval across the arrival span.
        if config.autoscale and len(self.sns) > 1:
            evaluations = int(self.times[-1] / config.autoscale_interval)
            for step in range(1, evaluations + 1):
                push(step * config.autoscale_interval, _KIND_SCALE, 0)

    def run(self) -> ClusterReport:
        handlers: Tuple[Callable[..., None], ...] = (  # indexed by event kind
            self.on_edge, self.on_scale, self.on_task, self.on_merge,
            self.on_cache, self.on_deadline,
        )
        on_arrival: Callable[..., None] = self.on_arrival
        recorder = self.recorder
        if recorder is not None:
            handlers = tuple(
                self.ticked(recorder, kind, handler)
                for kind, handler in enumerate(handlers)
            )
            on_arrival = self.ticked(recorder, _KIND_ARRIVAL, on_arrival)
        self.kernel.run(handlers, on_arrival, self.times)
        return self.report()

    def ticked(
        self, recorder: DigestRecorder, kind: int, handler: Callable[..., None]
    ) -> Callable[..., None]:
        """``handler``, preceded by one digest tick of the run's counters."""
        counters, kernel = self.counters, self.kernel

        def tick_then_handle(now: float, *args: int) -> None:
            recorder.tick(
                now, kind=kind, completed=counters.completed, shed=counters.shed,
                cache_hits=counters.cache_hits, tasks_done=counters.tasks_done,
                steals=counters.steals, running=self.running_tasks,
                parked=len(self.parked), batches=counters.batches,
                active=len(self.active), seq=kernel.seq,
            )
            handler(now, *args)

        return tick_then_handle

    # -- data-node side -------------------------------------------------------
    def reachable(self, rack_a: int, rack_b: int) -> bool:
        if rack_a == rack_b or not self.severed:
            return True
        pair = (rack_a, rack_b) if rack_a <= rack_b else (rack_b, rack_a)
        return pair not in self.severed

    def start_on(self, node: DataNode, task: ShardTask, now: float) -> None:
        ready = task.ready_at
        start = now if now > ready else ready
        index = node.index
        slow = self.crawlers.slowdown(index, start)
        if index in self.fault_plan.slowed_nodes:
            slow = self.fault_plan.slowdown(index, start) * slow
        end = start + task.exec_time * slow
        task.started_at = start
        if self.causal:
            self.collector.on_task_start(task.task_id, start, end, task.exec_time)
        node.start(task, end)
        self.live[task.task_id] = task
        self.running_tasks += 1
        task.end_seq = self.push(end, _KIND_TASK, task.task_id)

    def ship(self, task: ShardTask, node: DataNode, now: float) -> None:
        """Send ``task``'s request bytes from its service node to ``node``."""
        cross = self.sn_racks[task.service_node] != node.rack
        task.ready_at = now + self.link.transfer_time(task.bytes_out, cross)
        task.node = node.index
        if self.causal:
            self.collector.on_task_route(
                task.task_id, task.batch_id, task.shard, task.exec_time, now,
                task.ready_at, task.node,
            )

    def route(self, task: ShardTask, now: float) -> bool:
        """Place ``task`` on its least-loaded routable replica; False when parked."""
        sn_rack = self.sn_racks[task.service_node]
        severed = self.severed
        best: Optional[DataNode] = None
        best_load = 0
        for node in self.replicas[task.shard]:  # index order: ties go low
            if not node.alive or (severed and not self.reachable(sn_rack, node.rack)):
                continue
            load = len(node.running) + len(node.pending)
            if best is None or load < best_load:
                best = node
                best_load = load
        if best is None:
            self.parked.append(task)
            self.parked_since[task.task_id] = now
            self.counters.parked += 1
            self.log_failover(now, "park", task, task.node)
            if self.causal:
                self.collector.on_task_park(task.task_id, task.batch_id, task.shard)
            return False
        self.ship(task, best, now)
        if len(best.running) < best.slots and not best.pending:
            self.start_on(best, task, task.ready_at)
        else:
            best.pending.append(task)
        return True

    def steal(self, node: DataNode, now: float) -> None:
        """Pull one queued task for a shard ``node`` replicates.

        ``config.steal_policy`` picks which end of the victim's FIFO to
        scan: ``newest`` (tail first — the victim keeps its oldest,
        soonest-to-run work), ``oldest`` (head first — FIFO fairness at
        the cost of re-shipping the request that waited longest), or
        ``none`` (stealing disabled; idle slots stay idle).
        """
        if not self.stealing or not node.alive:
            return
        if len(node.running) >= node.slots or node.pending:
            return
        victims = [v for v in self.dns if v.pending and v is not node]
        my_shards = self.shard_sets[node.index]
        if not victims or not my_shards:
            return
        # Stable sort of an index-ordered list: ties stay in index order.
        victims.sort(key=lambda v: -len(v.pending))
        for victim in victims:
            pending = victim.pending
            if self.steal_newest:
                positions = range(len(pending) - 1, -1, -1)
            else:
                positions = range(len(pending))
            for position in positions:
                task = pending[position]
                if task.shard not in my_shards:
                    continue
                if not self.reachable(self.sn_racks[task.service_node], node.rack):
                    continue
                del pending[position]
                task.stolen = True
                node.steals += 1
                self.counters.steals += 1
                self.ship(task, node, now)
                if self.causal:
                    self.collector.on_task_steal(task.task_id)
                self.start_on(node, task, task.ready_at)
                return

    def failover(self, task: ShardTask, now: float, from_node: int) -> None:
        task.node = from_node
        if self.route(task, now):
            if self.causal:
                self.collector.on_task_redispatch(task.task_id)
            self.counters.redispatches += 1
            self.log_failover(now, "redispatch", task, from_node)

    def retry_parked(self, now: float) -> None:
        still_parked: List[ShardTask] = []
        for task in sorted(self.parked, key=lambda t: t.task_id):
            from_node = task.node
            task.node = -1
            sn_rack = self.sn_racks[task.service_node]
            if not any(
                node.alive and self.reachable(sn_rack, node.rack)
                for node in self.replicas[task.shard]
            ):
                task.node = from_node
                still_parked.append(task)
                continue
            self.route(task, now)
            self.parked_time += now - self.parked_since.pop(task.task_id)
            self.log_failover(now, "unpark", task, from_node)
        self.parked[:] = still_parked

    def log_failover(
        self, now: float, action: str, task: ShardTask, from_node: int
    ) -> None:
        """Append one failover decision to the timeline (and count it)."""
        to_node = task.node if action != "park" else -1
        self.timeline.append(
            FailoverEvent(now, action, task.shard, task.task_id, from_node, to_node)
        )
        if self.metered and action != "unpark":
            self.registry.counter(
                "cluster_failovers_total", "tasks redispatched or parked after a fault"
            ).inc(action=action)

    # -- service-node side ----------------------------------------------------
    def dispatch(self, sn: ServiceNode, now: float) -> None:
        core = sn.core
        pressure = core.pressure(sn.outstanding_requests, self.sim.pressure_fallback)
        level = core.dispatch_level(pressure)
        batch = core.form_batch()
        size = len(batch)
        request_ids = tuple([request.request_id for request in batch])
        owner = self.owner
        for rid in request_ids:
            owner.pop(rid, None)
        sn.outstanding_requests += size
        candidate_scale = core.ladder.candidate_scale
        top_k_scale = core.ladder.top_k_scale
        cost_key = (size, candidate_scale, top_k_scale)
        costs = self.batch_costs.get(cost_key)
        if costs is None:
            sim = self.sim
            costs = self.batch_costs[cost_key] = (
                sim.merge_time(size, top_k_scale),
                sim.result_bytes(size, top_k_scale),
                [
                    sim.shard_exec_time(shard, size, candidate_scale)
                    for shard in range(self.config.shards)
                ],
            )
        merge_cost, bytes_back, exec_times = costs
        batch_id = self.next_batch_id
        self.next_batch_id = batch_id + 1
        state = BatchState(  # positional: keyword calls cost twice as much
            batch_id, sn.index, size, request_ids, level, now, len(exec_times),
            merge_cost,
        )
        self.batches[batch_id] = state
        if self.causal:
            times = self.times
            self.collector.on_dispatch(
                batch_id, sn.index, now, level, request_ids,
                tuple([times[rid] for rid in request_ids]),
            )
        self.counters.batches += 1
        if self.metered:
            self.registry.counter(
                "cluster_batches_total", "batches dispatched by the fleet"
            ).inc(service_node=sn.index, level=level)
        bytes_out = size * REQUEST_BYTES
        for shard, exec_time in enumerate(exec_times):
            task = ShardTask(
                self.next_task_id, batch_id, shard, size, sn.index, exec_time,
                bytes_out, bytes_back,
            )
            self.next_task_id += 1
            self.route(task, now)

    def drain(self, sn: ServiceNode, now: float) -> None:
        """Dispatch batches while one must close or the fleet has idle slots."""
        queue = sn.core.queue
        should_close = sn.core.batcher.should_close
        while queue and (
            self.running_tasks < self.alive_slots or should_close(queue, now)
        ):
            self.dispatch(sn, now)

    # -- event handlers, one per kind -----------------------------------------
    def on_arrival(self, now: float, rid: int) -> None:
        active = self.active
        sn = active[0]
        fewest = sn.pending_requests
        for other in active:  # first of the least pending, in index order
            if other.pending_requests < fewest:
                sn = other
                fewest = other.pending_requests
        if sn.cache.lookup(self.keys[rid], now):
            self.push(now + self.hit_time, _KIND_CACHE, rid)
        else:  # ``now`` is this request's arrival time
            deadline = now + self.slo
            if deadline < now:  # ``Request.__new__``'s check, inline
                raise WorkloadError(
                    f"request {rid}: deadline {deadline} precedes arrival {now}"
                )
            reason = sn.core.offer(
                _tuple_new(Request, (rid, now, deadline)), sn.outstanding_requests, now
            )
            if self.metered:
                self.registry.counter(
                    "cluster_requests_total", "requests offered to the fleet"
                ).inc(outcome="shed" if reason else "admitted")
            if reason is None:
                self.owner[rid] = sn
                sn.pending_requests += 1
                # The batcher's close time: the latest safe dispatch.
                self.push(deadline - self.close_margin, _KIND_DEADLINE, rid)
                self.drain(sn, now)
            else:
                self.counters.shed += 1
                self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
                if self.causal:
                    self.collector.on_shed(reason)
                self.autoscaler.observe(now, True)

    def on_deadline(self, now: float, seq: int, rid: int) -> None:
        sn = self.owner.get(rid)  # None once the request rode a batch out
        if sn is not None:
            self.drain(sn, now)

    def on_cache(self, now: float, seq: int, rid: int) -> None:
        latency = now - self.times[rid]
        self.latencies[rid] = latency
        counters = self.counters
        counters.completed += 1
        counters.cache_hits += 1
        if self.causal:
            self.collector.on_cache_hit(rid, self.times[rid], now)
        self.autoscaler.observe(now, latency > self.slo)
        if now > self.last_completion:
            self.last_completion = now

    def on_task(self, now: float, seq: int, task_id: int) -> None:
        task = self.live.get(task_id)
        if task is None or task.end_seq != seq:
            # Cancelled by a crash edge, or a crashed node's stale
            # completion for a task since restarted elsewhere.
            return
        del self.live[task_id]
        node = self.dns[task.node]
        node.finish(task_id, now - task.started_at)
        self.running_tasks -= 1
        self.counters.tasks_done += 1
        pending = node.pending
        if pending:
            while len(node.running) < node.slots and pending:
                self.start_on(node, pending.popleft(), now)
        else:
            self.steal(node, now)
        state = self.batches[task.batch_id]
        cross = node.rack != self.sn_racks[state.service_node]
        result_at = now + self.link.transfer_time(task.bytes_back, cross)
        if self.causal:
            self.collector.on_task_finish(task_id, now, result_at)
        if result_at > state.last_result_at:
            state.last_result_at = result_at
        state.remaining -= 1
        if state.remaining == 0:
            self.push(
                state.last_result_at + state.merge_cost, _KIND_MERGE, state.batch_id
            )

    def on_merge(self, now: float, seq: int, batch_id: int) -> None:
        state = self.batches.pop(batch_id)
        sn = self.sns[state.service_node]
        sn.outstanding_requests -= state.size
        sn.pending_requests -= state.size
        times, keys, latencies = self.times, self.keys, self.latencies
        observe, insert, slo = self.autoscaler.observe, sn.cache.insert, self.slo
        for rid in state.request_ids:
            latency = now - times[rid]
            latencies[rid] = latency
            observe(now, latency > slo)
            insert(keys[rid], now)
        self.counters.completed += state.size
        if now > self.last_completion:
            self.last_completion = now
        if self.tracer.enabled:
            self.tracer.add_span(
                f"batch{state.batch_id}", state.dispatch_time, now, track=CLUSTER_TRACK,
                attrs={
                    "size": state.size, "level": state.level,
                    "service_node": state.service_node,
                },
            )
        if self.causal:
            self.collector.on_merge(state.batch_id, now)
        self.drain(sn, now)

    def on_edge(self, now: float, seq: int, index: int) -> None:
        _edge_time, edge_kind, payload = self.edges[index]
        if edge_kind == EDGE_NODE_DOWN:
            down = self.dns[int(payload)]
            if not down.alive:
                return
            down.alive = False
            self.alive_slots -= down.slots
            lost: List[ShardTask] = []
            for task_id in sorted(down.running):
                task = down.running[task_id]
                self.live.pop(task_id, None)
                self.running_tasks -= 1
                if task.started_at < now:
                    down.busy_time += now - task.started_at
                lost.append(task)
            down.running.clear()
            lost.extend(down.pending)
            down.pending.clear()
            for task in lost:
                self.failover(task, now, down.index)
        elif edge_kind == EDGE_NODE_UP:
            up = self.dns[int(payload)]
            # Another crash window may still cover this instant (overlapping
            # windows share one node); stay down and let that window's own
            # up-edge revive the node.
            if not up.alive and self.fault_plan.node_alive(up.index, now):
                up.alive = True
                self.alive_slots += up.slots
                self.retry_parked(now)
                self.steal(up, now)
        elif edge_kind == EDGE_PARTITION_START:
            self.severed.add((payload[0], payload[1]))
        elif edge_kind == EDGE_PARTITION_HEAL:
            pair = (payload[0], payload[1])
            # Another window on the same rack pair may still cover this
            # instant; its own heal edge lifts the severance.
            if self.fault_plan.reachable(pair[0], pair[1], now):
                self.severed.discard(pair)
                self.retry_parked(now)

    def on_scale(self, now: float, seq: int, _payload: int) -> None:
        active = len(self.active)
        target = self.autoscaler.decide(now, active)
        if target > active:
            # Activate the lowest-index inactive node; every node below it is
            # active, so its index is also its position in the active list.
            sn = next(node for node in self.sns if node not in self.active)
            self.active.insert(sn.index, sn)
            self.counters.scale_ups += 1
        elif target < active:
            self.active.pop()  # release the highest-index active node
            self.counters.scale_downs += 1
        self.peak_active = max(self.peak_active, len(self.active))

    # -- end of run -----------------------------------------------------------
    def report(self) -> ClusterReport:
        """Check conservation and leftovers, then build the run's report."""
        counters = self.counters
        num_requests = self.num_requests
        for sn in self.sns:
            sn.core.verify_drained()
            sn.core.admission.verify_conservation()
            if sn.outstanding_requests != 0:
                raise SimulationError(
                    f"service node {sn.index} ended with "
                    f"{sn.outstanding_requests} requests unmerged"
                )
        if self.live or self.batches or self.parked:
            raise SimulationError(
                f"cluster run ended with work left behind: {len(self.live)} "
                f"tasks running, {len(self.batches)} batches open, "
                f"{len(self.parked)} parked"
            )
        if counters.completed + counters.shed != num_requests:
            raise SimulationError(
                f"fleet conservation violated: {counters.completed} completed "
                f"+ {counters.shed} shed != {num_requests} arrived"
            )
        if self.recorder is not None:
            self.recorder.capture(
                self.last_completion, kind=-1, completed=counters.completed,
                shed=counters.shed, cache_hits=counters.cache_hits,
                tasks_done=counters.tasks_done, steals=counters.steals, running=0,
                parked=0, batches=counters.batches, active=len(self.active),
                seq=self.kernel.seq,
            )
        latencies = build_latency_array(num_requests)
        latencies[:] = self.latencies
        config = self.config
        report = ClusterReport(
            config={
                "data_nodes": config.data_nodes,
                "service_nodes": config.service_nodes,
                "shards": config.shards,
                "replicas": config.replicas,
                "racks": config.racks,
                "slots_per_node": config.slots_per_node,
                "seed": self.sim.seed,
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
            parked_time=self.parked_time,
            batches=counters.batches,
            scale_ups=counters.scale_ups,
            scale_downs=counters.scale_downs,
            peak_active_service_nodes=self.peak_active,
            node_busy=[dn.busy_time for dn in self.dns],
            makespan=self.last_completion - self.times[0],
            failover_timeline=self.timeline,
            shard_outages=shard_outage_seconds(self.fault_plan, self.sim.placement),
            shed_by_reason=self.shed_by_reason,
            max_degrade_level=max(sn.core.ladder.peak_level for sn in self.sns),
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
    ladder: Optional[DegradationLadder] = None,
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
    crawlers = CrawlerSchedule(seed)
    return ClusterSimulator(
        service=service,
        config=config,
        placement=placement,
        fault_plan=plan,
        crawlers=crawlers,
        seed=seed,
        digest_recorder=digest_recorder,
        ladder=ladder,
    )


def build_single_deployment(
    service: AffineServiceModel,
    slo: float,
    shards: int = 1,
    replicas: int = 1,
    token_rate: Optional[float] = None,
    hot_degrees: Optional[Sequence[float]] = None,
    ladder: Optional[DegradationLadder] = None,
    digest_recorder: Optional[DigestRecorder] = None,
) -> ClusterSimulator:
    """One deployment (§7.1: ``shards`` devices, ``replicas`` copies) as a fleet.

    The host is the fleet's one service node.  Each of the
    ``shards * replicas`` devices is a one-slot data node, all in one rack,
    so ``replicas`` tasks of each shard run at once.  Cache, autoscaler,
    crawlers and faults are off, and the interconnect is the host link:
    no fixed latency, :data:`~repro.serve.sharding.MERGE_BANDWIDTH`.
    ``hot_degrees`` (one per shard, mean ~1, from
    :func:`~repro.serve.sharding.shard_hot_degrees`) defaults to uniform.
    """
    if shards <= 0 or replicas <= 0:
        raise ConfigurationError("shards and replicas must be positive")
    devices = shards * replicas
    config = ClusterConfig(
        data_nodes=devices,
        service_nodes=1,
        shards=shards,
        replicas=devices,
        racks=1,
        slots_per_node=1,
        slo=slo,
        cache_capacity=0,
        autoscale=False,
        interconnect=Interconnect(latency=0.0, bandwidth=MERGE_BANDWIDTH),
        token_rate=token_rate,
    )
    degrees = list(hot_degrees) if hot_degrees is not None else [1.0] * shards
    return ClusterSimulator(
        service=service,
        config=config,
        placement=place_replicas(config, degrees),
        fault_plan=ClusterFaultPlan.build(
            ClusterFaultConfig.disabled(), nodes=devices, racks=1
        ),
        crawlers=CrawlerSchedule(0, crawlers=()),
        digest_recorder=digest_recorder,
        ladder=ladder,
    )


def single_deployment_rate(
    service: AffineServiceModel, slo: float, shards: int = 1, replicas: int = 1
) -> float:
    """Offered load (queries/s) at which a uniform single deployment saturates.

    Each of the ``replicas`` copies drains one knee-sized batch per
    worst-case batch time (slowest shard task plus the merge).  The serving
    bench's 1x point.
    """
    probe = build_single_deployment(service, slo, shards, replicas)
    return replicas * service.knee / probe.worst_batch


def cluster_saturating_rate(
    service: AffineServiceModel, config: ClusterConfig
) -> float:
    """Offered load (queries/s) at which the fleet's task slots saturate.

    Each knee-sized batch occupies ``shards`` slots for one worst-case task
    time; ``total_slots`` slots drain in parallel.  The bench's 1x point.
    """
    placement = place_replicas(config, [1.0] * config.shards)
    crawlers = CrawlerSchedule(0)
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
