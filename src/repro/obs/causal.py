"""Per-request causal tracing with tail-latency attribution.

Aggregate histograms say *that* p99 moved; they cannot say *where a p99
request spent its time*.  This module threads a causal trace through the
full request lifecycle — admission, queue wait, deadline-batch formation,
shard fan-out, interconnect hops, data-node channel-slot service, ECC-tier
retries, steal/failover/park-unpark, and top-k merge — and decomposes each
completed request into a stage-bucketed critical path whose stage durations
sum *exactly* (telescoping boundary timestamps) to the end-to-end latency.

Three layers:

* :class:`CausalCollector` — the process-global observer the simulators
  call into behind the established zero-overhead-when-disabled guard
  (:func:`get_collector` returns :data:`NULL_COLLECTOR` unless one is
  installed, mirroring ``repro.faults.injector``).  The collector is
  observe-only: it consumes no simulator RNG and touches no timing
  arithmetic, so trace-enabled runs keep bit-identical run IDs.
* :class:`TailExemplarStore` — deterministic tail-exemplar capture: the K
  slowest requests end-to-end (min-heap, request-id tie-break) plus a
  seeded Algorithm-R reservoir sample of the rest, byte-identical per seed.
* :class:`AttributionReport` — answers "where does p99 live" per stage and
  per fault class, with p50/p95/p99/p99.9 per stage, an ECC-tier section,
  and Chrome-trace export of any exemplar's causal graph
  (:func:`trace_to_chrome`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ObservabilityError, SimulationError
from .metrics import sample_quantiles
from .tracing import SpanRecord

# ---------------------------------------------------------------------------
# Stage taxonomy (fixed order; stages telescope to end-to-end latency)
# ---------------------------------------------------------------------------

STAGE_QUEUE_WAIT = "queue_wait"  # arrival -> batch dispatch
STAGE_FAILOVER = "failover"  # dispatch -> final successful route (parks etc.)
STAGE_FANOUT = "fanout_transfer"  # route -> shard task ready at data node
STAGE_SLOT_WAIT = "slot_wait"  # ready -> channel slot starts serving
STAGE_SERVICE = "service"  # base channel-slot execution time
STAGE_FAULT_SLOWDOWN = "fault_slowdown"  # slow-node / crawler multiplier cost
STAGE_RESULT = "result_transfer"  # shard finish -> result back at service node
STAGE_MERGE = "merge"  # last shard result -> top-k merge done
STAGE_CACHE = "cache"  # hot-label cache hit service (whole lifecycle)

STAGES: Tuple[str, ...] = (
    STAGE_QUEUE_WAIT,
    STAGE_FAILOVER,
    STAGE_FANOUT,
    STAGE_SLOT_WAIT,
    STAGE_SERVICE,
    STAGE_FAULT_SLOWDOWN,
    STAGE_RESULT,
    STAGE_MERGE,
    STAGE_CACHE,
)

# Fault classes a completed request is attributed to, by *critical-path*
# evidence (what actually delayed the request), highest precedence first.
FAULT_PARKED = "parked"
FAULT_REDISPATCHED = "redispatched"
FAULT_STOLEN = "stolen"
FAULT_SLOWED = "slowed"
FAULT_CLEAN = "clean"

FAULT_CLASSES: Tuple[str, ...] = (
    FAULT_PARKED,
    FAULT_REDISPATCHED,
    FAULT_STOLEN,
    FAULT_SLOWED,
    FAULT_CLEAN,
)

_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50_s", 50.0),
    ("p95_s", 95.0),
    ("p99_s", 99.0),
    ("p999_s", 99.9),
)

_EXEMPLAR_SALT = 0xCA5A
# Stage sums are telescoping differences of the same boundary floats, so any
# drift beyond accumulated rounding noise is a bookkeeping bug, not jitter.
_CONSERVATION_RTOL = 1e-9

_STAGE_TRACKS: Dict[str, str] = {
    STAGE_QUEUE_WAIT: "service-node",
    STAGE_FAILOVER: "service-node",
    STAGE_FANOUT: "interconnect",
    STAGE_SLOT_WAIT: "data-node",
    STAGE_SERVICE: "data-node",
    STAGE_FAULT_SLOWDOWN: "data-node",
    STAGE_RESULT: "interconnect",
    STAGE_MERGE: "service-node",
    STAGE_CACHE: "service-node",
}


# ---------------------------------------------------------------------------
# Per-request trace records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestTrace:
    """One completed request's causally-linked critical path.

    ``stages`` holds ``(stage, seconds)`` pairs in :data:`STAGES` order
    (zero-duration stages included) and ``boundaries`` the named absolute
    sim timestamps between them — ``len(boundaries) == len(stages) + 1``,
    consecutive boundary differences ARE the stage durations, so the stage
    sum telescopes to ``completion - arrival`` exactly.
    """

    trace_id: str
    request_id: int
    kind: str  # "batch" | "cache" | "serve"
    arrival: float
    completion: float
    fault_class: str
    stages: Tuple[Tuple[str, float], ...]
    boundaries: Tuple[Tuple[str, float], ...]
    batch_id: int = -1
    service_node: int = -1
    shard: int = -1
    task_id: int = -1
    data_node: int = -1
    level: int = 0

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    def stage_map(self) -> Dict[str, float]:
        return dict(self.stages)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "kind": self.kind,
            "arrival_s": self.arrival,
            "completion_s": self.completion,
            "latency_s": self.latency,
            "fault_class": self.fault_class,
            "stages_s": {name: value for name, value in self.stages},
            "boundaries_s": {name: value for name, value in self.boundaries},
            "batch_id": self.batch_id,
            "service_node": self.service_node,
            "shard": self.shard,
            "task_id": self.task_id,
            "data_node": self.data_node,
            "level": self.level,
        }


def trace_spans(trace: RequestTrace) -> List[SpanRecord]:
    """The exemplar's causal graph as sim-clocked spans.

    Each stage becomes one span on its architectural track (service node,
    interconnect, data node); the ``after`` attr names the causally
    preceding stage, so the chain is explicit in the exported trace.
    """
    spans: List[SpanRecord] = []
    previous: Optional[str] = None
    for index, (stage, _) in enumerate(trace.stages):
        start = trace.boundaries[index][1]
        end = trace.boundaries[index + 1][1]
        track = _STAGE_TRACKS[stage]
        if track == "data-node" and trace.data_node >= 0:
            track = f"data-node{trace.data_node}"
        spans.append(
            SpanRecord(
                name=f"{trace.trace_id}/{stage}",
                track=track,
                sim_start=start,
                sim_end=end,
                attrs={
                    "trace_id": trace.trace_id,
                    "stage": stage,
                    "after": previous,
                    "fault_class": trace.fault_class,
                    "batch_id": trace.batch_id,
                    "shard": trace.shard,
                    "task_id": trace.task_id,
                    "level": trace.level,
                },
            )
        )
        previous = stage
    return spans


def trace_to_chrome(trace: RequestTrace) -> Dict[str, object]:
    """Chrome ``chrome://tracing`` document for one exemplar's causal graph."""
    from .export import spans_to_chrome_events

    return {
        "traceEvents": spans_to_chrome_events(trace_spans(trace)),
        "displayTimeUnit": "ns",
        "otherData": {
            "trace_id": trace.trace_id,
            "fault_class": trace.fault_class,
            "latency_s": trace.latency,
            "kind": trace.kind,
        },
    }


# ---------------------------------------------------------------------------
# Deterministic tail-exemplar capture
# ---------------------------------------------------------------------------


class TailExemplarStore:
    """K slowest requests + seeded Algorithm-R sample of the whole stream.

    The slowest set is exact (min-heap keyed ``(latency, -request_id)`` so
    latency ties deterministically keep the smaller request id).  The
    reservoir draws from an explicit ``default_rng((seed, salt))`` stream,
    so the kept sample is a pure function of (seed, offer order) —
    byte-identical run to run.
    """

    def __init__(self, slowest_k: int = 8, sample_size: int = 16, seed: int = 0):
        self.slowest_k = int(slowest_k)
        self.sample_size = int(sample_size)
        self.seed = int(seed)
        self._heap: List[Tuple[float, int, RequestTrace]] = []
        self._rng = np.random.default_rng((seed, _EXEMPLAR_SALT))
        self._reservoir: List[Tuple[int, RequestTrace]] = []
        self.offered = 0

    def offer(self, trace: RequestTrace) -> None:
        if self.slowest_k > 0:
            entry = (trace.latency, -trace.request_id, trace)
            if len(self._heap) < self.slowest_k:
                heapq.heappush(self._heap, entry)
            elif entry > self._heap[0]:
                heapq.heappushpop(self._heap, entry)
        if self.sample_size > 0:
            index = self.offered
            if len(self._reservoir) < self.sample_size:
                self._reservoir.append((index, trace))
            else:
                slot = int(self._rng.integers(0, index + 1))
                if slot < self.sample_size:
                    self._reservoir[slot] = (index, trace)
        self.offered += 1

    def slowest(self) -> List[RequestTrace]:
        """Slowest-first; latency ties break toward the smaller request id."""
        ordered = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [entry[2] for entry in ordered]

    def sampled(self) -> List[RequestTrace]:
        """Reservoir sample in arrival order, minus the slowest-K overlap."""
        slow_ids = {trace.request_id for trace in self.slowest()}
        return [
            trace
            for _, trace in sorted(self._reservoir, key=lambda e: e[0])
            if trace.request_id not in slow_ids
        ]


# ---------------------------------------------------------------------------
# Collector (null object + live implementation)
# ---------------------------------------------------------------------------


class NullCausalCollector:
    """Default no-op collector: every hook returns immediately.

    Simulators guard each hook call with ``collector.enabled`` so a
    disabled run pays one attribute read per loop, not per event — the
    same zero-overhead contract as the metrics registry, tracer, and
    fault injector.
    """

    enabled = False

    def on_dispatch(
        self,
        batch_id: int,
        service_node: int,
        dispatch_time: float,
        level: int,
        request_ids: Sequence[int],
        arrivals: Sequence[float],
    ) -> None:
        return None

    def on_task_route(
        self,
        task_id: int,
        batch_id: int,
        shard: int,
        exec_time: float,
        route_time: float,
        ready_at: float,
        node: int,
    ) -> None:
        return None

    def on_task_park(self, task_id: int, batch_id: int, shard: int) -> None:
        return None

    def on_task_steal(self, task_id: int) -> None:
        return None

    def on_task_redispatch(self, task_id: int) -> None:
        return None

    def on_task_start(
        self, task_id: int, started_at: float, end: float, exec_time: float
    ) -> None:
        return None

    def on_task_finish(self, task_id: int, end: float, result_at: float) -> None:
        return None

    def on_merge(self, batch_id: int, completion: float) -> None:
        return None

    def on_cache_hit(
        self, request_id: int, arrival: float, completion: float
    ) -> None:
        return None

    def on_shed(self, reason: str) -> None:
        return None

    def on_serve_complete(
        self,
        request_id: int,
        arrival: float,
        dispatch_time: float,
        completion: float,
        level: int = 0,
    ) -> None:
        return None

    def on_ecc(self, tier: str, extra_latency: float, retries: int) -> None:
        return None


@dataclass
class _TaskRecord:
    batch_id: int
    shard: int
    exec_time: float = 0.0
    route_time: float = 0.0
    ready_at: float = 0.0
    node: int = -1
    started_at: float = 0.0
    end: float = 0.0
    result_at: float = 0.0
    stolen: bool = False
    parked: bool = False
    redispatched: bool = False


@dataclass
class _BatchRecord:
    service_node: int
    dispatch_time: float
    level: int
    request_ids: Tuple[int, ...]
    arrivals: Tuple[float, ...]
    task_ids: List[int] = field(default_factory=list)


class CausalCollector(NullCausalCollector):
    """Live per-request causal collector.

    Observe-only: hooks copy already-computed sim timestamps into private
    records (no simulator RNG draws, no timing arithmetic), finalize each
    request at its merge/cache/serve completion into a stage breakdown,
    verify stage-sum conservation, and feed the tail-exemplar store.
    """

    enabled = True

    def __init__(
        self,
        slowest_k: int = 8,
        sample_size: int = 16,
        seed: int = 0,
        keep_traces: bool = False,
    ):
        self.exemplars = TailExemplarStore(
            slowest_k=slowest_k, sample_size=sample_size, seed=seed
        )
        # Opt-in full retention (tests, small audits); the default keeps
        # memory bounded by the exemplar store no matter how many requests
        # the run completes.
        self._traces: Optional[List[RequestTrace]] = [] if keep_traces else None
        self.seed = int(seed)
        self._tasks: Dict[int, _TaskRecord] = {}
        self._batches: Dict[int, _BatchRecord] = {}
        self._latencies: List[float] = []
        self._classes: List[str] = []
        self._stage_samples: Dict[str, List[float]] = {s: [] for s in STAGES}
        self.completed = 0
        self.cache_hits = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.ecc_tiers: Dict[str, int] = {}
        self.ecc_retries = 0
        self.ecc_extra_latency = 0.0

    # -- cluster/serve hook implementations --------------------------------

    def on_dispatch(
        self,
        batch_id: int,
        service_node: int,
        dispatch_time: float,
        level: int,
        request_ids: Sequence[int],
        arrivals: Sequence[float],
    ) -> None:
        self._batches[batch_id] = _BatchRecord(
            service_node=service_node,
            dispatch_time=dispatch_time,
            level=level,
            request_ids=tuple(request_ids),
            arrivals=tuple(arrivals),
        )

    def _task(self, task_id: int, batch_id: int, shard: int) -> _TaskRecord:
        record = self._tasks.get(task_id)
        if record is None:
            record = _TaskRecord(batch_id=batch_id, shard=shard)
            self._tasks[task_id] = record
            batch = self._batches.get(batch_id)
            if batch is not None:
                batch.task_ids.append(task_id)
        return record

    def on_task_route(
        self,
        task_id: int,
        batch_id: int,
        shard: int,
        exec_time: float,
        route_time: float,
        ready_at: float,
        node: int,
    ) -> None:
        record = self._task(task_id, batch_id, shard)
        record.exec_time = exec_time
        record.route_time = route_time
        record.ready_at = ready_at
        record.node = node

    def on_task_park(self, task_id: int, batch_id: int, shard: int) -> None:
        self._task(task_id, batch_id, shard).parked = True

    def on_task_steal(self, task_id: int) -> None:
        record = self._tasks.get(task_id)
        if record is not None:
            record.stolen = True

    def on_task_redispatch(self, task_id: int) -> None:
        record = self._tasks.get(task_id)
        if record is not None:
            record.redispatched = True

    def on_task_start(
        self, task_id: int, started_at: float, end: float, exec_time: float
    ) -> None:
        record = self._tasks.get(task_id)
        if record is not None:
            record.started_at = started_at
            record.end = end
            record.exec_time = exec_time

    def on_task_finish(self, task_id: int, end: float, result_at: float) -> None:
        record = self._tasks.get(task_id)
        if record is not None:
            record.end = end
            record.result_at = result_at

    def on_merge(self, batch_id: int, completion: float) -> None:
        batch = self._batches.pop(batch_id, None)
        if batch is None:
            return
        tasks = [self._tasks.pop(tid) for tid in batch.task_ids]
        if not tasks:
            return
        # The request's critical path runs through the shard whose result
        # arrived last (latency ties -> the smaller task id, so the choice
        # is deterministic and replayable).
        critical = max(
            range(len(tasks)),
            key=lambda i: (tasks[i].result_at, -batch.task_ids[i]),
        )
        task = tasks[critical]
        task_id = batch.task_ids[critical]
        if task.parked:
            fault_class = FAULT_PARKED
        elif task.redispatched:
            fault_class = FAULT_REDISPATCHED
        elif task.stolen:
            fault_class = FAULT_STOLEN
        elif (task.end - task.started_at) - task.exec_time > _CONSERVATION_RTOL:
            fault_class = FAULT_SLOWED
        else:
            fault_class = FAULT_CLEAN
        service_end = task.started_at + task.exec_time
        shared = (
            (STAGE_FAILOVER, batch.dispatch_time, task.route_time),
            (STAGE_FANOUT, task.route_time, task.ready_at),
            (STAGE_SLOT_WAIT, task.ready_at, task.started_at),
            (STAGE_SERVICE, task.started_at, service_end),
            (STAGE_FAULT_SLOWDOWN, service_end, task.end),
            (STAGE_RESULT, task.end, task.result_at),
            (STAGE_MERGE, task.result_at, completion),
        )
        for request_id, arrival in zip(batch.request_ids, batch.arrivals):
            stages = {name: 0.0 for name in STAGES}
            stages[STAGE_QUEUE_WAIT] = batch.dispatch_time - arrival
            for name, start, end in shared:
                stages[name] = end - start
            boundaries = (
                ("arrival", arrival),
                ("dispatch", batch.dispatch_time),
                ("route", task.route_time),
                ("ready", task.ready_at),
                ("start", task.started_at),
                ("service_end", service_end),
                ("exec_end", task.end),
                ("result", task.result_at),
                ("completion", completion),
            )
            self._finish(
                RequestTrace(
                    trace_id=f"req-{request_id}",
                    request_id=request_id,
                    kind="batch",
                    arrival=arrival,
                    completion=completion,
                    fault_class=fault_class,
                    stages=tuple(
                        (name, stages[name])
                        for name in STAGES
                        if name != STAGE_CACHE
                    ),
                    boundaries=boundaries,
                    batch_id=batch_id,
                    service_node=batch.service_node,
                    shard=task.shard,
                    task_id=task_id,
                    data_node=task.node,
                    level=batch.level,
                )
            )

    def on_cache_hit(
        self, request_id: int, arrival: float, completion: float
    ) -> None:
        self.cache_hits += 1
        self._finish(
            RequestTrace(
                trace_id=f"req-{request_id}",
                request_id=request_id,
                kind="cache",
                arrival=arrival,
                completion=completion,
                fault_class=FAULT_CLEAN,
                stages=((STAGE_CACHE, completion - arrival),),
                boundaries=(("arrival", arrival), ("completion", completion)),
            )
        )

    def on_shed(self, reason: str) -> None:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    def on_serve_complete(
        self,
        request_id: int,
        arrival: float,
        dispatch_time: float,
        completion: float,
        level: int = 0,
    ) -> None:
        self._finish(
            RequestTrace(
                trace_id=f"req-{request_id}",
                request_id=request_id,
                kind="serve",
                arrival=arrival,
                completion=completion,
                fault_class=FAULT_CLEAN,
                stages=(
                    (STAGE_QUEUE_WAIT, dispatch_time - arrival),
                    (STAGE_SERVICE, completion - dispatch_time),
                ),
                boundaries=(
                    ("arrival", arrival),
                    ("dispatch", dispatch_time),
                    ("completion", completion),
                ),
                level=level,
            )
        )

    def on_ecc(self, tier: str, extra_latency: float, retries: int) -> None:
        self.ecc_tiers[tier] = self.ecc_tiers.get(tier, 0) + 1
        self.ecc_retries += retries
        self.ecc_extra_latency += extra_latency

    # -- finalization -------------------------------------------------------

    def _finish(self, trace: RequestTrace) -> None:
        latency = trace.latency
        total = math.fsum(value for _, value in trace.stages)
        if abs(total - latency) > _CONSERVATION_RTOL * max(1.0, abs(latency)):
            raise SimulationError(
                f"causal stage sum {total!r} != end-to-end latency "
                f"{latency!r} for {trace.trace_id} — attribution lost "
                f"{latency - total!r}s"
            )
        stage_map = trace.stage_map()
        for name in STAGES:
            self._stage_samples[name].append(stage_map.get(name, 0.0))
        self._latencies.append(latency)
        self._classes.append(trace.fault_class)
        self.completed += 1
        self.exemplars.offer(trace)
        if self._traces is not None:
            self._traces.append(trace)

    def traces(self) -> Tuple[RequestTrace, ...]:
        """Every finished trace, in completion order (``keep_traces`` only)."""
        if self._traces is None:
            raise ObservabilityError(
                "full traces were not retained; construct the collector "
                "with keep_traces=True to audit every request"
            )
        return tuple(self._traces)

    def report(self) -> "AttributionReport":
        return AttributionReport.from_collector(self)


NULL_COLLECTOR = NullCausalCollector()
_collector: NullCausalCollector = NULL_COLLECTOR


def get_collector() -> NullCausalCollector:
    """The process-global causal collector (the null object when disabled)."""
    return _collector


def set_collector(collector: Optional[NullCausalCollector]) -> None:
    """Install a collector; ``None`` restores the zero-overhead null object."""
    global _collector
    _collector = NULL_COLLECTOR if collector is None else collector


class installed:
    """Context manager installing a collector for the duration of a block."""

    def __init__(self, collector: Optional[NullCausalCollector]):
        self.collector = collector
        self._previous: Optional[NullCausalCollector] = None

    def __enter__(self) -> NullCausalCollector:
        self._previous = get_collector()
        set_collector(self.collector)
        return get_collector()

    def __exit__(self, *exc_info: object) -> None:
        set_collector(self._previous)


# ---------------------------------------------------------------------------
# Attribution report
# ---------------------------------------------------------------------------


def _quantile_block(values: np.ndarray) -> Dict[str, float]:
    block = sample_quantiles(values, _QUANTILES)
    block["mean_s"] = float(values.mean())
    block["max_s"] = float(values.max())
    return block


@dataclass(frozen=True)
class AttributionReport:
    """Where does p99 live: stage- and fault-class-bucketed tail attribution.

    ``stages`` carries per-stage latency quantiles plus each stage's share
    of total completed-request time; ``tail`` repeats the split restricted
    to the slowest 1% (latency >= p99), which is the attribution question
    the report exists to answer; ``fault_classes`` buckets requests by the
    critical-path fault evidence (parked/redispatched/stolen/slowed/clean).
    """

    completed: int
    cache_hits: int
    seed: int
    shed: Dict[str, int]
    latency: Dict[str, float]
    stages: Dict[str, Dict[str, float]]
    tail: Dict[str, object]
    fault_classes: Dict[str, Dict[str, float]]
    ecc: Dict[str, object]
    slowest: Tuple[RequestTrace, ...]
    sampled: Tuple[RequestTrace, ...]

    @classmethod
    def from_collector(cls, collector: CausalCollector) -> "AttributionReport":
        ecc: Dict[str, object] = {
            "tiers": dict(sorted(collector.ecc_tiers.items())),
            "retries": collector.ecc_retries,
            "extra_latency_s": collector.ecc_extra_latency,
        }
        if not collector.completed:
            return cls(
                completed=0,
                cache_hits=collector.cache_hits,
                seed=collector.seed,
                shed=dict(sorted(collector.shed_by_reason.items())),
                latency={},
                stages={},
                tail={},
                fault_classes={},
                ecc=ecc,
                slowest=(),
                sampled=(),
            )
        latencies = np.asarray(collector._latencies, dtype=np.float64)
        samples = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in collector._stage_samples.items()
        }
        classes = np.asarray(collector._classes)
        total_time = float(latencies.sum())
        stages: Dict[str, Dict[str, float]] = {}
        for name in STAGES:
            values = samples[name]
            block = _quantile_block(values)
            block["total_s"] = float(values.sum())
            block["share"] = (
                block["total_s"] / total_time if total_time > 0.0 else 0.0
            )
            stages[name] = block
        threshold = float(np.percentile(latencies, 99.0))
        mask = latencies >= threshold
        tail_total = float(latencies[mask].sum())
        tail_stages: Dict[str, Dict[str, float]] = {}
        for name in STAGES:
            stage_tail = float(samples[name][mask].sum())
            tail_stages[name] = {
                "total_s": stage_tail,
                "share": stage_tail / tail_total if tail_total > 0.0 else 0.0,
            }
        tail: Dict[str, object] = {
            "threshold_s": threshold,
            "count": int(mask.sum()),
            "stages": tail_stages,
        }
        fault_classes: Dict[str, Dict[str, float]] = {}
        for fault_class in FAULT_CLASSES:
            class_mask = classes == fault_class
            count = int(class_mask.sum())
            if not count:
                continue
            block = _quantile_block(latencies[class_mask])
            block["count"] = float(count)
            block["share"] = count / len(latencies)
            block["tail_count"] = float(int((class_mask & mask).sum()))
            fault_classes[fault_class] = block
        return cls(
            completed=collector.completed,
            cache_hits=collector.cache_hits,
            seed=collector.seed,
            shed=dict(sorted(collector.shed_by_reason.items())),
            latency=_quantile_block(latencies),
            stages=stages,
            tail=tail,
            fault_classes=fault_classes,
            ecc=ecc,
            slowest=tuple(collector.exemplars.slowest()),
            sampled=tuple(collector.exemplars.sampled()),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "seed": self.seed,
            "shed": dict(self.shed),
            "latency": dict(self.latency),
            "stages": {k: dict(v) for k, v in self.stages.items()},
            "tail": self.tail,
            "fault_classes": {
                k: dict(v) for k, v in self.fault_classes.items()
            },
            "ecc": self.ecc,
            "exemplars": {
                "slowest": [t.to_dict() for t in self.slowest],
                "sampled": [t.to_dict() for t in self.sampled],
            },
        }

    def stage_metrics(self, prefix: str = "stage_") -> Dict[str, float]:
        """Flat ablate-campaign metrics: per-stage p99 ms + tail shares.

        Names match the ``*p99*`` higher-is-worse scoring pattern, so the
        importance ranking picks up stage regressions without new config.
        """
        metrics: Dict[str, float] = {}
        for name, block in self.stages.items():
            metrics[f"{prefix}{name}_p99_ms"] = block["p99_s"] * 1e3
        if self.latency:
            metrics["latency_p999_ms"] = self.latency["p999_s"] * 1e3
        tail_stages = self.tail.get("stages")
        if isinstance(tail_stages, dict):
            for name, block in tail_stages.items():
                metrics[f"tail_{name}_share"] = block["share"]
        return metrics

    def render(self) -> str:
        from ..analysis.reporting import render_table

        lines: List[str] = []
        shed_total = sum(self.shed.values())
        lines.append(
            f"tail attribution over {self.completed} completed requests "
            f"({self.cache_hits} cache hits, {shed_total} shed, "
            f"seed {self.seed})"
        )
        if not self.completed:
            lines.append("no completed requests — nothing to attribute")
            return "\n".join(lines)
        lat = self.latency
        lines.append(
            "end-to-end latency p50/p95/p99/p99.9: "
            f"{lat['p50_s'] * 1e3:.3f} / {lat['p95_s'] * 1e3:.3f} / "
            f"{lat['p99_s'] * 1e3:.3f} / {lat['p999_s'] * 1e3:.3f} ms"
        )
        tail_stages = self.tail["stages"]
        assert isinstance(tail_stages, dict)
        rows = []
        for name in STAGES:
            block = self.stages[name]
            if not (block["total_s"] > 0.0 or block["max_s"] > 0.0):
                continue
            rows.append(
                [
                    name,
                    f"{block['share'] * 100:.1f}%",
                    f"{tail_stages[name]['share'] * 100:.1f}%",
                    f"{block['p50_s'] * 1e3:.3f}",
                    f"{block['p95_s'] * 1e3:.3f}",
                    f"{block['p99_s'] * 1e3:.3f}",
                    f"{block['p999_s'] * 1e3:.3f}",
                ]
            )
        lines.append(
            render_table(
                ["stage", "share", "tail share", "p50 ms", "p95 ms",
                 "p99 ms", "p99.9 ms"],
                rows,
            )
        )
        class_rows = []
        for name in FAULT_CLASSES:
            block = self.fault_classes.get(name)
            if block is None:
                continue
            class_rows.append(
                [
                    name,
                    f"{int(block['count'])}",
                    f"{block['share'] * 100:.2f}%",
                    f"{int(block['tail_count'])}",
                    f"{block['p99_s'] * 1e3:.3f}",
                ]
            )
        lines.append(
            render_table(
                ["fault class", "requests", "share", "in tail", "p99 ms"],
                class_rows,
            )
        )
        tiers = self.ecc["tiers"]
        assert isinstance(tiers, dict)
        if tiers:
            tier_text = ", ".join(f"{k}={v}" for k, v in tiers.items())
            lines.append(
                f"ecc tiers: {tier_text} ({self.ecc['retries']} retries, "
                f"{self.ecc['extra_latency_s']}s extra latency)"
            )
        if self.slowest:
            exemplar_rows = [
                [
                    trace.trace_id,
                    f"{trace.latency * 1e3:.3f}",
                    trace.fault_class,
                    max(trace.stages, key=lambda s: s[1])[0],
                ]
                for trace in self.slowest
            ]
            lines.append(
                render_table(
                    ["exemplar", "latency ms", "fault class", "top stage"],
                    exemplar_rows,
                )
            )
        return "\n".join(lines)


__all__ = [
    "STAGES",
    "STAGE_QUEUE_WAIT",
    "STAGE_FAILOVER",
    "STAGE_FANOUT",
    "STAGE_SLOT_WAIT",
    "STAGE_SERVICE",
    "STAGE_FAULT_SLOWDOWN",
    "STAGE_RESULT",
    "STAGE_MERGE",
    "STAGE_CACHE",
    "FAULT_CLASSES",
    "RequestTrace",
    "TailExemplarStore",
    "NullCausalCollector",
    "CausalCollector",
    "AttributionReport",
    "NULL_COLLECTOR",
    "get_collector",
    "set_collector",
    "installed",
    "trace_spans",
    "trace_to_chrome",
]
