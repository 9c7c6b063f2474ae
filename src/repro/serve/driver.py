"""The deterministic discrete-event serving loop.

:class:`ServingSimulator` replays an arrival-time sequence (from
:mod:`repro.workloads.streams`) through the full request lifecycle::

    arrive -> admit / shed -> queue -> deadline batch -> route -> complete

on a single event heap with three event kinds — completions, batch-close
deadlines, and arrivals — ordered by ``(time, kind, sequence)`` so ties
resolve identically on every run.  Completions sort first (a freed replica
can take work arriving at the same instant), then deadlines, then arrivals.

Dispatch policy: a batch leaves the queue when the :class:`DeadlineBatcher`
says it must (knee reached, or the head request's slack is gone) *or*, when
``eager_when_idle`` is set, as soon as any replica group sits completely
idle — the layer batches up to the roofline knee only under load, and stays
work-conserving otherwise.  Before each dispatch the
:class:`~repro.serve.degrade.DegradationLadder` observes queue pressure and
sets the fidelity level for that batch.

:func:`build_serving_stack` assembles the whole layer from a service model
and a :class:`ServingConfig`; :func:`saturating_rate` computes the offered
load at which the configured cluster saturates (the bench's 1x point).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError, WorkloadError
from ..obs import SERVE_TRACK, get_registry, get_tracer
from ..obs.causal import get_collector
from ..obs.digest import DigestRecorder
from .admission import AdmissionConfig, AdmissionController
from .degrade import DegradationLadder
from .kernel import EventKernel, arrival_times
from .node import ServiceNodeCore
from .request import (
    BatchRecord,
    CompletedRequest,
    Request,
    ServingReport,
    ShedRequest,
)
from .router import ReplicaState, Router, build_replicas
from .scheduler import AffineServiceModel, DeadlineBatcher

logger = logging.getLogger(__name__)

# Event kinds, in tie-break order at equal timestamps.
_KIND_COMPLETION = 0
_KIND_DEADLINE = 1
_KIND_ARRIVAL = 2


@dataclass(frozen=True)
class _InflightBatch:
    """A dispatched batch waiting for its completion event."""

    replica: ReplicaState
    requests: Tuple[Request, ...]
    dispatch_time: float
    completion: float
    degrade_level: int


class ServingSimulator:
    """Drives admission, batching, routing, and degradation over arrivals."""

    def __init__(
        self,
        service: AffineServiceModel,
        router: Router,
        admission: AdmissionController,
        batcher: DeadlineBatcher,
        ladder: DegradationLadder,
        slo: float,
        eager_when_idle: bool = True,
        fault_signal: Optional[Callable[[float], float]] = None,
        digest_recorder: Optional[DigestRecorder] = None,
    ) -> None:
        if slo <= 0:
            raise ConfigurationError("slo must be positive")
        self.service = service
        self.router = router
        self.admission = admission
        self.batcher = batcher
        self.ladder = ladder
        self.slo = slo
        self.eager_when_idle = eager_when_idle
        # Device-reliability pressure source (sim time -> [0, 1]); usually
        # FaultInjector.fault_pressure.  None means a healthy device.
        self.fault_signal = fault_signal
        # Optional provenance hook: ticked once per event-heap pop with the
        # loop's counter snapshot, so two same-seed runs can be checked for
        # state divergence after the fact (repro.obs.digest).
        self.digest_recorder = digest_recorder

    # -- helpers -------------------------------------------------------------
    def _pending(self, core: ServiceNodeCore) -> int:
        return core.pending(self.router.inflight_requests)

    def _pressure(self, core: ServiceNodeCore) -> float:
        fallback = self.batcher.knee * len(self.router.replicas) * 4
        return core.pressure(self.router.inflight_requests, fallback)

    def _has_idle_replica(self) -> bool:
        return any(r.outstanding_batches == 0 for r in self.router.replicas)

    def run(
        self,
        arrivals: Sequence[float],
        tenants: Optional[Sequence[str]] = None,
        priorities: Optional[Sequence[int]] = None,
    ) -> ServingReport:
        """Replay ``arrivals`` (sorted timestamps, seconds) to completion.

        ``tenants``/``priorities`` optionally label each arrival; defaults
        are a single tenant at priority 0.  Returns the
        :class:`~repro.serve.request.ServingReport`; raises
        :class:`~repro.errors.SimulationError` if the conservation invariant
        (admitted + shed == arrived) breaks or work is left behind.
        """
        times = arrival_times(arrivals)
        if tenants is not None and len(tenants) != times.size:
            raise WorkloadError("tenants must align with arrivals")
        if priorities is not None and len(priorities) != times.size:
            raise WorkloadError("priorities must align with arrivals")

        core = ServiceNodeCore(self.admission, self.batcher, self.ladder)
        inflight: Dict[int, _InflightBatch] = {}
        completed: List[CompletedRequest] = []
        shed: List[ShedRequest] = []
        batches: List[BatchRecord] = []
        kernel = EventKernel("serve")
        push = kernel.push
        pop = kernel.pop
        for index in range(int(times.size)):
            push(float(times[index]), _KIND_ARRIVAL, index)

        registry = get_registry()
        tracer = get_tracer()
        collector = get_collector()

        def dispatch(now: float) -> None:
            replica = self.router.route()
            if replica is None:
                raise SimulationError("dispatch with no replica capacity")
            fault_pressure = (
                self.fault_signal(now) if self.fault_signal is not None else 0.0
            )
            level = core.dispatch_level(self._pressure(core), fault_pressure)
            batch = core.form_batch()
            if not batch:
                raise SimulationError("dispatch from an empty queue")
            duration = self.router.batch_time_on(
                replica,
                len(batch),
                candidate_scale=self.ladder.candidate_scale,
                top_k_scale=self.ladder.top_k_scale,
            )
            completion = now + duration
            self.router.acquire(replica, len(batch))
            inflight[kernel.seq] = _InflightBatch(
                replica=replica,
                requests=tuple(batch),
                dispatch_time=now,
                completion=completion,
                degrade_level=level,
            )
            push(completion, _KIND_COMPLETION, kernel.seq)
            if registry.enabled:
                registry.counter(
                    "serve_batches_total", "batches dispatched by the serving layer"
                ).inc(level=level, replica=replica.index)
                wait_histogram = registry.histogram(
                    "serve_queue_wait_seconds",
                    "time each request waited in queue before dispatch",
                )
                for request in batch:
                    wait_histogram.observe(now - request.arrival)
            if tracer.enabled:
                waits = [now - request.arrival for request in batch]
                tracer.add_span(
                    f"batch{len(batches)}",
                    now,
                    completion,
                    track=SERVE_TRACK,
                    attrs={
                        "size": len(batch),
                        "level": level,
                        "replica": replica.index,
                        "queue_wait_max": max(waits),
                        "queue_wait_mean": sum(waits) / len(waits),
                    },
                )
            batches.append(
                BatchRecord(
                    start=now,
                    end=completion,
                    size=len(batch),
                    degrade_level=level,
                    replica=replica.index,
                )
            )

        def drain(now: float) -> None:
            while core.depth > 0 and self.router.has_capacity():
                must = core.should_close(now)
                eager = self.eager_when_idle and self._has_idle_replica()
                if not (must or eager):
                    break
                dispatch(now)

        recorder = self.digest_recorder

        while kernel:
            now, kind, _seq, payload = pop()
            if recorder is not None:
                recorder.tick(
                    now,
                    kind=kind,
                    queue_depth=core.depth,
                    waiting=len(core.waiting),
                    inflight=len(inflight),
                    completed=len(completed),
                    shed=len(shed),
                    batches=len(batches),
                    degrade_level=self.ladder.level,
                    seq=kernel.seq,
                )
            if kind == _KIND_COMPLETION:
                batch_state = inflight.pop(payload)
                self.router.release(
                    batch_state.replica, len(batch_state.requests)
                )
                for request in batch_state.requests:
                    record = CompletedRequest(
                        request=request,
                        dispatch_time=batch_state.dispatch_time,
                        completion=batch_state.completion,
                        degrade_level=batch_state.degrade_level,
                        replica=batch_state.replica.index,
                    )
                    completed.append(record)
                    if collector.enabled:
                        collector.on_serve_complete(
                            request.request_id,
                            request.arrival,
                            batch_state.dispatch_time,
                            batch_state.completion,
                            batch_state.degrade_level,
                        )
                    if registry.enabled:
                        registry.histogram(
                            "serve_request_latency_seconds",
                            "admitted-request latency through the serving layer",
                        ).observe(record.latency, level=record.degrade_level)
                drain(now)
            elif kind == _KIND_DEADLINE:
                if core.is_waiting(payload):
                    drain(now)
            else:  # arrival
                arrival_time = float(times[payload])
                tenant = tenants[payload] if tenants is not None else "default"
                priority = priorities[payload] if priorities is not None else 0
                request = Request(
                    request_id=payload,
                    arrival=arrival_time,
                    deadline=arrival_time + self.slo,
                    tenant=tenant,
                    priority=priority,
                )
                reason = core.offer(
                    request, self.router.inflight_requests, now
                )
                if registry.enabled:
                    registry.counter(
                        "serve_requests_total", "requests offered to the serving layer"
                    ).inc(outcome="shed" if reason else "admitted")
                if reason is not None:
                    if collector.enabled:
                        collector.on_shed(reason)
                    shed.append(
                        ShedRequest(request=request, reason=reason, shed_time=now)
                    )
                    if tracer.enabled:
                        tracer.instant(
                            f"shed/{reason}", sim_time=now, track=SERVE_TRACK
                        )
                    continue
                push(core.close_time(request), _KIND_DEADLINE, request.request_id)
                drain(now)

        if core.depth != 0 or core.waiting or inflight:
            raise SimulationError(
                f"serving run ended with work left behind: "
                f"{core.depth} queued, {len(inflight)} batches in flight"
            )
        self.admission.verify_conservation()
        if len(completed) + len(shed) != int(times.size):
            raise SimulationError(
                f"request conservation violated at completion: "
                f"{len(completed)} completed + {len(shed)} shed "
                f"!= {times.size} arrived"
            )
        completed.sort(key=lambda c: (c.completion, c.request.request_id))
        if recorder is not None:
            # End-of-run checkpoint: catches tail perturbations shorter than
            # one digest interval.
            final_time = max(
                (c.completion for c in completed), default=float(times[-1])
            )
            recorder.capture(
                final_time,
                kind=-1,
                queue_depth=0,
                waiting=0,
                inflight=0,
                completed=len(completed),
                shed=len(shed),
                batches=len(batches),
                degrade_level=self.ladder.level,
                seq=kernel.seq,
            )
        report = ServingReport(
            slo=self.slo,
            arrived=int(times.size),
            completed=completed,
            shed=shed,
            batches=batches,
        )
        logger.info(
            "served %d/%d requests (%.1f%% shed) across %d batches, "
            "max degrade level %d",
            report.admitted,
            report.arrived,
            100.0 * report.shed_rate,
            len(batches),
            report.max_degrade_level,
        )
        return report


@dataclass(frozen=True)
class ServingConfig:
    """Shape of one serving stack, independent of the service model.

    ``safety`` feeds :meth:`AdmissionConfig.for_slo`; ``close_margin_factor``
    pads the worst-case knee batch time when computing each request's latest
    safe dispatch; ``token_rate`` (requests/s) optionally enables the bucket.
    """

    slo: float
    shards: int = 1
    replicas: int = 1
    safety: float = 0.75
    token_rate: Optional[float] = None
    pipeline_depth: int = 1
    top_k: int = 5
    eager_when_idle: bool = True
    close_margin_factor: float = 1.05

    def __post_init__(self) -> None:
        if self.slo <= 0:
            raise ConfigurationError("slo must be positive")
        if self.shards <= 0 or self.replicas <= 0:
            raise ConfigurationError("shards and replicas must be positive")
        if self.pipeline_depth <= 0:
            raise ConfigurationError("pipeline_depth must be positive")
        if self.top_k <= 0:
            raise ConfigurationError("top_k must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError("safety must be in (0, 1]")
        if self.token_rate is not None and self.token_rate <= 0:
            raise ConfigurationError("token_rate must be positive (or None)")
        if self.close_margin_factor < 1.0:
            raise ConfigurationError("close_margin_factor must be >= 1")


def build_serving_stack(
    service: AffineServiceModel,
    config: ServingConfig,
    hot_degrees: Optional[List[float]] = None,
    ladder: Optional[DegradationLadder] = None,
    fault_signal: Optional[Callable[[float], float]] = None,
    digest_recorder: Optional[DigestRecorder] = None,
) -> ServingSimulator:
    """Assemble admission, batching, routing, and degradation into one stack.

    ``hot_degrees`` (one per shard, mean ~1) comes from
    :func:`~repro.serve.router.shard_hot_degrees`; omitted means uniform
    shards.  Raises :class:`~repro.errors.ConfigurationError` when the SLO
    cannot fit even one knee-sized batch on the slowest shard.
    """
    degrees = hot_degrees if hot_degrees is not None else [1.0] * config.shards
    if len(degrees) != config.shards:
        raise ConfigurationError(
            f"{len(degrees)} hot degrees for {config.shards} shards"
        )
    replicas = build_replicas(config.replicas, degrees)
    router = Router(
        replicas,
        service,
        pipeline_depth=config.pipeline_depth,
        top_k=config.top_k,
    )
    worst = router.worst_batch_time(service.knee)
    close_margin = worst * config.close_margin_factor
    if close_margin >= config.slo:
        raise ConfigurationError(
            f"SLO {config.slo:.6f}s cannot fit one knee batch "
            f"({worst:.6f}s on the slowest shard); add shards, shrink the "
            f"knee, or relax the SLO"
        )
    admission = AdmissionController(
        AdmissionConfig.for_slo(
            slo=config.slo,
            worst_batch_time=worst,
            knee=service.knee,
            replicas=config.replicas * config.pipeline_depth,
            safety=config.safety,
            token_rate=config.token_rate,
        )
    )
    batcher = DeadlineBatcher(service, close_margin=close_margin)
    return ServingSimulator(
        service=service,
        router=router,
        admission=admission,
        batcher=batcher,
        ladder=ladder if ladder is not None else DegradationLadder(),
        slo=config.slo,
        eager_when_idle=config.eager_when_idle,
        fault_signal=fault_signal,
        digest_recorder=digest_recorder,
    )


def saturating_rate(service: AffineServiceModel, config: ServingConfig) -> float:
    """Offered load (queries/s) at which the configured cluster saturates.

    One replica group drains knee-sized batches every worst-shard knee batch
    time; R groups (x pipeline depth) drain in parallel.  The bench's "1x"
    operating point.
    """
    degrees = [1.0] * config.shards
    router = Router(
        build_replicas(config.replicas, degrees),
        service,
        pipeline_depth=config.pipeline_depth,
        top_k=config.top_k,
    )
    worst = router.worst_batch_time(service.knee)
    return config.replicas * config.pipeline_depth * service.knee / worst
