"""The deterministic discrete-event serving loop.

:class:`ServingSimulator` replays an arrival-time sequence (from
:mod:`repro.workloads.streams`) through the full request lifecycle::

    arrive -> admit / shed -> queue -> deadline batch -> route -> complete

on a single event heap with three event kinds — completions, batch-close
deadlines, and arrivals — ordered by ``(time, kind, sequence)`` so ties
resolve identically on every run.  Completions sort first (a freed replica
can take work arriving at the same instant), then deadlines, then arrivals.

Dispatch policy: whenever a replica group sits idle, the head of the FIFO
queue leaves as one batch of at most the roofline knee B* — the layer stays
work-conserving, and batches grow toward the knee only while every group is
busy.  Before each dispatch the
:class:`~repro.serve.degrade.DegradationLadder` observes queue pressure and
sets the fidelity level for that batch.

:func:`build_serving_stack` assembles the whole layer from a service model
and a :class:`ServingConfig`; :func:`saturating_rate` computes the offered
load at which the configured cluster saturates (the bench's 1x point).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
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
from .scheduler import CLOSE_MARGIN_FACTOR, AffineServiceModel, DeadlineBatcher

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
    """Drives admission, batching, routing, and degradation over arrivals.

    Every :meth:`run` builds fresh router, admission, and ladder state (the
    ladder from ``ladder``'s steps and watermarks), so repeated runs on one
    simulator give equal reports.  Raises
    :class:`~repro.errors.ConfigurationError` when the SLO cannot fit even
    one knee-sized batch on the slowest shard.
    """

    def __init__(
        self,
        service: AffineServiceModel,
        config: ServingConfig,
        hot_degrees: List[float],
        ladder: DegradationLadder,
        digest_recorder: Optional[DigestRecorder] = None,
    ) -> None:
        self.service = service
        self.config = config
        self.hot_degrees = hot_degrees
        self.ladder = ladder
        # Optional provenance hook: ticked once per event-heap pop with the
        # loop's counter snapshot, so two same-seed runs can be checked for
        # state divergence after the fact (repro.obs.digest).
        self.digest_recorder = digest_recorder
        worst = self.new_router().worst_batch_time(service.knee)
        self.close_margin = worst * CLOSE_MARGIN_FACTOR
        if self.close_margin >= config.slo:
            raise ConfigurationError(
                f"SLO {config.slo:.6f}s cannot fit one knee batch "
                f"({worst:.6f}s on the slowest shard); add shards, shrink the "
                f"knee, or relax the SLO"
            )
        self.admission_config = AdmissionConfig.for_slo(
            slo=config.slo,
            worst_batch_time=worst,
            knee=service.knee,
            replicas=config.replicas,
            token_rate=config.token_rate,
        )
        self.pressure_fallback = service.knee * config.replicas * 4

    def new_router(self) -> Router:
        """A router over fresh, idle replica groups."""
        return Router(build_replicas(self.config.replicas, self.hot_degrees), self.service)

    def run(self, arrivals: Sequence[float]) -> ServingReport:
        """Replay ``arrivals`` (sorted timestamps, seconds) to completion.

        Returns the :class:`~repro.serve.request.ServingReport`; raises
        :class:`~repro.errors.SimulationError` if the conservation invariant
        (admitted + shed == arrived) breaks or work is left behind.
        """
        times = arrival_times(arrivals)
        slo = self.config.slo
        router = self.new_router()
        ladder = DegradationLadder(
            self.ladder.steps, self.ladder.high_watermark, self.ladder.low_watermark
        )
        core = ServiceNodeCore(
            AdmissionController(self.admission_config),
            DeadlineBatcher(self.service, close_margin=self.close_margin),
            ladder,
        )
        queue = core.queue
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
            replica = router.route()
            if replica is None:
                raise SimulationError("dispatch with no replica capacity")
            pressure = core.pressure(router.inflight_requests, self.pressure_fallback)
            level = core.dispatch_level(pressure)
            batch = core.form_batch()
            duration = router.batch_time_on(
                replica,
                len(batch),
                candidate_scale=ladder.candidate_scale,
                top_k_scale=ladder.top_k_scale,
            )
            completion = now + duration
            router.acquire(replica, len(batch))
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
            while queue and router.has_capacity():
                dispatch(now)

        recorder = self.digest_recorder

        while kernel:
            now, kind, _seq, payload = pop()
            if recorder is not None:
                recorder.tick(
                    now,
                    kind=kind,
                    queue_depth=core.depth,
                    waiting=core.depth,
                    inflight=len(inflight),
                    completed=len(completed),
                    shed=len(shed),
                    batches=len(batches),
                    degrade_level=ladder.level,
                    seq=kernel.seq,
                )
            if kind == _KIND_COMPLETION:
                batch_state = inflight.pop(payload)
                router.release(batch_state.replica, len(batch_state.requests))
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
                # The queue holds a contiguous ascending run of request ids,
                # so an id below the head's already rode a batch out.
                if queue and payload >= queue[0].request_id:
                    drain(now)
            else:  # arrival
                arrival_time = float(times[payload])
                request = Request(payload, arrival_time, arrival_time + slo)
                reason = core.offer(request, router.inflight_requests, now)
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

        if queue or inflight:
            raise SimulationError(
                f"serving run ended with work left behind: "
                f"{core.depth} queued, {len(inflight)} batches in flight"
            )
        core.admission.verify_conservation()
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
                degrade_level=ladder.level,
                seq=kernel.seq,
            )
        report = ServingReport(
            slo=slo,
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

    ``token_rate`` (requests/s) optionally enables the admission bucket.
    """

    slo: float
    shards: int = 1
    replicas: int = 1
    token_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.slo <= 0:
            raise ConfigurationError("slo must be positive")
        if self.shards <= 0 or self.replicas <= 0:
            raise ConfigurationError("shards and replicas must be positive")
        if self.token_rate is not None and self.token_rate <= 0:
            raise ConfigurationError("token_rate must be positive (or None)")


def build_serving_stack(
    service: AffineServiceModel,
    config: ServingConfig,
    hot_degrees: Optional[List[float]] = None,
    ladder: Optional[DegradationLadder] = None,
    digest_recorder: Optional[DigestRecorder] = None,
) -> ServingSimulator:
    """Assemble admission, batching, routing, and degradation into one stack.

    ``hot_degrees`` (one per shard, mean ~1) comes from
    :func:`~repro.serve.router.shard_hot_degrees`; omitted means uniform
    shards.  ``ladder`` supplies the degradation steps and watermarks
    (default :class:`~repro.serve.degrade.DegradationLadder`).
    """
    degrees = hot_degrees if hot_degrees is not None else [1.0] * config.shards
    if len(degrees) != config.shards:
        raise ConfigurationError(
            f"{len(degrees)} hot degrees for {config.shards} shards"
        )
    return ServingSimulator(
        service,
        config,
        degrees,
        ladder if ladder is not None else DegradationLadder(),
        digest_recorder=digest_recorder,
    )


def saturating_rate(service: AffineServiceModel, config: ServingConfig) -> float:
    """Offered load (queries/s) at which the configured cluster saturates.

    One replica group drains knee-sized batches every worst-shard knee batch
    time; R groups drain in parallel.  The bench's "1x" operating point.
    """
    router = Router(build_replicas(config.replicas, [1.0] * config.shards), service)
    worst = router.worst_batch_time(service.knee)
    return config.replicas * service.knee / worst
