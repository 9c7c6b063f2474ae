"""Request lifecycle types for the serving layer.

A query enters the serving layer as a :class:`Request` (arrive), is either
admitted or shed (:class:`ShedRequest` with a machine-readable reason), waits
in the FIFO queue, rides a batch to a replica, and leaves as a
:class:`CompletedRequest` carrying its full timeline.  :class:`ServingReport`
aggregates one run: goodput, shed rate, latency percentiles against the SLO,
and the degradation levels the ladder visited — the quantities the
``repro serve`` CLI prints and ``benchmarks/test_serving_slo.py`` tracks.

All timestamps are *simulated* seconds (the same clock the ECSSD timing
models emit); the serving layer never reads wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple

import numpy as np

from ..errors import WorkloadError
from ..obs.metrics import sample_percentile

#: Shed reasons recorded on :class:`ShedRequest` (machine-readable).
SHED_TOKEN_BUCKET = "token_bucket"
SHED_QUEUE_DEPTH = "queue_depth"


class _RequestFields(NamedTuple):
    request_id: int
    arrival: float
    deadline: float


class Request(_RequestFields):
    """One query's identity and timing contract.

    ``deadline`` is absolute (``arrival + slo``).  An immutable tuple
    (value ``==`` and ``hash``) rather than a frozen dataclass: the fleet
    builds one per cache miss, and a tuple is about three times cheaper to
    construct.
    """

    __slots__ = ()

    def __new__(cls, request_id: int, arrival: float, deadline: float) -> "Request":
        if deadline < arrival:
            raise WorkloadError(
                f"request {request_id}: deadline {deadline} precedes "
                f"arrival {arrival}"
            )
        return tuple.__new__(cls, (request_id, arrival, deadline))

    @property
    def slo(self) -> float:
        """The latency budget this request arrived with."""
        return self.deadline - self.arrival


@dataclass(frozen=True)
class ShedRequest:
    """A request refused at admission, with the controller's reason."""

    request: Request
    reason: str
    shed_time: float


@dataclass(frozen=True)
class CompletedRequest:
    """A served request's full timeline through the layer."""

    request: Request
    dispatch_time: float  # when its batch closed and left the queue
    completion: float
    degrade_level: int  # ladder level its batch executed at
    replica: int

    @property
    def latency(self) -> float:
        return self.completion - self.request.arrival

    @property
    def queue_wait(self) -> float:
        return self.dispatch_time - self.request.arrival

    @property
    def within_deadline(self) -> bool:
        return self.completion <= self.request.deadline


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch: size, window, fidelity level, placement."""

    start: float
    end: float
    size: int
    degrade_level: int
    replica: int


@dataclass
class ServingReport:
    """Aggregate outcome of one serving run.

    The conservation invariant (``admitted + shed == arrived``) is checked by
    the driver before the report is returned; the report re-exposes the
    counts so tests and the bench can assert it independently.
    """

    slo: float
    arrived: int
    completed: List[CompletedRequest] = field(default_factory=list)
    shed: List[ShedRequest] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.arrived - len(self.shed)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / self.arrived if self.arrived else 0.0

    def shed_by_reason(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.shed:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    @property
    def max_degrade_level(self) -> int:
        return max((b.degrade_level for b in self.batches), default=0)

    def latencies(self) -> np.ndarray:
        """Per-admitted-request latency samples, in completion order."""
        return np.array([c.latency for c in self.completed], dtype=np.float64)

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over admitted requests."""
        return sample_percentile(
            self.latencies(),
            q,
            "serving report has no completed requests; "
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
    def makespan(self) -> float:
        """First arrival to last completion, in simulated seconds."""
        if not self.completed:
            return 0.0
        start = min(c.request.arrival for c in self.completed)
        end = max(c.completion for c in self.completed)
        return end - start

    @property
    def goodput(self) -> float:
        """Requests completed *within their deadline* per simulated second."""
        span = self.makespan
        if span <= 0.0:
            return 0.0
        good = sum(1 for c in self.completed if c.within_deadline)
        return good / span

    @property
    def slo_attainment(self) -> float:
        """Fraction of admitted requests that met their deadline."""
        if not self.completed:
            return 0.0
        good = sum(1 for c in self.completed if c.within_deadline)
        return good / len(self.completed)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``repro serve --out`` payload)."""
        has_completions = bool(self.completed)
        return {
            "slo_s": self.slo,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed": self.shed_count,
            "shed_rate": self.shed_rate,
            "shed_by_reason": self.shed_by_reason(),
            "completed": len(self.completed),
            "goodput_qps": self.goodput,
            "slo_attainment": self.slo_attainment,
            "p50_s": self.p50 if has_completions else None,
            "p95_s": self.p95 if has_completions else None,
            "p99_s": self.p99 if has_completions else None,
            "p999_s": self.p999 if has_completions else None,
            "batches": len(self.batches),
            "mean_batch_size": self.mean_batch_size,
            "max_degrade_level": self.max_degrade_level,
        }
