"""One service node's request-plane state, extracted for reuse.

:class:`ServiceNodeCore` bundles the per-node request-plane components the
serving loop juggles — the tenant :class:`~repro.serve.queues.RequestQueue`,
the :class:`~repro.serve.admission.AdmissionController`, the
:class:`~repro.serve.scheduler.DeadlineBatcher`, and the
:class:`~repro.serve.degrade.DegradationLadder` — behind one object with the
exact call sequence :class:`~repro.serve.driver.ServingSimulator` performs.

The extraction exists so the same admission/batching/degradation machinery
can be instantiated *per node*: the single-deployment driver owns one core,
and the fleet simulator (:mod:`repro.cluster`) owns one per stateless
service node.  The core holds no event-loop state of its own (no heap, no
clock); every method is a pure state transition driven by the caller's
simulated time, so two identically-seeded runs make identical decisions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SimulationError
from .admission import AdmissionController
from .degrade import DegradationLadder
from .queues import RequestQueue
from .request import Request
from .scheduler import DeadlineBatcher


class ServiceNodeCore:
    """Admission + queue + deadline batching + degradation for one node.

    The ``waiting`` map mirrors the queue's membership by request id; the
    driver uses it to ignore stale deadline events for requests that already
    rode a batch out.
    """

    def __init__(
        self,
        admission: AdmissionController,
        batcher: DeadlineBatcher,
        ladder: DegradationLadder,
    ) -> None:
        self.admission = admission
        self.batcher = batcher
        self.ladder = ladder
        self.queue = RequestQueue()
        self.waiting: Dict[int, Request] = {}

    # -- derived state -------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests admitted but not yet dispatched."""
        return self.queue.depth

    def pending(self, inflight: int) -> int:
        """Queued plus in-flight requests this node is responsible for."""
        return self.queue.depth + inflight

    def pressure(self, inflight: int, fallback_limit: int) -> float:
        """Pending work relative to the admission depth limit.

        ``fallback_limit`` is used when the admission config carries no
        ``max_pending`` (the driver derives it from the knee and replica
        count so the ladder still sees a meaningful 0..1 signal).
        """
        limit = self.admission.config.max_pending
        if limit is None:
            limit = fallback_limit
        if limit <= 0:
            raise SimulationError(f"pressure limit must be positive, got {limit}")
        return self.pending(inflight) / limit

    def is_waiting(self, request_id: int) -> bool:
        """Whether ``request_id`` is still queued on this node."""
        return request_id in self.waiting

    # -- admission -----------------------------------------------------------
    def offer(self, request: Request, inflight: int, now: float) -> Optional[str]:
        """Admit ``request`` (enqueue, return ``None``) or return shed reason."""
        reason = self.admission.decide(request, self.queue.depth + inflight, now)
        if reason is None:
            self.queue.push(request)
            self.waiting[request.request_id] = request
        return reason

    # -- batching ------------------------------------------------------------
    def close_time(self, request: Request) -> float:
        """Latest safe dispatch time for ``request`` (deadline batching)."""
        return self.batcher.close_time(request)

    def should_close(self, now: float) -> bool:
        """True when a batch must leave this node's queue at ``now``."""
        return self.batcher.should_close(self.queue, now)

    def dispatch_level(self, pressure: float, fault_pressure: float = 0.0) -> int:
        """Advance the degradation ladder for the next dispatch."""
        return self.ladder.update(pressure, fault_pressure)

    def form_batch(self) -> List[Request]:
        """Pop the next batch (≤ knee) and clear its waiting entries."""
        batch = self.batcher.form_batch(self.queue)
        for request in batch:
            del self.waiting[request.request_id]
        return batch

    # -- end-of-run ----------------------------------------------------------
    def verify_drained(self) -> None:
        """Raise :class:`SimulationError` unless the node finished empty."""
        if self.queue.depth != 0 or self.waiting:
            raise SimulationError(
                f"service node ended with work left behind: "
                f"{self.queue.depth} queued, {len(self.waiting)} waiting"
            )
