"""One service node's request-plane state.

:class:`ServiceNodeCore` bundles the per-node request-plane components — the
FIFO request queue, the :class:`~repro.serve.admission.AdmissionController`,
the :class:`~repro.serve.scheduler.DeadlineBatcher`, and the
:class:`~repro.serve.degrade.DegradationLadder` — behind one object with the
call sequence :class:`~repro.cluster.engine.FleetRun` performs for each of
its service nodes (a single deployment is a fleet with one).  The core
holds no event-loop state of its own (no heap, no clock); every method is a
pure state transition driven by the caller's simulated time, so two
identically-seeded runs make identical decisions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..errors import SimulationError
from .admission import AdmissionController
from .degrade import DegradationLadder
from .request import Request
from .scheduler import DeadlineBatcher


class ServiceNodeCore:
    """Admission + FIFO queue + deadline batching + degradation for one node.

    Request ids are arrival indices and every batch leaves from the queue
    head, so the queue always holds a contiguous ascending run of admitted
    ids: a request id below the head's has already ridden a batch out.
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
        self.queue: Deque[Request] = deque()

    # -- derived state -------------------------------------------------------
    def pressure(self, inflight: int, fallback_limit: int) -> float:
        """Pending work (queued + in flight) relative to the depth limit.

        ``fallback_limit`` is used when the admission config carries no
        ``max_pending`` (the fleet derives it from the knee and replica
        count so the ladder still sees a meaningful 0..1 signal).
        """
        limit = self.admission.config.max_pending
        if limit is None:
            limit = fallback_limit
        if limit <= 0:
            raise SimulationError(f"pressure limit must be positive, got {limit}")
        return (len(self.queue) + inflight) / limit

    # -- admission -----------------------------------------------------------
    def offer(self, request: Request, inflight: int, now: float) -> Optional[str]:
        """Admit ``request`` (enqueue, return ``None``) or return shed reason."""
        queue = self.queue
        reason = self.admission.decide(request, len(queue) + inflight, now)
        if reason is None:
            queue.append(request)
        return reason

    # -- batching ------------------------------------------------------------
    def dispatch_level(self, pressure: float) -> int:
        """Advance the degradation ladder for the next dispatch."""
        return self.ladder.update(pressure)

    def form_batch(self) -> List[Request]:
        """Pop the next batch (≤ knee) off the queue head."""
        return self.batcher.form_batch(self.queue)

    # -- end-of-run ----------------------------------------------------------
    def verify_drained(self) -> None:
        """Raise :class:`SimulationError` unless the node finished empty."""
        if self.queue:
            raise SimulationError(
                f"service node ended with {len(self.queue)} requests queued"
            )
