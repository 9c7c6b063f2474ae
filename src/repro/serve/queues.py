"""Per-tenant FIFO/priority queues with deterministic service order.

Each tenant gets its own FIFO; :meth:`RequestQueue.pop` serves the head
request with the highest priority, breaking ties by arrival time and then by
request id, so the drain order is a pure function of the admitted sequence —
no hashing, no insertion-order accidents.  The scheduler only ever touches
queue *heads*, which keeps per-tenant FIFO ordering intact while still
letting a high-priority tenant overtake between batches.  While only one
tenant has ever queued, that order is plain FIFO, so the head is read and
popped directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .request import Request


class RequestQueue:
    """Admitted-but-not-yet-dispatched requests, grouped by tenant."""

    def __init__(self) -> None:
        self._by_tenant: Dict[str, Deque[Request]] = {}
        #: tenants in first-seen order, so head scans are deterministic
        self._tenant_order: List[str] = []
        #: the one tenant's FIFO while exactly one tenant has queued
        self._only: Optional[Deque[Request]] = None
        #: queued requests over every tenant
        self.depth = 0

    def __len__(self) -> int:
        return self.depth

    def depth_by_tenant(self) -> Dict[str, int]:
        return {t: len(q) for t, q in self._by_tenant.items() if q}

    def push(self, request: Request) -> None:
        queue = self._by_tenant.get(request.tenant)
        if queue is None:
            queue = deque()
            self._by_tenant[request.tenant] = queue
            self._tenant_order.append(request.tenant)
            self._only = queue if len(self._tenant_order) == 1 else None
        queue.append(request)
        self.depth += 1

    def _best_head(self) -> Optional[Tuple[int, float, int, str]]:
        """Service key of the next request: (-priority, arrival, id, tenant)."""
        best: Optional[Tuple[int, float, int, str]] = None
        for tenant in self._tenant_order:
            queue = self._by_tenant[tenant]
            if not queue:
                continue
            head = queue[0]
            key = (-head.priority, head.arrival, head.request_id, tenant)
            if best is None or key < best:
                best = key
        return best

    def peek(self) -> Optional[Request]:
        """The request :meth:`pop` would return, without removing it."""
        only = self._only
        if only is not None:
            return only[0] if only else None
        best = self._best_head()
        if best is None:
            return None
        return self._by_tenant[best[3]][0]

    def oldest_arrival(self) -> Optional[float]:
        """Earliest arrival time over every queued request head."""
        arrivals = [
            q[0].arrival for q in self._by_tenant.values() if q
        ]
        return min(arrivals) if arrivals else None

    def earliest_deadline(self) -> Optional[float]:
        """Tightest absolute deadline over every queued request."""
        deadlines = [
            r.deadline for q in self._by_tenant.values() for r in q
        ]
        return min(deadlines) if deadlines else None

    def pop(self) -> Request:
        only = self._only
        if only:
            self.depth -= 1
            return only.popleft()
        best = self._best_head()
        if best is None:
            raise SimulationError("pop from an empty request queue")
        request = self._by_tenant[best[3]].popleft()
        self.depth -= 1
        return request

    def pop_batch(self, limit: int) -> List[Request]:
        """Remove and return up to ``limit`` requests in service order."""
        if limit <= 0:
            raise SimulationError(f"batch limit must be positive, got {limit}")
        only = self._only
        if only is not None:
            count = min(limit, self.depth)
            self.depth -= count
            return [only.popleft() for _ in range(count)]
        batch: List[Request] = []
        while self.depth > 0 and len(batch) < limit:
            batch.append(self.pop())
        return batch
