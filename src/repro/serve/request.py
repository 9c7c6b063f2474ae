"""The request record and shed reasons of the serving layer.

A query enters a service node as a :class:`Request` (arrive), is either
admitted or shed with one of the machine-readable reasons below, waits in
the FIFO queue, and rides a batch out.  Run outcomes are aggregated by
:class:`repro.cluster.ClusterReport`.

All timestamps are *simulated* seconds (the same clock the ECSSD timing
models emit); the serving layer never reads wall time.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import WorkloadError

#: Shed reasons, as admission returns them (machine-readable).
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
