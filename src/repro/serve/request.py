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
    (value ``==`` and ``hash``) rather than a frozen dataclass, because the
    fleet builds one per cache miss.  The fleet makes the deadline check
    itself and builds that one with ``tuple.__new__``, skipping this
    class's Python-level ``__new__`` frame; every other caller goes
    through ``__new__`` and its check.
    """

    __slots__ = ()

    def __new__(cls, request_id: int, arrival: float, deadline: float) -> "Request":
        if deadline < arrival:
            raise WorkloadError(
                f"request {request_id}: deadline {deadline} precedes "
                f"arrival {arrival}"
            )
        return tuple.__new__(cls, (request_id, arrival, deadline))
