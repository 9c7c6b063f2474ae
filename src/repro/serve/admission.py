"""Admission control: token bucket + queue-depth limit with explicit shedding.

Two independent gates, checked in order at every arrival:

1. **Token bucket** — caps the *sustained* admitted rate while allowing
   bursts up to the bucket capacity.  Refill is computed from elapsed
   simulated time, so admission decisions are a pure function of the arrival
   sequence (bit-identical run to run).
2. **Queue depth** — bounds the pending backlog (queued + in flight) so that
   an admitted request's *predicted* completion stays inside its SLO.
   :meth:`AdmissionConfig.for_slo` derives the depth limit from the knee
   batch time: with ``replicas`` groups draining ``knee``-sized batches every
   ``worst_batch_time`` seconds, ``depth`` pending requests wait about
   ``depth / (knee * replicas)`` batch times.

Every refusal is an explicit :data:`~repro.serve.request.SHED_TOKEN_BUCKET` /
:data:`~repro.serve.request.SHED_QUEUE_DEPTH` shed, and the controller keeps
the conservation invariant ``admitted + shed == arrived`` — violating it is a
:class:`~repro.errors.SimulationError`, not a statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError, SimulationError
from .request import SHED_QUEUE_DEPTH, SHED_TOKEN_BUCKET, Request

#: Share of the SLO the predicted latency of an admitted request may use.
ADMISSION_SAFETY = 0.75


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission gates for one serving stack.

    ``token_rate`` (requests/s) and ``token_burst`` size the bucket; a
    ``token_rate`` of ``None`` disables the bucket entirely.
    ``max_pending`` bounds queued + in-flight requests; ``None`` disables the
    depth gate.
    """

    token_rate: Optional[float] = None
    token_burst: float = 1.0
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.token_rate is not None and self.token_rate <= 0:
            raise ConfigurationError("token_rate must be positive (or None)")
        if self.token_burst <= 0:
            raise ConfigurationError("token_burst must be positive")
        if self.max_pending is not None and self.max_pending <= 0:
            raise ConfigurationError("max_pending must be positive (or None)")

    @classmethod
    def for_slo(
        cls,
        slo: float,
        worst_batch_time: float,
        knee: int,
        replicas: int = 1,
        token_rate: Optional[float] = None,
        token_burst: Optional[float] = None,
    ) -> "AdmissionConfig":
        """Depth limit such that predicted latency stays within ``slo``.

        A request admitted behind ``depth`` others waits roughly
        ``depth / (knee * replicas)`` knee-batch service times before its own
        batch runs, so the largest safe backlog satisfies
        ``(depth / (knee * replicas) + 1) * worst_batch_time <= slo * safety``
        with ``safety`` = :data:`ADMISSION_SAFETY`.
        The limit never drops below one full batch per replica (the layer
        must be able to run at all).
        """
        if slo <= 0:
            raise ConfigurationError("slo must be positive")
        if worst_batch_time <= 0:
            raise ConfigurationError("worst_batch_time must be positive")
        if knee <= 0 or replicas <= 0:
            raise ConfigurationError("knee and replicas must be positive")
        budget_batches = slo * ADMISSION_SAFETY / worst_batch_time - 1.0
        depth = int(math.floor(budget_batches * knee * replicas))
        depth = max(depth, knee * replicas)
        burst = token_burst if token_burst is not None else float(depth)
        return cls(
            token_rate=token_rate, token_burst=burst, max_pending=depth
        )


class TokenBucket:
    """Deterministic token bucket on the simulated clock."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if burst <= 0:
            raise ConfigurationError("token bucket burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now < self._last_refill:
            raise SimulationError(
                f"token bucket time went backwards: {now} < {self._last_refill}"
            )
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    def try_take(self, now: float) -> bool:
        """Consume one token if available; refills up to ``now`` first."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens


class AdmissionController:
    """Applies the configured gates and keeps the conservation ledger."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._bucket: Optional[TokenBucket] = None
        if config.token_rate is not None:
            self._bucket = TokenBucket(config.token_rate, config.token_burst)
        self.arrived = 0
        self.admitted = 0
        self.shed_by_reason: Dict[str, int] = {}

    @property
    def shed_total(self) -> int:
        return sum(self.shed_by_reason.values())

    def decide(self, request: Request, pending: int, now: float) -> Optional[str]:
        """Admit (``None``) or return the shed reason for ``request``.

        ``pending`` counts queued plus in-flight requests at arrival time.
        """
        if pending < 0:
            raise SimulationError(f"negative pending count {pending}")
        self.arrived += 1
        reason: Optional[str] = None
        if (
            self.config.max_pending is not None
            and pending >= self.config.max_pending
        ):
            reason = SHED_QUEUE_DEPTH
        elif self._bucket is not None and not self._bucket.try_take(now):
            reason = SHED_TOKEN_BUCKET
        if reason is None:
            self.admitted += 1
        else:
            self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return reason

    def verify_conservation(self) -> None:
        """Raise :class:`SimulationError` unless admitted + shed == arrived."""
        if self.admitted + self.shed_total != self.arrived:
            raise SimulationError(
                f"request conservation violated: admitted={self.admitted} "
                f"+ shed={self.shed_total} != arrived={self.arrived}"
            )
