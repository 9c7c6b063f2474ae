"""Serially-reusable resources for the flash timing model.

The SSD's shared paths (channel buses, the DRAM port, host link lanes) are
modeled as resources that are busy for known durations; dies are priced
inline by :class:`repro.ssd.channel.Channel` with the same arithmetic.  A
:class:`Resource` hands out reservation intervals instead of firing
callbacks, so callers compute their own command timelines directly.  The serving and fleet loops order their events on
:class:`repro.serve.kernel.EventKernel`.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..errors import SimulationError

_INF = math.inf


class Resource:
    """A serially-reusable resource (a bus, a port) with FIFO acquisition.

    ``acquire(duration)`` reserves the resource for ``duration`` seconds
    starting at the earliest time it is free, and returns the ``(start, end)``
    interval.  This reservation style (rather than callback-based handoff)
    keeps flash-command scheduling simple: callers compute their own timeline
    from the returned interval.
    """

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self.free_at = 0.0
        self.busy_time = 0.0
        self.acquisitions = 0

    def acquire(self, now: float, duration: float) -> Tuple[float, float]:
        """Reserve the resource for ``duration`` seconds at or after ``now``.

        A negative or non-finite ``duration``, or a non-finite ``now``,
        raises :class:`SimulationError` and leaves the resource untouched.
        """
        if not (0.0 <= duration < _INF and -_INF < now < _INF):
            if duration < 0:
                raise SimulationError(f"negative duration {duration} on {self.name}")
            raise SimulationError(
                f"non-finite acquire (now={now}, duration={duration}) on {self.name}"
            )
        free_at = self.free_at
        start = free_at if free_at > now else now  # max(now, free_at)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        self.acquisitions += 1
        return start, end

    def block_until(self, time: float) -> None:
        """Make the resource unavailable before ``time`` (an outage window).

        Unlike :meth:`acquire`, the blocked interval accrues no busy time:
        the resource is *down*, not working.  A ``time`` in the past is a
        no-op, so repeated blocking with the same window is idempotent.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot block {self.name} until non-finite {time}")
        if time > self.free_at:
            self.free_at = time

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this resource spent busy (0 when idle)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.acquisitions = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, free_at={self.free_at:.6g})"
