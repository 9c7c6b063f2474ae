"""The event kernel shared by the serving and fleet loops.

One ``(time, kind, seq, payload)`` heap.  ``kind`` is the caller's small
integer event class, so ties at one timestamp resolve by kind first and then
by ``seq`` — the integer the kernel hands out per push, in push order.  The
key ``(time, kind, seq)`` is therefore unique and strictly increasing across
pops; that is the tie-order contract the sim-sanitizer polices and the
reason a seeded run replays bit-for-bit.

The sanitizer is consulted once, when the kernel is built: with it off a pop
is a plain ``heappop``, with it on every pop reports its key to
:meth:`~repro.lint.simsan.SimSanitizer.observe_pop` under ``track``.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError, WorkloadError
from ..lint.simsan import get_sanitizer

Event = Tuple[float, int, int, Any]

_INF = math.inf


class EventKernel:
    """A ``(time, kind, seq)``-ordered event heap (see module docstring)."""

    __slots__ = ("_heap", "_seq", "pop")

    pop: Callable[[], Event]

    def __init__(self, track: str) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            heap = self._heap

            def pop() -> Event:
                event = heappop(heap)
                sanitizer.observe_pop(track, event[0], key=event[:3])
                return event

            self.pop = pop
        else:
            self.pop = partial(heappop, self._heap)

    def push(self, time: float, kind: int, payload: Any) -> int:
        """Schedule ``payload`` at ``time``; returns the event's seq."""
        if not 0.0 <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at negative or non-finite time {time}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, kind, seq, payload))
        return seq

    @property
    def seq(self) -> int:
        """The seq the next push gets (the number of pushes so far)."""
        return self._seq

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Event]:
        """Pop events in key order until the heap is empty.

        Each event goes through :attr:`pop`, so the sanitizer sees every one;
        events pushed while iterating are popped in their turn.
        """
        heap = self._heap
        pop = self.pop
        while heap:
            yield pop()


def arrival_times(arrivals: Sequence[float]) -> np.ndarray:
    """``arrivals`` as a float64 array, rejecting empty or unsorted input."""
    times = np.asarray(arrivals, dtype=np.float64)
    if times.size == 0:
        raise WorkloadError("no arrivals to serve")
    if np.any(np.diff(times) < 0):
        raise WorkloadError("arrival times must be non-decreasing")
    return times
