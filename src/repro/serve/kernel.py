"""The event kernel of the fleet loop.

One ``(time, kind, seq, payload)`` heap.  ``kind`` is the caller's small
integer event class, so ties at one timestamp resolve by kind first and then
by ``seq`` — the integer the kernel hands out per push, in push order.  The
key ``(time, kind, seq)`` is therefore unique and strictly increasing across
pops; that is the tie-order contract the sim-sanitizer polices and the
reason a seeded run replays bit-for-bit.

:meth:`EventKernel.run` takes a loop's arrivals off the heap: it walks the
sorted arrival times with a cursor and merges them with the heap, popping
every event whose time is at or before the next arrival first.  Arrivals
take the kind after every heap kind, so the merge gives exactly the order a
heap holding the arrivals would pop them in — and since the arrivals are
sorted, such a heap would only ever hold the next one.  :attr:`~EventKernel.seq`
counts that arrival too, as though each were pushed when the one before it
had been handled.

The sanitizer is consulted once, when the kernel is built: with it off a pop
is a plain ``heappop``, with it on every pop, cursor arrivals included,
reports its key to :meth:`~repro.lint.simsan.SimSanitizer.observe_pop` under
``track``.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError, WorkloadError
from ..obs.hooks import current

Event = Tuple[float, int, int, Any]

_INF = math.inf


class EventKernel:
    """A ``(time, kind, seq)``-ordered event heap (see module docstring)."""

    __slots__ = ("_heap", "_seq", "_arrivals", "_taken", "_observe", "pop")

    pop: Callable[[], Event]

    def __init__(self, track: str) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._arrivals = 0  # arrivals of the current :meth:`run`
        self._taken = 0  # of which handled
        self._observe: Optional[Callable[..., None]] = None
        sanitizer = current().sanitizer
        if sanitizer.enabled:
            observe = self._observe = partial(sanitizer.observe_pop, track)
            heap = self._heap

            def pop() -> Event:
                event = heappop(heap)
                observe(event[0], key=event[:3])
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
        """Pushes so far, plus the arrivals handled and the one due next.

        That is the number of pushes a loop that kept its arrivals on the
        heap would have made by now, pushing the first arrival up front and
        each next one as the handler of the one before returns.  A kernel
        that has never run arrivals reports just its pushes.
        """
        return self._seq + min(self._taken + 1, self._arrivals)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def run(
        self,
        handlers: Sequence[Callable[[float, int, Any], None]],
        on_arrival: Callable[[float, int], None],
        times: Sequence[float],
    ) -> None:
        """Dispatch every event and arrival in key order until both run out.

        ``handlers[kind](time, seq, payload)`` handles each heap event;
        ``on_arrival(time, index)`` handles ``times[index]``, which must be
        sorted.  Arrivals take kind ``len(handlers)``, after every heap kind:
        an event at an arrival's time, including one pushed by an earlier
        arrival, is dispatched before it.  Handlers may push events.
        """
        heap = self._heap
        pop = self.pop
        observe = self._observe
        kind = len(handlers)
        self._arrivals = len(times)
        self._taken = 0
        for index, time in enumerate(times):
            while heap and heap[0][0] <= time:
                now, event_kind, seq, payload = pop()
                handlers[event_kind](now, seq, payload)
            if observe is not None:
                observe(time, key=(time, kind, index))
            on_arrival(time, index)
            self._taken = index + 1
        while heap:
            now, event_kind, seq, payload = pop()
            handlers[event_kind](now, seq, payload)

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
    """``arrivals`` as a float64 array, rejecting empty or unsorted input.

    Every time must be finite and non-negative: a NaN compares false both
    ways, so it would also hide an unsorted stream from the order check.
    """
    times = np.asarray(arrivals, dtype=np.float64)
    if times.size == 0:
        raise WorkloadError("no arrivals to serve")
    if not np.all(np.isfinite(times)):
        raise WorkloadError("arrival times must be finite")
    if np.any(np.diff(times) < 0):
        raise WorkloadError("arrival times must be non-decreasing")
    if times[0] < 0:
        raise WorkloadError("arrival times cannot be negative")
    return times
