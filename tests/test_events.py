"""Tests for the event kernel (repro.serve.kernel) and flash resources."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.lint.simsan import SimSanitizer, installed
from repro.serve.kernel import EventKernel
from repro.ssd.events import Resource


def _drain(kernel):
    events = []
    while kernel:
        events.append(kernel.pop())
    return events


class TestEventQueue:
    """The kernel's ``(time, kind, seq)`` ordering contract."""

    def test_orders_by_time(self):
        kernel = EventKernel("test")
        for time, name in ((2.0, "b"), (1.0, "a"), (3.0, "c")):
            kernel.push(time, 0, name)
        assert [event[3] for event in _drain(kernel)] == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        kernel = EventKernel("test")
        for name in "abc":
            kernel.push(1.0, 0, name)
        assert [event[3] for event in _drain(kernel)] == ["a", "b", "c"]

    def test_ties_break_by_kind_before_insertion_order(self):
        kernel = EventKernel("test")
        kernel.push(1.0, 2, "late-kind")
        kernel.push(1.0, 0, "first")
        kernel.push(1.0, 1, "middle")
        kernel.push(1.0, 0, "second")
        assert [event[3] for event in _drain(kernel)] == [
            "first", "second", "middle", "late-kind"
        ]

    def test_pop_returns_the_full_key(self):
        kernel = EventKernel("test")
        kernel.push(0.5, 3, "payload")
        assert kernel.pop() == (0.5, 3, 0, "payload")

    def test_bool_and_seq(self):
        kernel = EventKernel("test")
        assert not kernel
        assert kernel.seq == 0
        assert kernel.push(1.0, 0, None) == 0
        assert kernel.push(2.0, 0, None) == 1
        assert kernel and kernel.seq == 2
        _drain(kernel)
        # seq counts pushes, not events still queued.
        assert not kernel and kernel.seq == 2

    def test_events_can_schedule_events(self):
        kernel = EventKernel("test")
        kernel.push(1.0, 0, "first")
        seen = []
        while kernel:
            time, _kind, _seq, payload = kernel.pop()
            seen.append((time, payload))
            if payload == "first":
                kernel.push(time + 1.0, 0, "second")
        assert seen == [(1.0, "first"), (2.0, "second")]

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            EventKernel("test").push(-1.0, 0, None)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_time(self, bad):
        kernel = EventKernel("test")
        with pytest.raises(SimulationError, match="non-finite"):
            kernel.push(bad, 0, None)
        # A rejected push neither queues an event nor consumes a seq.
        assert not kernel and kernel.seq == 0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_simulator_rejects_non_finite_schedule(self, bad):
        # A loop schedules follow-ups mid-run either relative to the popped
        # time (``now + delay``) or at an absolute time.  NaN slips past a
        # ``delay < 0`` guard (every comparison with NaN is False), so the
        # kernel's finiteness check must catch both forms.
        kernel = EventKernel("test")
        kernel.push(1.0, 0, "first")
        now = kernel.pop()[0]
        with pytest.raises(SimulationError):
            kernel.push(now + bad, 0, None)
        with pytest.raises(SimulationError):
            kernel.push(bad, 0, None)
        assert not kernel and kernel.seq == 1


class TestIteration:
    """``for event in kernel`` pops through ``kernel.pop`` until empty."""

    @staticmethod
    def _filled():
        kernel = EventKernel("test")
        for index, (time, kind) in enumerate(
            ((3.0, 1), (1.0, 2), (1.0, 0), (2.0, 5), (1.0, 0), (0.5, 6))
        ):
            kernel.push(time, kind, index)
        return kernel

    def test_yields_the_same_sequence_as_repeated_pop(self):
        assert list(self._filled()) == _drain(self._filled())

    def test_events_pushed_while_iterating_are_seen(self):
        kernel = EventKernel("test")
        kernel.push(1.0, 0, 0)
        seen = []
        for time, _kind, seq, payload in kernel:
            seen.append((time, seq, payload))
            if 0 <= payload < 3:
                kernel.push(time + 0.5, 0, payload + 1)
                kernel.push(time, 1, -1)  # same instant, later kind
        assert [payload for _t, _s, payload in seen] == [0, -1, 1, -1, 2, -1, 3]
        assert not kernel and kernel.seq == 7

    def test_sanitizer_observes_every_event(self):
        with installed(SimSanitizer(strict=True)) as sanitizer:
            kernel = self._filled()
            events = list(kernel)
        assert len(events) == 6
        assert sanitizer.pops_observed == len(events)
        assert sanitizer.violations == []


#: Arrival kind of the merge tests: one past the six heap kinds.
_ARRIVAL = 6
#: Time grid of the merge tests; a power of two, so sums of grid steps are
#: exact and equal times really tie.
_GRID = 0.25


class _Script:
    """Handlers that push events from a drawn plan, and log every dispatch.

    The ``n``-th dispatch pushes ``plans[n]``: events of kinds 0-5 at
    ``now + steps * _GRID``.  Each pushed payload is the running spawn count,
    so two kernels that dispatch in one order push identical events.
    """

    def __init__(self, kernel, plans):
        self.kernel = kernel
        self.plans = plans
        self.log = []
        self.spawned = 0

    def handle(self, now, kind, payload):
        self.log.append((now, kind, payload, self.kernel.seq))
        dispatched = len(self.log) - 1
        if dispatched < len(self.plans):
            for spawn_kind, steps in self.plans[dispatched]:
                self.kernel.push(now + steps * _GRID, spawn_kind, self.spawned)
                self.spawned += 1

    def heap_handlers(self):
        return tuple(
            (lambda now, _seq, payload, kind=kind: self.handle(now, kind, payload))
            for kind in range(_ARRIVAL)
        )


def _merged(times, plans):
    kernel = EventKernel("test")
    script = _Script(kernel, plans)
    kernel.run(
        script.heap_handlers(),
        lambda now, index: script.handle(now, _ARRIVAL, ("arrival", index)),
        times,
    )
    return script.log, kernel.seq


def _on_heap(times, plans):
    """The merge's reference: every arrival is a heap event of kind 6.

    The first arrival is pushed up front and each next one as the handler
    of the one before returns, so the heap holds at most one arrival.
    """
    kernel = EventKernel("test")
    script = _Script(kernel, plans)
    kernel.push(times[0], _ARRIVAL, 0)
    while kernel:
        now, kind, _seq, payload = kernel.pop()
        if kind != _ARRIVAL:
            script.handle(now, kind, payload)
            continue
        script.handle(now, kind, ("arrival", payload))
        if payload + 1 < len(times):
            kernel.push(times[payload + 1], _ARRIVAL, payload + 1)
    return script.log, kernel.seq


_arrival_grids = st.lists(st.integers(0, 12), min_size=1, max_size=25).map(sorted)
_plans = st.lists(
    st.lists(st.tuples(st.integers(0, _ARRIVAL - 1), st.integers(0, 3)), max_size=3),
    max_size=40,
)


class TestArrivalMerge:
    """``EventKernel.run``: sorted arrivals merged with the heap."""

    @settings(max_examples=300, deadline=None)
    @given(grid=_arrival_grids, plans=_plans)
    def test_matches_arrivals_on_the_heap(self, grid, plans):
        times = [step * _GRID for step in grid]
        with installed(SimSanitizer(max_violations=10_000)) as merged_san:
            merged = _merged(times, plans)
        with installed(SimSanitizer(max_violations=10_000)) as reference_san:
            reference = _on_heap(times, plans)
        # Same (time, kind, payload) order, the same ``seq`` seen at every
        # dispatch and at the end, and the sanitizer sees the same pops and
        # flags the same number of tie-order breaches.
        assert merged == reference
        assert merged_san.pops_observed == reference_san.pops_observed
        assert len(merged_san.violations) == len(reference_san.violations)

    def test_events_at_an_arrival_time_go_first(self):
        kernel = EventKernel("test")
        kernel.push(1.0, 5, "deadline")
        kernel.push(2.0, 0, "edge")
        log = []
        kernel.run(
            tuple(
                (lambda now, _seq, payload, kind=kind: log.append((now, kind, payload)))
                for kind in range(_ARRIVAL)
            ),
            lambda now, index: log.append((now, _ARRIVAL, index)),
            [0.5, 1.0, 1.0, 3.0],
        )
        assert log == [
            (0.5, 6, 0), (1.0, 5, "deadline"), (1.0, 6, 1), (1.0, 6, 2),
            (2.0, 0, "edge"), (3.0, 6, 3),
        ]
        # Two pushes plus four arrivals, as if each arrival had been pushed.
        assert not kernel and kernel.seq == 6


class TestResource:
    def test_immediate_acquire(self):
        r = Resource()
        assert r.acquire(0.0, 2.0) == (0.0, 2.0)

    def test_serializes_back_to_back(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        start, end = r.acquire(1.0, 3.0)
        assert start == 2.0
        assert end == 5.0

    def test_idle_gap_respected(self):
        r = Resource()
        r.acquire(0.0, 1.0)
        start, end = r.acquire(10.0, 1.0)
        assert start == 10.0
        assert end == 11.0

    def test_busy_time_accumulates(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        r.acquire(0.0, 3.0)
        assert r.busy_time == 5.0
        assert r.acquisitions == 2

    def test_utilization(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        assert r.utilization(4.0) == pytest.approx(0.5)
        assert r.utilization(0.0) == 0.0
        # Clamped at 1 even if elapsed under-measures.
        assert r.utilization(1.0) == 1.0

    def test_zero_duration_allowed(self):
        r = Resource()
        start, end = r.acquire(1.0, 0.0)
        assert start == end == 1.0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError, match="negative duration -1.0"):
            Resource().acquire(0.0, -1.0)

    @pytest.mark.parametrize(
        "now, duration",
        [
            (0.0, math.nan),
            (0.0, math.inf),
            (0.0, -math.inf),
            (math.nan, 1.0),
            (math.inf, 1.0),
            (-math.inf, 1.0),
            (math.nan, math.nan),
        ],
    )
    def test_non_finite_rejected_without_side_effects(self, now, duration):
        r = Resource()
        r.acquire(0.0, 2.0)
        with pytest.raises(SimulationError):
            r.acquire(now, duration)
        assert (r.free_at, r.busy_time, r.acquisitions) == (2.0, 2.0, 1)
        # The next acquisition sees the untouched state.
        assert r.acquire(1.0, 1.0) == (2.0, 3.0)

    def test_reset(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        r.reset()
        assert r.free_at == 0.0
        assert r.busy_time == 0.0
        assert r.acquisitions == 0
