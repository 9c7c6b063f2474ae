"""Tests for the event kernel (repro.serve.kernel) and flash resources."""

import math

import pytest

from repro.errors import SimulationError
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
        with pytest.raises(SimulationError):
            Resource().acquire(0.0, -1.0)

    def test_reset(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        r.reset()
        assert r.free_at == 0.0
        assert r.busy_time == 0.0
        assert r.acquisitions == 0
