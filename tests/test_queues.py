"""Tests for the NVMe multi-queue front end (repro.ssd.queues)."""

import pytest

from repro.config import ECSSDConfig, FlashConfig
from repro.errors import ProtocolError, SimulationError
from repro.ssd.device import SSDDevice
from repro.ssd.queues import (
    Arbitration,
    IoKind,
    NvmeFrontEnd,
    QueuePair,
)


def small_device() -> SSDDevice:
    flash = FlashConfig(
        channels=2,
        packages_per_channel=2,
        dies_per_package=2,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=16,
    )
    return SSDDevice(ECSSDConfig(flash=flash))


def front_end(**kwargs) -> NvmeFrontEnd:
    return NvmeFrontEnd(device=small_device(), **kwargs)


class TestQueuePair:
    def test_submit_assigns_command_ids(self):
        queue = QueuePair(queue_id=0, depth=4)
        a = queue.submit(IoKind.WRITE, 0)
        b = queue.submit(IoKind.READ, 1)
        assert (a.command_id, b.command_id) == (0, 1)
        assert queue.outstanding == 2

    def test_depth_enforced(self):
        queue = QueuePair(queue_id=0, depth=2)
        queue.submit(IoKind.WRITE, 0)
        queue.submit(IoKind.WRITE, 1)
        with pytest.raises(ProtocolError):
            queue.submit(IoKind.WRITE, 2)

    def test_mean_latency_requires_completions(self):
        queue = QueuePair(queue_id=0)
        with pytest.raises(SimulationError):
            queue.mean_latency()


class TestFrontEnd:
    def test_write_then_read_roundtrip(self):
        fe = front_end(num_queues=2)
        fe.submit(0, IoKind.WRITE, 10)
        fe.submit(1, IoKind.READ, 10)
        completions = fe.process()
        assert len(completions) == 2
        assert completions[0].request.kind is IoKind.WRITE
        assert all(c.latency >= 0 for c in completions)
        assert fe.device.ftl.is_mapped(10)

    def test_per_queue_ordering_preserved(self):
        fe = front_end(num_queues=2)
        for page in range(6):
            fe.submit(0, IoKind.WRITE, page)
        completions = fe.process()
        q0 = [c.request.command_id for c in completions if c.request.queue_id == 0]
        assert q0 == sorted(q0)

    def test_round_robin_interleaves_queues(self):
        fe = front_end(num_queues=2)
        for page in range(4):
            fe.submit(0, IoKind.WRITE, page)
            fe.submit(1, IoKind.WRITE, 100 + page)
        completions = fe.process()
        first_four = [c.request.queue_id for c in completions[:4]]
        assert first_four == [0, 1, 0, 1]

    def test_weighted_arbitration_favors_heavy_queue(self):
        fe = front_end(
            num_queues=2,
            arbitration=Arbitration.WEIGHTED,
            weights=[3, 1],
        )
        for page in range(6):
            fe.submit(0, IoKind.WRITE, page)
            fe.submit(1, IoKind.WRITE, 100 + page)
        completions = fe.process(max_commands=4)
        q0_share = sum(1 for c in completions if c.request.queue_id == 0)
        assert q0_share == 3

    def test_no_starvation_under_round_robin(self):
        fe = front_end(num_queues=4)
        for page in range(8):
            fe.submit(0, IoKind.WRITE, page)
        fe.submit(3, IoKind.WRITE, 200)
        completions = fe.process(max_commands=5)
        assert any(c.request.queue_id == 3 for c in completions)

    def test_fairness_index(self):
        fe = front_end(num_queues=2)
        for page in range(4):
            fe.submit(0, IoKind.WRITE, page)
            fe.submit(1, IoKind.WRITE, 100 + page)
        fe.process()
        assert fe.fairness_index() == pytest.approx(1.0)
        assert front_end().fairness_index() == 1.0  # no traffic yet

    def test_max_commands_budget(self):
        fe = front_end()
        for page in range(10):
            fe.submit(0, IoKind.WRITE, page)
        completions = fe.process(max_commands=3)
        assert len(completions) == 3
        assert fe.queue(0).outstanding == 7

    def test_latencies_grow_with_queue_position(self):
        fe = front_end(num_queues=1)
        for page in range(8):
            fe.submit(0, IoKind.WRITE, page)
        completions = fe.process()
        latencies = [c.latency for c in completions]
        assert latencies[-1] > latencies[0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            NvmeFrontEnd(device=small_device(), num_queues=0)
        with pytest.raises(SimulationError):
            NvmeFrontEnd(device=small_device(), queue_depth=0)
        with pytest.raises(SimulationError):
            NvmeFrontEnd(device=small_device(), weights=[1])  # wrong arity
        with pytest.raises(SimulationError):
            NvmeFrontEnd(device=small_device(), num_queues=1, weights=[0])
        fe = front_end()
        with pytest.raises(ProtocolError):
            fe.queue(99)
