"""Tests for the DRAM model, ping-pong buffer, and host interface."""

import pytest

from repro.errors import CapacityError, SimulationError
from repro.ssd.buffer import BufferOverflow, PingPongBuffer
from repro.ssd.dram import DramModel
from repro.ssd.host import HostInterface
from repro.units import GiB, MiB, gbps


class TestDram:
    def test_allocate_and_free(self):
        dram = DramModel(capacity=1 * GiB, bandwidth=gbps(12.8))
        dram.allocate("int4", 512 * MiB)
        assert dram.used == 512 * MiB
        dram.free("int4")
        assert dram.used == 0

    def test_reallocating_resizes(self):
        dram = DramModel(capacity=1 * GiB, bandwidth=gbps(12.8))
        dram.allocate("x", 100)
        dram.allocate("x", 200)
        assert dram.allocation("x") == 200
        assert dram.used == 200

    def test_overflow_rejected(self):
        dram = DramModel(capacity=1000, bandwidth=gbps(1))
        dram.allocate("a", 900)
        with pytest.raises(CapacityError):
            dram.allocate("b", 200)
        # Resizing an existing allocation accounts for its current share.
        dram.allocate("a", 1000)

    def test_negative_allocation_rejected(self):
        dram = DramModel(capacity=1000, bandwidth=gbps(1))
        with pytest.raises(CapacityError):
            dram.allocate("a", -1)

    def test_port_serializes(self):
        dram = DramModel(capacity=1 * GiB, bandwidth=gbps(1))
        end1 = dram.read(0.0, 1_000_000)
        end2 = dram.write(0.0, 1_000_000)
        assert end2 == pytest.approx(end1 + 1e-3)
        assert dram.bytes_read == 1_000_000
        assert dram.bytes_written == 1_000_000

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            DramModel(capacity=0, bandwidth=gbps(1))
        with pytest.raises(SimulationError):
            DramModel(capacity=100, bandwidth=0)

    def test_reset_timing_keeps_allocations(self):
        dram = DramModel(capacity=1000, bandwidth=gbps(1))
        dram.allocate("a", 100)
        dram.read(0.0, 10)
        dram.reset_timing()
        assert dram.bytes_read == 0
        assert dram.allocation("a") == 100


class TestPingPongBuffer:
    def test_halves_alternate(self):
        buf = PingPongBuffer(capacity=8192)
        a = buf.begin_fill(100)
        b = buf.begin_fill(100)
        c = buf.begin_fill(100)
        assert a.index != b.index
        assert a.index == c.index

    def test_half_capacity(self):
        buf = PingPongBuffer(capacity=4 * MiB)
        assert buf.half_capacity == 2 * MiB

    def test_overflow_raises(self):
        buf = PingPongBuffer(capacity=8192)
        with pytest.raises(BufferOverflow):
            buf.begin_fill(5000)

    def test_handshake_ordering_enforced(self):
        buf = PingPongBuffer(capacity=8192)
        half = buf.begin_fill(100)
        buf.complete_fill(half, 1.0)
        with pytest.raises(SimulationError):
            buf.release(half, 0.5)  # consumed before fill done
        buf.release(half, 2.0)
        # Refill of the same half cannot complete before the release.
        buf.begin_fill(100)  # other half
        same = buf.begin_fill(100)
        assert same.index == half.index
        with pytest.raises(SimulationError):
            buf.complete_fill(same, 1.5)

    def test_statistics(self):
        buf = PingPongBuffer(capacity=8192)
        buf.begin_fill(10)
        buf.begin_fill(500)
        assert buf.fills == 2
        assert buf.max_fill_bytes == 500

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            PingPongBuffer(capacity=0)
        with pytest.raises(SimulationError):
            PingPongBuffer(capacity=4097)

    def test_negative_fill_rejected(self):
        buf = PingPongBuffer(capacity=8192)
        with pytest.raises(CapacityError):
            buf.begin_fill(-1)

    def test_reset(self):
        buf = PingPongBuffer(capacity=8192)
        buf.begin_fill(10)
        buf.reset()
        assert buf.fills == 0


class TestHostInterface:
    def test_directions_are_independent(self):
        host = HostInterface(bandwidth=gbps(1))
        down = host.send_to_device(0.0, 1_000_000)
        up = host.receive_from_device(0.0, 1_000_000)
        assert down == pytest.approx(1e-3)
        assert up == pytest.approx(1e-3)  # full duplex: no queueing across dirs

    def test_same_direction_serializes(self):
        host = HostInterface(bandwidth=gbps(1))
        host.send_to_device(0.0, 1_000_000)
        second = host.send_to_device(0.0, 1_000_000)
        assert second == pytest.approx(2e-3)

    def test_byte_counters(self):
        host = HostInterface(bandwidth=gbps(1))
        host.send_to_device(0.0, 10)
        host.receive_from_device(0.0, 20)
        assert host.bytes_down == 10
        assert host.bytes_up == 20

    def test_transfer_time_pure(self):
        host = HostInterface(bandwidth=gbps(3.2))
        assert host.transfer_time(3_200_000) == pytest.approx(1e-3)

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            HostInterface(bandwidth=0)

    def test_reset(self):
        host = HostInterface(bandwidth=gbps(1))
        host.send_to_device(0.0, 10)
        host.reset_timing()
        assert host.bytes_down == 0
