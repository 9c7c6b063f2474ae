"""Tests for the DRAM model and host interface."""

import pytest

from repro.errors import SimulationError
from repro.ssd.dram import DramModel
from repro.ssd.host import HostInterface
from repro.units import GiB, gbps


class TestDram:
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

    def test_reset_timing_clears_counters(self):
        dram = DramModel(capacity=1000, bandwidth=gbps(1))
        dram.read(0.0, 10)
        dram.write(0.0, 10)
        dram.reset_timing()
        assert dram.bytes_read == 0
        assert dram.bytes_written == 0


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

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            HostInterface(bandwidth=0)

    def test_reset(self):
        host = HostInterface(bandwidth=gbps(1))
        host.send_to_device(0.0, 10)
        host.reset_timing()
        assert host.bytes_down == 0
