"""SSD-internal DRAM model.

The DRAM serves two roles in ECSSD: it holds the L2P table and SSD management
data (SSD mode), and in accelerator mode it additionally stores the entire
4-bit screener weight matrix (the heterogeneous layout of §4.3).  The model
charges transfer time at the configured bandwidth (12.8 GB/s in §6.1).  The
capacity check is ``WeightLayout.check_dram_capacity`` in
:mod:`repro.layout.heterogeneous`.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..units import transfer_time
from .events import Resource


class DramModel:
    """DRAM of a fixed capacity with a shared-bandwidth port."""

    def __init__(self, capacity: int, bandwidth: float) -> None:
        if capacity <= 0:
            raise SimulationError("DRAM capacity must be positive")
        if bandwidth <= 0:
            raise SimulationError("DRAM bandwidth must be positive")
        self.capacity = capacity
        self.bandwidth = bandwidth
        self.port = Resource(name="dram.port")
        self.bytes_read = 0
        self.bytes_written = 0

    def read(self, now: float, num_bytes: int) -> float:
        """Stream ``num_bytes`` out of DRAM; returns the completion time."""
        _start, end = self.port.acquire(now, transfer_time(num_bytes, self.bandwidth))
        self.bytes_read += num_bytes
        return end

    def write(self, now: float, num_bytes: int) -> float:
        """Stream ``num_bytes`` into DRAM; returns the completion time."""
        _start, end = self.port.acquire(now, transfer_time(num_bytes, self.bandwidth))
        self.bytes_written += num_bytes
        return end

    def reset_timing(self) -> None:
        self.port.reset()
        self.bytes_read = 0
        self.bytes_written = 0
