"""SSD-internal DRAM model.

The DRAM serves two roles in ECSSD: it holds the L2P table and SSD management
data (SSD mode), and in accelerator mode it additionally stores the entire
4-bit screener weight matrix (the heterogeneous layout of §4.3).  The model
tracks capacity allocations by name and charges transfer time at the
configured bandwidth (12.8 GB/s in §6.1).
"""

from __future__ import annotations

from typing import Dict

from ..errors import CapacityError, SimulationError
from ..units import transfer_time
from .events import Resource


class DramModel:
    """Capacity-tracked DRAM with a shared-bandwidth port."""

    def __init__(self, capacity: int, bandwidth: float) -> None:
        if capacity <= 0:
            raise SimulationError("DRAM capacity must be positive")
        if bandwidth <= 0:
            raise SimulationError("DRAM bandwidth must be positive")
        self.capacity = capacity
        self.bandwidth = bandwidth
        self._allocations: Dict[str, int] = {}
        self.port = Resource(name="dram.port")
        self.bytes_read = 0
        self.bytes_written = 0

    # --- capacity accounting ----------------------------------------------------
    def allocate(self, name: str, num_bytes: int) -> None:
        """Reserve ``num_bytes`` under ``name``; re-allocating a name resizes."""
        if num_bytes < 0:
            raise CapacityError(f"negative allocation {num_bytes} for {name!r}")
        current = self._allocations.get(name, 0)
        if self.used - current + num_bytes > self.capacity:
            raise CapacityError(
                f"DRAM allocation {name!r} of {num_bytes} B exceeds capacity"
                f" ({self.used - current} B already used of {self.capacity} B)"
            )
        self._allocations[name] = num_bytes

    def free(self, name: str) -> None:
        self._allocations.pop(name, None)

    @property
    def used(self) -> int:
        return sum(self._allocations.values())

    @property
    def available(self) -> int:
        return self.capacity - self.used

    def allocation(self, name: str) -> int:
        return self._allocations.get(name, 0)

    # --- timing -------------------------------------------------------------------
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
