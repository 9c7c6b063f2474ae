"""Host interface: the PCIe link between the host and the SSD.

This is the *external* bandwidth the paper contrasts with the SSD's internal
channel-level bandwidth: PCIe 3.0 x4 at ~3.2 GB/s effective (Table 2).  The
link is full-duplex — host→device (inputs) and device→host (results) have
independent lanes — but each direction serializes its own transfers.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..units import transfer_time
from .events import Resource


class HostInterface:
    """Full-duplex PCIe-style host link with per-direction serialization."""

    def __init__(self, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise SimulationError("host bandwidth must be positive")
        self.bandwidth = bandwidth
        self.downstream = Resource(name="host.downstream")  # host -> SSD
        self.upstream = Resource(name="host.upstream")  # SSD -> host
        self.bytes_down = 0
        self.bytes_up = 0

    def send_to_device(self, now: float, num_bytes: int) -> float:
        """Host pushes ``num_bytes`` to the SSD; returns completion time."""
        _s, end = self.downstream.acquire(now, transfer_time(num_bytes, self.bandwidth))
        self.bytes_down += num_bytes
        return end

    def receive_from_device(self, now: float, num_bytes: int) -> float:
        """SSD pushes ``num_bytes`` to the host; returns completion time."""
        _s, end = self.upstream.acquire(now, transfer_time(num_bytes, self.bandwidth))
        self.bytes_up += num_bytes
        return end

    def reset_timing(self) -> None:
        self.downstream.reset()
        self.upstream.reset()
        self.bytes_down = 0
        self.bytes_up = 0
