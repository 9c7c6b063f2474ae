"""NAND die model: per-die operation timing and occupancy.

A die executes one flash operation at a time.  Read latency (tR) is spent on
the die itself; the subsequent data transfer occupies the channel bus and is
modeled by :class:`repro.ssd.channel.Channel`.  Program and erase occupy the
die for much longer, which is why writes interleave across dies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import FlashConfig
from ..errors import SimulationError
from .events import Resource


class FlashOperation(enum.Enum):
    """The three NAND array operations."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


@dataclass(frozen=True)
class NandTiming:
    """NVDDR3-class NAND operation latencies, extracted from a config."""

    read: float
    program: float
    erase: float

    @classmethod
    def from_config(cls, config: FlashConfig) -> "NandTiming":
        return cls(
            read=config.read_latency,
            program=config.program_latency,
            erase=config.erase_latency,
        )

    def latency(self, op: FlashOperation) -> float:
        if op is FlashOperation.READ:
            return self.read
        if op is FlashOperation.PROGRAM:
            return self.program
        if op is FlashOperation.ERASE:
            return self.erase
        raise SimulationError(f"unknown flash operation {op!r}")


_READ = FlashOperation.READ
_PROGRAM = FlashOperation.PROGRAM


class Die:
    """One NAND die: a serially-reusable resource with operation counters.

    Multi-plane parallelism is intentionally not modeled as extra concurrency:
    candidate fetches in this workload are single-page random reads, for which
    plane pairing rarely applies.  Planes still exist in the address space
    (for capacity) — they just share the die's one operation slot, which is
    the conservative, commonly-measured behaviour.
    """

    def __init__(self, index: int, timing: NandTiming) -> None:
        self.index = index
        self.timing = timing
        self._resource = Resource(name=f"die{index}")
        self._read_latency = timing.read
        self._program_latency = timing.program
        self.reads = 0
        self.programs = 0
        self.erases = 0

    def execute(self, now: float, op: FlashOperation, extra: float = 0.0) -> tuple:
        """Occupy the die for ``op``; returns the ``(start, end)`` interval.

        ``start`` is when the die actually begins (it may be busy with a
        previous operation); ``end`` is when the array operation completes —
        for reads that is when data is ready in the die's page register,
        before any bus transfer.  ``extra`` extends the occupation (ECC
        soft-decode and read-retry re-sensing happen on the die).
        """
        if extra < 0:
            raise SimulationError(f"negative extra occupation {extra} on die {self.index}")
        # Counters move only once ``acquire`` has accepted the operation.
        if op is _READ:
            start, end = self._resource.acquire(now, self._read_latency + extra)
            self.reads += 1
        elif op is _PROGRAM:
            start, end = self._resource.acquire(now, self._program_latency + extra)
            self.programs += 1
        else:
            start, end = self._resource.acquire(now, self.timing.latency(op) + extra)
            self.erases += 1
        return start, end

    def block_until(self, time: float) -> None:
        """Hold the die unavailable before ``time`` (component outage)."""
        self._resource.block_until(time)

    @property
    def busy_time(self) -> float:
        return self._resource.busy_time

    @property
    def free_at(self) -> float:
        return self._resource.free_at

    def utilization(self, elapsed: float) -> float:
        return self._resource.utilization(elapsed)

    def reset(self) -> None:
        self._resource.reset()
        self.reads = 0
        self.programs = 0
        self.erases = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Die({self.index}, reads={self.reads}, programs={self.programs})"
