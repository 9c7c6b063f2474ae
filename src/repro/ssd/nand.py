"""NAND die model: per-die operation timing and occupancy.

A die executes one flash operation at a time.  Read latency (tR) is spent on
the die itself; the subsequent data transfer occupies the channel bus.  Program
and erase occupy the die for much longer, which is why writes interleave
across dies.  :class:`repro.ssd.channel.Channel` prices every die operation;
a :class:`Die` only holds the state that pricing reads and writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import FlashConfig
from ..errors import SimulationError


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


class Die:
    """One NAND die: when it is next free, its busy time and op counters.

    A plain record: its channel reserves it inline (``start = max(now,
    free_at)``, ``end = start + duration``, ``busy_time += duration``).

    Multi-plane parallelism is intentionally not modeled as extra concurrency:
    candidate fetches in this workload are single-page random reads, for which
    plane pairing rarely applies.  Planes still exist in the address space
    (for capacity) — they just share the die's one operation slot, which is
    the conservative, commonly-measured behaviour.
    """

    __slots__ = ("index", "free_at", "busy_time", "reads", "programs", "erases")

    def __init__(self, index: int) -> None:
        self.index = index
        self.free_at = 0.0
        self.busy_time = 0.0
        self.reads = 0
        self.programs = 0
        self.erases = 0

    def reset(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.reads = 0
        self.programs = 0
        self.erases = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Die({self.index}, reads={self.reads}, programs={self.programs})"
