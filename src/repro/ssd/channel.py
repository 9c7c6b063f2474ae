"""Flash channel model: the shared bus between a controller and its dies.

A channel carries command/address cycles (folded into the FTL command
overhead) and page data transfers at the NVDDR3 bus rate (1 GB/s in Table 2).
The bus is a serially-reusable resource: while one die streams out a page, the
other dies on the channel can sense in parallel but cannot transfer.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from ..config import FlashConfig
from ..errors import SimulationError
from .events import Resource
from .nand import Die, FlashOperation, NandTiming


class OpPhases(NamedTuple):
    """Phase decomposition of the channel's most recent operation.

    ``queue`` is time spent waiting for a busy die or bus, ``service`` is
    array time (sense / program / erase, including any ECC extension), and
    ``transfer`` is bus data movement.  Purely observational — recorded for
    the profiler's queueing-vs-service-vs-transfer attribution and never read
    back by the timing model.
    """

    queue: float
    service: float
    transfer: float


_READ = FlashOperation.READ
_PROGRAM = FlashOperation.PROGRAM
_ERASE = FlashOperation.ERASE
# The raw record of an idle channel: its phases are all zero.
_IDLE = (_ERASE, 0.0, 0.0, 0.0, 0.0, 0.0)


class Channel:
    """One flash channel: a bus resource plus its attached dies.

    Each operation stores one raw record ``(kind, now, t0, t1, t2, t3)``:
    the issue time and the bounds of its two intervals in the order they
    run (a read senses then transfers, a program transfers then programs,
    an erase has only the array interval).  :attr:`last_op_phases` derives
    the phase split from it on read.
    """

    def __init__(self, index: int, config: FlashConfig) -> None:
        self.index = index
        self.config = config
        self.bus = Resource(name=f"channel{index}.bus")
        timing = NandTiming.from_config(config)
        self.dies: List[Die] = [
            Die(index=index * config.dies_per_channel + d, timing=timing)
            for d in range(config.dies_per_channel)
        ]
        self.page_size = config.page_size
        self.page_transfer_time = config.page_transfer_time
        self.pages_transferred = 0
        self.bytes_transferred = 0
        self._last_op = _IDLE

    # --- scheduling -----------------------------------------------------------
    def read_page(
        self, now: float, die_index: int, extra_sense: float = 0.0
    ) -> Tuple[float, float]:
        """Schedule a page read on ``die_index`` starting at or after ``now``.

        Returns ``(start, finish)``: ``start`` is when the die begins sensing,
        ``finish`` is when the page's data transfer over the bus completes.
        The bus is acquired only after the sense finishes, which lets other
        dies' transfers slot in during this die's tR.  ``extra_sense``
        extends the die occupation (ECC soft-decode / read-retry ladder).
        """
        sense_start, sense_end = self._die(die_index).execute(now, _READ, extra_sense)
        bus_start, bus_end = self.bus.acquire(sense_end, self.page_transfer_time)
        self._last_op = (_READ, now, sense_start, sense_end, bus_start, bus_end)
        self.pages_transferred += 1
        self.bytes_transferred += self.page_size
        return sense_start, bus_end

    def program_page(self, now: float, die_index: int) -> Tuple[float, float]:
        """Schedule a page program: bus transfer in, then die program time."""
        die = self._die(die_index)
        bus_start, bus_end = self.bus.acquire(now, self.page_transfer_time)
        start, end = die.execute(bus_end, _PROGRAM)
        self._last_op = (_PROGRAM, now, bus_start, bus_end, start, end)
        self.pages_transferred += 1
        self.bytes_transferred += self.page_size
        return bus_start, end

    def erase_block(self, now: float, die_index: int) -> Tuple[float, float]:
        """Schedule a block erase on ``die_index`` (no bus data phase)."""
        start, end = self._die(die_index).execute(now, _ERASE)
        self._last_op = (_ERASE, now, start, end, 0.0, 0.0)
        return start, end

    def block_until(self, time: float) -> None:
        """Hold the whole channel (bus and dies) down before ``time``.

        Models a stuck-offline window: nothing on the channel can start
        before the window ends.  Accrues no busy time on any resource.
        """
        self.bus.block_until(time)
        for die in self.dies:
            die.block_until(time)

    # --- accounting -----------------------------------------------------------
    @property
    def last_op_phases(self) -> OpPhases:
        """Phase decomposition of the most recent operation."""
        kind, now, t0, t1, t2, t3 = self._last_op
        if kind is _READ:
            return OpPhases(queue=(t0 - now) + (t2 - t1), service=t1 - t0, transfer=t3 - t2)
        if kind is _PROGRAM:
            return OpPhases(queue=(t0 - now) + (t2 - t1), service=t3 - t2, transfer=t1 - t0)
        return OpPhases(queue=t0 - now, service=t1 - t0, transfer=0.0)

    @property
    def free_at(self) -> float:
        """Earliest time the whole channel (bus and all dies) is idle."""
        return max([self.bus.free_at] + [die.free_at for die in self.dies])

    def bus_utilization(self, elapsed: float) -> float:
        return self.bus.utilization(elapsed)

    def reset(self) -> None:
        self.bus.reset()
        for die in self.dies:
            die.reset()
        self.pages_transferred = 0
        self.bytes_transferred = 0
        self._last_op = _IDLE

    def _die(self, die_index: int) -> Die:
        if not (0 <= die_index < len(self.dies)):
            raise SimulationError(
                f"die {die_index} outside channel {self.index}'s"
                f" {len(self.dies)} dies"
            )
        return self.dies[die_index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel({self.index}, dies={len(self.dies)})"
