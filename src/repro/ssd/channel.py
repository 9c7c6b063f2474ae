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


class Channel:
    """One flash channel: a bus resource plus its attached dies."""

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
        self.last_op_phases = OpPhases(0.0, 0.0, 0.0)

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
        die = self._die(die_index)
        _sense_start, sense_end = die.execute(now, FlashOperation.READ, extra_sense)
        _bus_start, bus_end = self.bus.acquire(sense_end, self.page_transfer_time)
        self.last_op_phases = OpPhases(
            queue=(_sense_start - now) + (_bus_start - sense_end),
            service=sense_end - _sense_start,
            transfer=bus_end - _bus_start,
        )
        self.pages_transferred += 1
        self.bytes_transferred += self.page_size
        return _sense_start, bus_end

    def program_page(self, now: float, die_index: int) -> Tuple[float, float]:
        """Schedule a page program: bus transfer in, then die program time."""
        die = self._die(die_index)
        _bus_start, bus_end = self.bus.acquire(now, self.page_transfer_time)
        start, end = die.execute(bus_end, FlashOperation.PROGRAM)
        self.last_op_phases = OpPhases(
            queue=(_bus_start - now) + (start - bus_end),
            service=end - start,
            transfer=bus_end - _bus_start,
        )
        self.pages_transferred += 1
        self.bytes_transferred += self.page_size
        return _bus_start, end

    def erase_block(self, now: float, die_index: int) -> Tuple[float, float]:
        """Schedule a block erase on ``die_index`` (no bus data phase)."""
        die = self._die(die_index)
        start, end = die.execute(now, FlashOperation.ERASE)
        self.last_op_phases = OpPhases(
            queue=start - now, service=end - start, transfer=0.0
        )
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
        self.last_op_phases = OpPhases(0.0, 0.0, 0.0)

    def _die(self, die_index: int) -> Die:
        if not (0 <= die_index < len(self.dies)):
            raise SimulationError(
                f"die {die_index} outside channel {self.index}'s"
                f" {len(self.dies)} dies"
            )
        return self.dies[die_index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel({self.index}, dies={len(self.dies)})"
