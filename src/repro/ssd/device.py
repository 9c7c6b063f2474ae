"""Assembled SSD device: channels, controllers, FTL, DRAM, host link.

:class:`SSDDevice` is the substrate both the ECSSD core and the in-storage
baselines run on.  It exposes two levels of service:

* **SSD mode** — logical page read/write through the FTL with host-link
  transfer, like a conventional drive (:meth:`host_write`, :meth:`host_read`).
* **Accelerator mode building block** — :meth:`fetch_pages`, which simulates
  fetching a set of physical pages through the per-channel controllers and
  reports the per-channel timing that the tile pipeline consumes.  This is
  where channel imbalance becomes time: the batch finishes when the busiest
  channel finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..config import ECSSDConfig
from ..errors import SimulationError
from ..obs.hooks import current
from .channel import Channel
from .controller import CommandKind, FlashController
from .dram import DramModel
from .ftl import FlashTranslationLayer
from .geometry import FlashGeometry, PhysicalAddress
from .host import HostInterface

_READ = CommandKind.READ
_PROGRAM = CommandKind.PROGRAM


@dataclass
class TileAccessResult:
    """Timing of one physical-page batch fetch across channels.

    ``finish`` is the batch completion (max over channels); ``pages_per_
    channel`` is the access pattern Fig. 11 plots.
    """

    start: float
    finish: float
    pages_per_channel: List[int] = field(default_factory=list)
    channel_finish: List[float] = field(default_factory=list)
    total_pages: int = 0

    @property
    def makespan(self) -> float:
        return self.finish - self.start


class SSDDevice:
    """A complete simulated SSD built from an :class:`ECSSDConfig`."""

    def __init__(self, config: Optional[ECSSDConfig] = None) -> None:
        self.config = config or ECSSDConfig()
        flash = self.config.flash
        self.geometry = FlashGeometry(flash)
        self.channels: List[Channel] = [Channel(i, flash) for i in range(flash.channels)]
        self.controllers: List[FlashController] = [
            FlashController(
                channel=channel,
                geometry=self.geometry,
                command_overhead=self.config.ftl_command_overhead,
            )
            for channel in self.channels
        ]
        self.ftl = FlashTranslationLayer(flash)
        self.dram = DramModel(self.config.dram_capacity, self.config.dram_bandwidth)
        self.host = HostInterface(self.config.host_bandwidth)
        self.clock = 0.0
        # If fault injection is live, wire its RBER wear axis to the FTL's
        # per-block erase ledger (the ground truth for P/E cycling).
        injector = current().injector
        if injector.enabled:
            injector.bind_wear_source(self.ftl.block_erase_count)

    # --- SSD mode ----------------------------------------------------------------
    def host_write(self, logical_pages: Sequence[int]) -> float:
        """SSD-mode write: host link in, L2P update, program to flash.

        Returns the completion time of the whole write burst.  Every logical
        page is range-checked before the host link, DRAM or FTL is touched,
        so an out-of-range page raises :class:`AddressError` with no state
        moved.  A :class:`CapacityError` from garbage collection part-way
        through the burst is not rolled back: the pages mapped before it
        stay mapped, and the link and DRAM time stay reserved.
        """
        self.ftl.check_logical(logical_pages)
        page_size = self.geometry.page_size
        now = self.clock
        link_done = self.host.send_to_device(now, len(logical_pages) * page_size)
        # The FTL builds in-range addresses, so each page is checked once,
        # by its controller's submit.
        routed = self._route(_PROGRAM, map(self.ftl.write, logical_pages))
        # L2P table updates hit DRAM (8 B per entry, read-modify-write).
        dram_done = self.dram.write(now, 8 * len(logical_pages))
        finish = max(link_done, dram_done)
        for controller, batch in zip(self.controllers, routed):
            if batch:
                finish = max(finish, controller.submit(finish, batch).finish)
        self.clock = finish
        return finish

    def host_read(self, logical_pages: Sequence[int]) -> float:
        """SSD-mode read: L2P lookup, flash fetch, host link out.

        Every logical page is checked as :meth:`host_write` checks it, then
        translated, before DRAM is reserved, so a non-integer, out-of-range
        or unmapped page raises :class:`AddressError` with no state moved.
        """
        self.ftl.check_logical(logical_pages)
        routed = self._route(_READ, map(self.ftl.lookup, logical_pages))
        page_size = self.geometry.page_size
        now = self.clock
        lookup_done = self.dram.read(now, 8 * len(logical_pages))
        fetch = self._fetch(routed, lookup_done)
        finish = self.host.receive_from_device(
            fetch.finish, len(logical_pages) * page_size
        )
        self.clock = finish
        return finish

    # --- accelerator-mode building block -------------------------------------------
    def fetch_pages(
        self,
        addresses: Iterable[PhysicalAddress],
        start: Optional[float] = None,
    ) -> TileAccessResult:
        """Simulate fetching physical pages into the data buffer.

        All channels begin at ``start`` (default: the device clock) and work
        their queues independently; the batch completes when the slowest
        channel drains.  Per-channel counts and finish times are reported for
        the access-pattern and utilization analyses.

        The addresses may be built by hand, so every one is checked before
        any channel runs: a bad address raises with no channel moved.
        """
        addresses = list(addresses)
        check = self.geometry.check
        for address in addresses:
            check(address)
        return self._fetch(
            self._route(_READ, addresses), self.clock if start is None else start
        )

    def _fetch(
        self, routed: List[List[Tuple[CommandKind, PhysicalAddress]]], begin: float
    ) -> TileAccessResult:
        """:meth:`fetch_pages` for read batches already split by :meth:`_route`.

        Each controller's ``submit`` checks its batch, so an address the
        FTL translated is checked exactly once.
        """
        pages_per_channel = [0] * len(self.channels)
        channel_finish = [begin] * len(self.channels)
        total = 0
        for channel_index, batch in enumerate(routed):
            pages_per_channel[channel_index] = len(batch)
            total += len(batch)
            if not batch:
                continue
            result = self.controllers[channel_index].submit(begin, batch)
            channel_finish[channel_index] = result.finish
        finish = max(channel_finish) if total else begin
        return TileAccessResult(
            start=begin,
            finish=finish,
            pages_per_channel=pages_per_channel,
            channel_finish=channel_finish,
            total_pages=total,
        )

    def _route(
        self, kind: CommandKind, addresses: Iterable[PhysicalAddress]
    ) -> List[List[Tuple[CommandKind, PhysicalAddress]]]:
        """Split ``(kind, address)`` pairs by channel, one list per controller."""
        routed: List[List[Tuple[CommandKind, PhysicalAddress]]] = [
            [] for _ in self.controllers
        ]
        for address in addresses:
            routed[address.channel].append((kind, address))
        return routed

    # --- utilities ---------------------------------------------------------------------
    def advance_clock(self, time: float) -> None:
        if time < self.clock:
            raise SimulationError(f"clock cannot move backwards: {time} < {self.clock}")
        self.clock = time

    def reset_timing(self) -> None:
        """Clear all timing state (mappings and data are kept)."""
        for channel in self.channels:
            channel.reset()
        self.dram.reset_timing()
        self.host.reset_timing()
        self.clock = 0.0

    def channel_bus_utilizations(self, elapsed: float) -> List[float]:
        return [channel.bus_utilization(elapsed) for channel in self.channels]
