"""Flash Translation Layer: L2P mapping, allocation, GC, wear leveling.

The FTL is the firmware function the paper's interleaving framework relies on
(§5.3): each flash channel owns a contiguous logical address range, so a host
that assigns a logical address from channel *c*'s range is guaranteed its data
lands on channel *c*.  :meth:`FlashTranslationLayer.channel_logical_range`
exposes exactly that contract.

Internals:

* **L2P map** — a dict from logical page to flat physical page, with the
  reverse map for invalidation.  (The real device keeps this table in DRAM;
  :class:`repro.ssd.device.SSDDevice` charges DRAM accesses for lookups.)
* **Allocation** — per-channel append points: each (channel, die, plane) has
  an active block written page-by-page, spreading programs across dies.
* **Garbage collection** — greedy cost-benefit: when a plane's free-block
  reserve drops below ``gc_threshold``, the full block with the fewest valid
  pages is the victim; its valid pages are relocated and the block erased.
* **Wear leveling** — free blocks are taken from a min-heap keyed by erase
  count, so erases spread across blocks.

State is created lazily per plane/block: a Table 2 device has half a million
blocks, and experiments only ever touch a sliver of them, so memory tracks
the written footprint rather than the raw geometry.
"""

from __future__ import annotations

import heapq
import logging
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import FlashConfig
from ..errors import AddressError, CapacityError, SimulationError
from ..obs.hooks import current
from .geometry import FlashGeometry, PhysicalAddress

logger = logging.getLogger(__name__)

# Builds a PhysicalAddress without its negative-field check: only for fields
# in range by construction.
_tuple_new = tuple.__new__

# A burst of exactly these page types needs no per-page operator.index check.
_PLAIN_INT = frozenset({int})

# A plane is identified by (channel, package, die, plane).
PlaneKey = Tuple[int, int, int, int]


class BlockState:
    """Bookkeeping for one physical block (valid bitmap + wear).

    ``base`` is the flat physical index of the block's page 0, so page *p*
    of the block is flat ``base + p``, at address ``prefix + (p,)``:
    ``prefix`` is the block's ``(channel, package, die, plane, block)``.
    ``valid_count`` tracks the number of set bits in ``valid``: every
    0<->1 transition of a bit updates it.
    """

    __slots__ = (
        "block", "pages_per_block", "base", "prefix", "write_pointer", "valid",
        "valid_count", "erase_count",
    )

    def __init__(
        self, block: int, pages_per_block: int, base: int,
        prefix: Tuple[int, int, int, int, int],
    ) -> None:
        self.block = block
        self.pages_per_block = pages_per_block
        self.base = base
        self.prefix = prefix
        self.write_pointer = 0
        self.valid = bytearray(pages_per_block)
        self.valid_count = 0
        self.erase_count = 0

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.pages_per_block

    @property
    def valid_pages(self) -> int:
        return self.valid_count

    def erase(self) -> None:
        self.write_pointer = 0
        self.valid = bytearray(self.pages_per_block)
        self.valid_count = 0
        self.erase_count += 1


@dataclass
class GcEvent:
    """Record of one garbage-collection invocation (for tests/telemetry)."""

    plane: PlaneKey
    victim_block: int
    relocated_pages: int


class _PlaneState:
    """Lazily-created allocation state for one plane."""

    __slots__ = ("blocks", "free_heap", "active", "in_gc")

    def __init__(self, blocks_per_plane: int) -> None:
        self.blocks: Dict[int, BlockState] = {}
        self.free_heap: List[Tuple[int, int]] = [(0, b) for b in range(blocks_per_plane)]
        # Heap starts sorted (all-zero wear), no heapify needed.
        self.active: Optional[BlockState] = None
        # Re-entrancy guard: GC's own relocation writes must not trigger a
        # nested collection of the same plane.
        self.in_gc = False


class FlashTranslationLayer:
    """Page-mapping FTL over a :class:`FlashGeometry`.

    ``gc_threshold`` is the minimum number of free blocks a plane keeps in
    reserve; dropping to it triggers GC on that plane.  ``op_ratio`` withholds
    that share of each channel's pages from the host-visible capacity.  The
    reserve can be less than one block per plane (0.07 of a plane of eight
    4-page blocks is 3 pages); when GC then finds no free block for a
    victim's valid pages, it compacts the victim in place.  With
    ``op_ratio`` 0 there is no reserve, and a write that needs such a
    relocation raises :class:`CapacityError`.
    """

    def __init__(
        self,
        config: FlashConfig,
        gc_threshold: int = 2,
        op_ratio: float = 0.07,
    ) -> None:
        if gc_threshold < 1:
            raise SimulationError("gc_threshold must be >= 1")
        if not (0.0 <= op_ratio < 0.5):
            raise SimulationError("op_ratio must be in [0, 0.5)")
        self.config = config
        self.geometry = FlashGeometry(config)
        self.gc_threshold = gc_threshold
        self.op_ratio = op_ratio
        self.user_pages_per_channel = int(config.pages_per_channel * (1.0 - op_ratio))
        self.user_pages = self.user_pages_per_channel * config.channels
        self._pages_per_block = config.pages_per_block
        self._planes_per_channel = (
            config.packages_per_channel * config.dies_per_package * config.planes_per_die
        )
        # Plane keys of each channel, indexed by logical page modulo
        # ``_planes_per_channel``: package-major, then die, then plane.
        self._plane_keys: List[List[PlaneKey]] = [
            [
                (channel, package, die, plane)
                for package in range(config.packages_per_channel)
                for die in range(config.dies_per_package)
                for plane in range(config.planes_per_die)
            ]
            for channel in range(config.channels)
        ]

        self._l2p: Dict[int, int] = {}
        self._p2l: Dict[int, int] = {}
        self._planes: Dict[PlaneKey, _PlaneState] = {}
        # Every touched block by global block number (flat // pages_per_block),
        # so invalidating a page needs no address decode.
        self._blocks: Dict[int, BlockState] = {}
        self.gc_events: List[GcEvent] = []
        self.pages_written = 0
        self.pages_relocated = 0

    # --- logical address ranges (§5.3 contract) -------------------------------
    def channel_logical_range(self, channel: int) -> range:
        """The logical page range whose writes land on ``channel``.

        The firmware statically partitions the logical space channel-by-
        channel; user capacity excludes the over-provisioned share.
        """
        if not (0 <= channel < self.config.channels):
            raise AddressError(f"channel {channel} outside device")
        per_channel = self.user_pages_per_channel
        start = channel * per_channel
        return range(start, start + per_channel)

    def channel_of_logical(self, logical_page: int) -> int:
        """Which channel a logical page is statically routed to."""
        if not (0 <= logical_page < self.user_pages):
            raise AddressError(
                f"logical page {logical_page} outside user space"
                f" [0, {self.user_pages})"
            )
        return logical_page // self.user_pages_per_channel

    # --- mapping ---------------------------------------------------------------
    def write(self, logical_page: int) -> PhysicalAddress:
        """Map ``logical_page`` to a fresh physical page; returns its PPA.

        Overwrites invalidate the previous physical page.  The channel is
        determined by the static logical range; within the channel the
        allocator round-robins dies/planes for program parallelism.
        """
        if not (0 <= logical_page < self.user_pages):
            self.channel_of_logical(logical_page)  # raises the AddressError
        channel = logical_page // self.user_pages_per_channel
        l2p = self._l2p
        p2l = self._p2l
        old = l2p.pop(logical_page, None)
        if old is not None:
            stale = self._blocks[old // self._pages_per_block]
            stale.valid[old - stale.base] = 0
            stale.valid_count -= 1
            p2l.pop(old, None)
        block, page = self._allocate(channel, logical_page)
        flat = block.base + page
        l2p[logical_page] = flat
        p2l[flat] = logical_page
        self.pages_written += 1
        registry = current().registry
        if registry.enabled:
            registry.counter(
                "ftl_pages_written_total", "pages programmed through the FTL"
            ).inc(channel=channel)
        # The allocator hands out in-fan-out fields only, so the address
        # skips PhysicalAddress's negative-field check.
        return _tuple_new(PhysicalAddress, block.prefix + (page,))

    def check_logical(self, logical_pages: Sequence[int]) -> None:
        """Raise :class:`AddressError` for the first page that is not an
        integer (anything :func:`operator.index` rejects) or lies outside
        user space.

        Lets a caller reject a whole burst before it changes any state.
        """
        if not _PLAIN_INT.issuperset(map(type, logical_pages)):
            for logical_page in logical_pages:
                try:
                    operator.index(logical_page)
                except TypeError:
                    raise AddressError(
                        f"logical page {logical_page!r} is not an integer"
                    ) from None
        if len(logical_pages) and (
            min(logical_pages) < 0 or max(logical_pages) >= self.user_pages
        ):
            for logical_page in logical_pages:
                self.channel_of_logical(logical_page)

    def lookup(self, logical_page: int) -> PhysicalAddress:
        """Translate a logical page to its current physical address.

        The page's block holds its address prefix, so the address is built
        without decoding the flat index.
        """
        flat = self._l2p.get(logical_page)
        if flat is None:
            raise AddressError(f"logical page {logical_page} is unmapped")
        block = self._blocks[flat // self._pages_per_block]
        return _tuple_new(PhysicalAddress, block.prefix + (flat - block.base,))

    def is_mapped(self, logical_page: int) -> bool:
        return logical_page in self._l2p

    @property
    def mapped_pages(self) -> int:
        return len(self._l2p)

    # --- allocation --------------------------------------------------------------
    def _allocate(self, channel: int, logical_page: int) -> Tuple[BlockState, int]:
        """Program the next page of the plane's active block.

        Returns ``(block, page)``; the page's flat index is
        ``block.base + page``.
        """
        # Planes round-robin within the channel by logical page number.
        plane_key = self._plane_keys[channel][logical_page % self._planes_per_channel]
        # An active block is never full (filling it clears ``active``
        # below), so only a plane with no open block takes the slow path.
        state = self._planes.get(plane_key)
        block = None if state is None else state.active
        if block is None:
            block = self._active_block(plane_key)
            state = self._planes[plane_key]
        page = block.write_pointer
        block.write_pointer += 1
        block.valid[page] = 1
        block.valid_count += 1
        if block.write_pointer >= block.pages_per_block:
            state.active = None
        return block, page

    def _plane(self, plane_key: PlaneKey) -> _PlaneState:
        state = self._planes.get(plane_key)
        if state is None:
            state = _PlaneState(self.config.blocks_per_plane)
            self._planes[plane_key] = state
        return state

    def _active_block(self, plane_key: PlaneKey) -> BlockState:
        state = self._plane(plane_key)
        if state.active is not None and not state.active.is_full:
            return state.active
        if len(state.free_heap) <= self.gc_threshold and not state.in_gc:
            self._garbage_collect(plane_key)
            # GC's relocations may have opened an active block with room
            # left; reuse it rather than stranding its free pages.
            if state.active is not None and not state.active.is_full:
                return state.active
        state.active = self._pop_free_block(plane_key)
        return state.active

    def _pop_free_block(self, plane_key: PlaneKey) -> BlockState:
        state = self._plane(plane_key)
        if not state.free_heap:
            touched = len(state.blocks)
            valid = sum(block.valid_pages for block in state.blocks.values())
            wear = [block.erase_count for block in state.blocks.values()]
            wear_lo = min(wear) if wear else 0
            wear_hi = max(wear) if wear else 0
            raise CapacityError(
                f"plane {plane_key} has no free blocks (GC failed): "
                f"{touched}/{self.config.blocks_per_plane} blocks touched, "
                f"{valid} valid pages pinned, erase counts "
                f"[{wear_lo}, {wear_hi}], gc_threshold={self.gc_threshold}, "
                f"op_ratio={self.op_ratio}"
            )
        _wear, block_index = heapq.heappop(state.free_heap)
        block = state.blocks.get(block_index)
        if block is None:
            prefix = plane_key + (block_index,)
            base = self.geometry.to_flat(PhysicalAddress(*prefix, 0))
            block = BlockState(block_index, self._pages_per_block, base, prefix)
            state.blocks[block_index] = block
            self._blocks[base // self._pages_per_block] = block
        return block

    # --- garbage collection ---------------------------------------------------------
    def _garbage_collect(self, plane_key: PlaneKey) -> None:
        """Reclaim blocks until the plane's free reserve is replenished.

        One pass may reclaim a block whose pages the next allocation
        immediately consumes, so collection loops while reclaimable victims
        exist and the reserve is still at or below the threshold.
        """
        state = self._plane(plane_key)
        state.in_gc = True
        try:
            while len(state.free_heap) <= self.gc_threshold:
                victim = self._pick_victim(plane_key)
                if victim is None:
                    return  # nothing reclaimable; allocation may still succeed
                self._collect_victim(plane_key, state, victim)
        finally:
            state.in_gc = False

    def _collect_victim(
        self, plane_key: PlaneKey, state: _PlaneState, victim: BlockState
    ) -> None:
        relocated = victim.valid_count
        room = len(state.free_heap) * self._pages_per_block
        if state.active is not None:
            room += self._pages_per_block - state.active.write_pointer
        # With no free block left for the victim's valid pages, the
        # controller stages the overflow in its buffer and programs it back
        # into the erased victim, which becomes the append point.  Without
        # over-provisioning the plane has no spare area to compact in, and
        # the relocation below raises CapacityError instead.
        in_place = relocated > room and self.op_ratio > 0.0
        spill = room if in_place else relocated
        staged: List[int] = []
        channel = plane_key[0]
        allocate = self._allocate
        l2p = self._l2p
        p2l = self._p2l
        base = victim.base
        for page_index in range(victim.pages_per_block):
            if not victim.valid[page_index]:
                continue
            logical_page = p2l.pop(base + page_index)
            victim.valid[page_index] = 0
            victim.valid_count -= 1
            if spill:
                spill -= 1
                block, page = allocate(channel, logical_page)
                new_flat = block.base + page
                l2p[logical_page] = new_flat
                p2l[new_flat] = logical_page
            else:
                staged.append(logical_page)
        victim.erase()
        if in_place:
            state.active = victim
            for logical_page in staged:
                block, page = allocate(channel, logical_page)
                new_flat = block.base + page
                l2p[logical_page] = new_flat
                p2l[new_flat] = logical_page
        else:
            heapq.heappush(state.free_heap, (victim.erase_count, victim.block))
        self.pages_relocated += relocated
        self.gc_events.append(
            GcEvent(plane=plane_key, victim_block=victim.block, relocated_pages=relocated)
        )
        hooks = current()
        registry = hooks.registry
        if registry.enabled:
            registry.counter(
                "ftl_gc_total", "garbage-collection invocations"
            ).inc(channel=plane_key[0])
            registry.counter(
                "ftl_pages_relocated_total", "valid pages moved by GC"
            ).inc(relocated, channel=plane_key[0])
        tracer = hooks.tracer
        if tracer.enabled:
            # The FTL has no simulated clock of its own: GC shows up as a
            # wall-time instant event tagged with its plane and cost.
            tracer.instant(
                "gc",
                attrs={
                    "plane": list(plane_key),
                    "victim_block": victim.block,
                    "relocated_pages": relocated,
                    "erase_count": victim.erase_count,
                },
            )
        logger.debug(
            "gc: plane %s victim block %d relocated %d pages",
            plane_key, victim.block, relocated,
        )

    def _pick_victim(self, plane_key: PlaneKey) -> Optional[BlockState]:
        """The full block with the fewest valid pages, then the least wear.

        Ties keep the first block in dict order, as ``min()`` would.  A
        fully valid block is never a victim: collecting it reclaims nothing
        and consumes exactly the space it frees, so GC would live-lock
        shuffling pages at 100% utilization instead of letting the
        allocator surface CapacityError.
        """
        state = self._plane(plane_key)
        active = state.active
        best: Optional[BlockState] = None
        best_valid = best_wear = 0
        for block in state.blocks.values():
            valid = block.valid_count
            if (
                block.write_pointer < block.pages_per_block
                or block is active
                or valid >= block.pages_per_block
            ):
                continue
            if (
                best is None
                or valid < best_valid
                or (valid == best_valid and block.erase_count < best_wear)
            ):
                best, best_valid, best_wear = block, valid, block.erase_count
        return best

    # --- reliability hooks (scrub/refresh, wear lookup) -------------------------------
    def block_erase_count(self, address: PhysicalAddress) -> int:
        """Erase count (P/E cycles) of the block holding ``address``.

        The fault injector binds this as its wear source: RBER grows with
        P/E cycling, and the FTL's per-block ledger is the ground truth.
        Untouched blocks have zero wear.
        """
        plane_key = (address.channel, address.package, address.die, address.plane)
        state = self._planes.get(plane_key)
        if state is None:
            return 0
        block = state.blocks.get(address.block)
        return block.erase_count if block is not None else 0

    def iter_refreshable_blocks(self) -> List[Tuple[PlaneKey, int]]:
        """Blocks a scrub pass may refresh, in deterministic order.

        A block is refreshable when it is full (no open write pointer),
        not the plane's active block, and still holds valid pages to
        migrate.  Sorted by (plane, block) so scrub order never depends on
        dict iteration.
        """
        refreshable: List[Tuple[PlaneKey, int]] = []
        for plane_key in sorted(self._planes):
            state = self._planes[plane_key]
            for block_index in sorted(state.blocks):
                block = state.blocks[block_index]
                if block.is_full and block is not state.active and block.valid_pages:
                    refreshable.append((plane_key, block_index))
        return refreshable

    def refresh_block(self, plane_key: PlaneKey, block_index: int) -> int:
        """Migrate a block's valid pages and erase it (scrub/refresh).

        Re-programming rewinds retention for every page the block held, and
        the erased block re-enters the wear-leveling heap keyed by its new
        erase count — refresh *is* a targeted GC pass.  Returns the number
        of pages migrated.
        """
        state = self._plane(plane_key)
        block = state.blocks.get(block_index)
        if block is None:
            raise AddressError(
                f"block {block_index} on plane {plane_key} has never been written"
            )
        if block is state.active:
            raise SimulationError(
                f"block {block_index} on plane {plane_key} is the active "
                "append point and cannot be refreshed"
            )
        if not block.is_full:
            raise SimulationError(
                f"block {block_index} on plane {plane_key} is still open "
                f"(write pointer {block.write_pointer})"
            )
        relocated = block.valid_pages
        state.in_gc = True
        try:
            self._collect_victim(plane_key, state, block)
        finally:
            state.in_gc = False
        return relocated

    # --- wear statistics --------------------------------------------------------------
    def wear_stats(self) -> Tuple[int, int, float]:
        """(min, max, mean) erase counts across *touched* blocks.

        Untouched planes have uniformly zero wear and are excluded from the
        mean so the statistic reflects the written footprint.
        """
        counts = [
            block.erase_count
            for state in self._planes.values()
            for block in state.blocks.values()
        ]
        if not counts:
            return 0, 0, 0.0
        return min(counts), max(counts), sum(counts) / len(counts)
