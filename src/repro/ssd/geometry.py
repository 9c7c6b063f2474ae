"""Flash geometry: the channel/package/die/plane/block/page hierarchy.

Physical page addresses (PPA) identify a page by its position in the
hierarchy; logical page addresses (LPA) are flat integers the FTL maps onto
PPAs.  :class:`FlashGeometry` converts between flat page indices and
structured addresses and knows the fan-out at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from ..config import FlashConfig
from ..errors import AddressError


@dataclass(frozen=True, order=True)
class LogicalAddress:
    """A logical page address: a flat page number in the device's LPA space."""

    page: int

    def __post_init__(self) -> None:
        if self.page < 0:
            raise AddressError(f"negative logical page {self.page}")


@dataclass(frozen=True, order=True)
class PhysicalAddress:
    """A physical page address within the flash hierarchy."""

    channel: int
    package: int
    die: int
    plane: int
    block: int
    page: int

    def __post_init__(self) -> None:
        if (
            self.channel < 0 or self.package < 0 or self.die < 0
            or self.plane < 0 or self.block < 0 or self.page < 0
        ):
            for name in ("channel", "package", "die", "plane", "block", "page"):
                if getattr(self, name) < 0:
                    raise AddressError(f"negative {name} in {self!r}")


class FlashGeometry:
    """Address arithmetic over a :class:`FlashConfig` hierarchy.

    Flat physical indices are channel-major: channel, then package, die,
    plane, block, page.  This means that ``flat // pages_per_channel`` is the
    channel index, the property the FTL exploits to give each channel a
    contiguous physical index range.

    The strides of that layout and the six per-level fan-outs are computed
    once here (``FlashConfig`` is frozen) and are known to this class alone:
    callers go through :meth:`to_flat`, :meth:`to_physical` and
    :meth:`split`.
    """

    def __init__(self, config: FlashConfig) -> None:
        self.config = config
        self.channels = config.channels
        self.page_size = config.page_size
        self._packages = config.packages_per_channel
        self._dies = config.dies_per_package
        self._planes = config.planes_per_die
        self._blocks = config.blocks_per_plane
        self._pages_per_block = config.pages_per_block
        self._pages_per_plane = self._blocks * self._pages_per_block
        self._pages_per_die = self._planes * self._pages_per_plane
        self._pages_per_package = self._dies * self._pages_per_die
        self.pages_per_channel = self._packages * self._pages_per_package
        self.total_pages = self.channels * self.pages_per_channel

    # --- flat <-> structured -------------------------------------------------
    def to_physical(self, flat: int) -> PhysicalAddress:
        """Convert a flat physical page index to a structured address."""
        (channel, package, die, plane), block, page = self.split(flat)
        return PhysicalAddress(channel, package, die, plane, block, page)

    def to_flat(self, addr: PhysicalAddress) -> int:
        """Convert a structured physical address to a flat page index."""
        self.check(addr)
        return (
            addr.channel * self.pages_per_channel
            + addr.package * self._pages_per_package
            + addr.die * self._pages_per_die
            + addr.plane * self._pages_per_plane
            + addr.block * self._pages_per_block
            + addr.page
        )

    def split(self, flat: int) -> Tuple[Tuple[int, int, int, int], int, int]:
        """Decode a flat page to ``((channel, package, die, plane), block, page)``.

        The FTL's plane-keyed view of :meth:`to_physical`, without building
        a :class:`PhysicalAddress`.
        """
        if not (0 <= flat < self.total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self.total_pages})")
        channel, rest = divmod(flat, self.pages_per_channel)
        package, rest = divmod(rest, self._pages_per_package)
        die, rest = divmod(rest, self._pages_per_die)
        plane, rest = divmod(rest, self._pages_per_plane)
        block, page = divmod(rest, self._pages_per_block)
        return (channel, package, die, plane), block, page

    def check(self, addr: PhysicalAddress) -> None:
        """Validate every field of ``addr`` against this geometry's fan-out.

        Raises :class:`AddressError` naming the offending field.  Public so
        :class:`repro.ssd.controller.FlashCommand` can validate addresses at
        construction rather than first failing deep inside ``submit``.
        """
        if (
            addr.channel < self.channels and addr.package < self._packages
            and addr.die < self._dies and addr.plane < self._planes
            and addr.block < self._blocks and addr.page < self._pages_per_block
        ):
            return
        limits = (
            ("channel", addr.channel, self.channels),
            ("package", addr.package, self._packages),
            ("die", addr.die, self._dies),
            ("plane", addr.plane, self._planes),
            ("block", addr.block, self._blocks),
            ("page", addr.page, self._pages_per_block),
        )
        for name, value, limit in limits:
            if value >= limit:
                raise AddressError(f"{name}={value} exceeds fan-out {limit} in {addr!r}")

    # --- derived views --------------------------------------------------------
    def channel_of(self, flat: int) -> int:
        """Channel index of a flat physical page (cheap, no full decode)."""
        if not (0 <= flat < self.total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self.total_pages})")
        return flat // self.pages_per_channel

    def die_index_of(self, flat: int) -> int:
        """Global die index (channel-major) of a flat physical page."""
        if not (0 <= flat < self.total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self.total_pages})")
        return flat // self._pages_per_die

    def channel_page_range(self, channel: int) -> range:
        """The flat physical page index range owned by ``channel``."""
        if not (0 <= channel < self.channels):
            raise AddressError(f"channel {channel} outside [0, {self.channels})")
        start = channel * self.pages_per_channel
        return range(start, start + self.pages_per_channel)

    def iter_channels(self) -> Iterator[int]:
        return iter(range(self.channels))

    def pages_for_bytes(self, num_bytes: int) -> int:
        """Number of whole pages needed to hold ``num_bytes``."""
        if num_bytes < 0:
            raise AddressError(f"negative byte count {num_bytes}")
        return -(-num_bytes // self.page_size)
