"""Flash geometry: the channel/package/die/plane/block/page hierarchy.

Physical page addresses (PPA) identify a page by its position in the
hierarchy; logical page addresses (LPA) are flat integers the FTL maps onto
PPAs.  :class:`FlashGeometry` converts between flat page indices and
structured addresses and knows the fan-out at every level.
"""

from __future__ import annotations

from typing import NamedTuple

from ..config import FlashConfig
from ..errors import AddressError

# ``_tuple_new(PhysicalAddress, fields)`` skips the negative-field check of
# ``PhysicalAddress.__new__``: only for fields in range by construction.
_tuple_new = tuple.__new__


class _AddressFields(NamedTuple):
    channel: int
    package: int
    die: int
    plane: int
    block: int
    page: int


class PhysicalAddress(_AddressFields):
    """A physical page address within the flash hierarchy.

    An immutable six-int tuple: it orders, hashes and compares equal like
    ``(channel, package, die, plane, block, page)``.  Construction rejects
    negative fields; :meth:`FlashGeometry.check` bounds them from above.
    """

    __slots__ = ()

    def __new__(
        cls, channel: int, package: int, die: int, plane: int, block: int, page: int
    ) -> "PhysicalAddress":
        address = _tuple_new(cls, (channel, package, die, plane, block, page))
        if channel < 0 or package < 0 or die < 0 or plane < 0 or block < 0 or page < 0:
            name = next(name for name, value in zip(cls._fields, address) if value < 0)
            raise AddressError(f"negative {name} in {address!r}")
        return address


class FlashGeometry:
    """Address arithmetic over a :class:`FlashConfig` hierarchy.

    Flat physical indices are channel-major: channel, then package, die,
    plane, block, page.  This means that ``flat // pages_per_channel`` is the
    channel index, the property the FTL exploits to give each channel a
    contiguous physical index range.

    The strides of that layout and the six per-level fan-outs are computed
    once here (``FlashConfig`` is frozen) and are known to this class alone:
    callers go through :meth:`to_flat` and :meth:`to_physical`.
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
        """Convert a flat physical page index to a structured address.

        The one range check ``0 <= flat < total_pages`` already puts every
        decoded field inside its fan-out, so the address is built without
        re-validating it.  Raises :class:`AddressError` for an out-of-range
        ``flat``.
        """
        if not (0 <= flat < self.total_pages):
            raise AddressError(f"flat page {flat} outside [0, {self.total_pages})")
        channel, rest = divmod(flat, self.pages_per_channel)
        package, rest = divmod(rest, self._pages_per_package)
        die, rest = divmod(rest, self._pages_per_die)
        plane, rest = divmod(rest, self._pages_per_plane)
        block, page = divmod(rest, self._pages_per_block)
        return _tuple_new(PhysicalAddress, (channel, package, die, plane, block, page))

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

    def check(self, addr: PhysicalAddress) -> None:
        """Validate every field of ``addr`` against this geometry's fan-out.

        Raises :class:`AddressError` naming the offending field.  The one
        rule for where an address is validated: an address the FTL builds
        (``FlashTranslationLayer.write``) or derives from a flat index
        (:meth:`to_physical`) is in range by construction, and each page is
        checked once, by ``FlashController.submit``.  ``submit`` checks its
        whole batch before issuing any command, so a hand-built address is
        always caught there too; ``SSDDevice.fetch_pages`` also checks its
        addresses up front, so that a bad one leaves no channel moved.
        ``FlashCommand`` construction with a geometry and :meth:`to_flat`
        check their address as well.
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
    def channel_page_range(self, channel: int) -> range:
        """The flat physical page index range owned by ``channel``."""
        if not (0 <= channel < self.channels):
            raise AddressError(f"channel {channel} outside [0, {self.channels})")
        start = channel * self.pages_per_channel
        return range(start, start + self.pages_per_channel)

    def pages_for_bytes(self, num_bytes: int) -> int:
        """Number of whole pages needed to hold ``num_bytes``."""
        if num_bytes < 0:
            raise AddressError(f"negative byte count {num_bytes}")
        return -(-num_bytes // self.page_size)
