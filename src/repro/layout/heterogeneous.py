"""Heterogeneous vs homogeneous placement of the two weight matrices (§4.3).

The screener's 4-bit matrix and the classifier's 32-bit matrix move through
the device on every tile.  Two layouts are compared:

* **Homogeneous** — both matrices live in NAND flash.  Each tile's 4-bit
  weight fetch occupies the same channel buses as the 32-bit candidate
  fetch, so the streams interfere and the tile's flash time covers both.
* **Heterogeneous (ECSSD)** — the 4-bit matrix lives entirely in the SSD's
  DRAM; flash channels carry only 32-bit candidate data while the DRAM port
  feeds the INT4 MAC array concurrently.

:class:`WeightLayout` captures the choice plus the footprint bookkeeping the
scalability discussion (§7.1) needs — whether the 4-bit matrix fits DRAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import CapacityError


class DataLocation(enum.Enum):
    """Which medium holds a weight matrix."""

    DRAM = "dram"
    FLASH = "flash"


@dataclass(frozen=True)
class WeightLayout:
    """Where each precision's weight matrix is stored."""

    int4_location: DataLocation
    fp32_location: DataLocation = DataLocation.FLASH
    int4_bytes: int = 0
    fp32_bytes: int = 0

    def check_dram_capacity(self, dram_capacity: int, reserved: int = 0) -> None:
        """Raise if the DRAM-resident share exceeds capacity (§7.1).

        ``reserved`` accounts for the L2P table and management data that
        share the DRAM.
        """
        needed = reserved
        if self.int4_location is DataLocation.DRAM:
            needed += self.int4_bytes
        if self.fp32_location is DataLocation.DRAM:
            needed += self.fp32_bytes
        if needed > dram_capacity:
            raise CapacityError(
                f"layout needs {needed} B of DRAM but only"
                f" {dram_capacity} B available"
            )


def heterogeneous_layout(int4_bytes: int, fp32_bytes: int) -> WeightLayout:
    """ECSSD's layout: 4-bit in DRAM, 32-bit in flash."""
    return WeightLayout(
        int4_location=DataLocation.DRAM,
        fp32_location=DataLocation.FLASH,
        int4_bytes=int4_bytes,
        fp32_bytes=fp32_bytes,
    )


def homogeneous_layout(int4_bytes: int, fp32_bytes: int) -> WeightLayout:
    """Baseline layout: both matrices in flash (transfer interference)."""
    return WeightLayout(
        int4_location=DataLocation.FLASH,
        fp32_location=DataLocation.FLASH,
        int4_bytes=int4_bytes,
        fp32_bytes=fp32_bytes,
    )
