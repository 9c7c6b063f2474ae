"""The SSD data buffer, operated in ping-pong mode.

ECSSD reuses the SSD's existing MB-level data buffer for the inserted
accelerator (§2.2, §4.5): while the accelerator consumes tile *t* from one
half, tile *t+1* streams into the other half, overlapping fill and drain.
:class:`PingPongBuffer` models the capacity constraint (a tile's working set
must fit one half) and the pipeline timing rule (a half cannot be refilled
before its consumer releases it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import CapacityError, SimulationError


class BufferOverflow(CapacityError):
    """A tile working set exceeded one ping-pong half."""


@dataclass
class _Half:
    index: int
    ready_at: float = 0.0  # fill finished
    released_at: float = 0.0  # consumer done, half reusable


class PingPongBuffer:
    """Two alternating buffer halves with fill/consume handshaking.

    Usage per tile::

        half = buffer.begin_fill(tile_bytes)   # checks capacity, picks half
        buffer.complete_fill(half, fill_end)   # data landed at `fill_end`
        buffer.release(half, consume_end)      # consumer finished

    ``begin_fill`` returns the half whose previous consumer released earliest;
    the caller must not start its fill before ``half.released_at``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("buffer capacity must be positive")
        if capacity % 2 != 0:
            raise SimulationError("ping-pong buffer capacity must be even")
        self.capacity = capacity
        self.half_capacity = capacity // 2
        self._halves: List[_Half] = [_Half(0), _Half(1)]
        self._next = 0
        self.fills = 0
        self.max_fill_bytes = 0

    def begin_fill(self, num_bytes: int) -> _Half:
        """Claim the next half for a fill of ``num_bytes``."""
        if num_bytes < 0:
            raise CapacityError(f"negative fill size {num_bytes}")
        if num_bytes > self.half_capacity:
            raise BufferOverflow(
                f"tile of {num_bytes} B exceeds ping-pong half"
                f" ({self.half_capacity} B); shrink the tile"
            )
        half = self._halves[self._next]
        self._next = 1 - self._next
        self.fills += 1
        self.max_fill_bytes = max(self.max_fill_bytes, num_bytes)
        return half

    def complete_fill(self, half: _Half, fill_end: float) -> None:
        if fill_end < half.released_at:
            raise SimulationError(
                "fill completed before the half was released by its consumer"
            )
        half.ready_at = fill_end

    def release(self, half: _Half, consume_end: float) -> None:
        if consume_end < half.ready_at:
            raise SimulationError("consumer finished before the fill completed")
        half.released_at = consume_end

    def reset(self) -> None:
        self._halves = [_Half(0), _Half(1)]
        self._next = 0
        self.fills = 0
        self.max_fill_bytes = 0
