"""Background scrub/refresh policy migrating high-RBER blocks.

Retention errors accumulate in place: a page programmed long ago drifts up
the RBER surface until the ECC ladder can no longer bring it back.  Real
controllers run a background *scrub* that re-reads cold data and rewrites
(refreshes) blocks whose error rate approaches the ladder's capacity —
re-programming rewinds retention to zero and the erased block re-enters the
wear-leveling heap.

:class:`ScrubPolicy` is that loop, run at explicit sim-time points so it
stays deterministic: :meth:`scan_and_refresh` walks the FTL's refreshable
blocks in sorted order, prices each one's RBER from its erase count and the
injector's retention clock, and refreshes every block whose expected error
count exceeds ``refresh_margin`` of the ladder limit.  ``max_refreshes``
bounds one pass so scrub never starves foreground work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..obs.hooks import current
from ..ssd.geometry import PhysicalAddress
from .injector import FAULT_TRACK, FaultInjector


@dataclass(frozen=True)
class ScrubConfig:
    """Knobs for one scrub pass."""

    #: Refresh when expected errors exceed this fraction of the ladder limit.
    refresh_margin: float = 0.5
    #: Upper bound on blocks refreshed per pass (0 disables refreshing).
    max_refreshes: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.refresh_margin <= 1.0):
            raise ConfigurationError("refresh_margin must be in (0, 1]")
        if self.max_refreshes < 0:
            raise ConfigurationError("max_refreshes cannot be negative")


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    scanned: int = 0
    refreshed: int = 0
    pages_migrated: int = 0
    skipped_budget: int = 0
    refreshed_blocks: List[Tuple[Tuple[int, int, int, int], int]] = field(
        default_factory=list
    )

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "refreshed": self.refreshed,
            "pages_migrated": self.pages_migrated,
            "skipped_budget": self.skipped_budget,
        }


class ScrubPolicy:
    """Deterministic scrub/refresh over an FTL, priced by the fault models."""

    def __init__(
        self,
        ftl,
        injector: FaultInjector,
        config: Optional[ScrubConfig] = None,
    ) -> None:
        self.ftl = ftl
        self.injector = injector
        self.config = config or ScrubConfig()

    def _block_rber(self, plane_key, block_index: int, now: float) -> float:
        """Worst-case RBER across a block's pages at ``now``.

        Wear is per-block (the erase counter); retention is per-page (the
        injector's program-time ledger), so the block's oldest page sets
        the refresh decision.
        """
        state = self.ftl._planes[plane_key]
        block = state.blocks[block_index]
        pe = float(block.erase_count)
        oldest = 0.0
        for page_index in range(block.pages_per_block):
            if not block.valid[page_index]:
                continue
            address = PhysicalAddress(
                plane_key[0], plane_key[1], plane_key[2], plane_key[3],
                block_index, page_index,
            )
            programmed = self.injector._program_times.get(address)
            if programmed is not None:
                oldest = max(oldest, now - programmed)
        retention = max(oldest, self.injector.config.deployment_age)
        return self.injector.rber_model.rber(pe, retention)

    def scan_and_refresh(self, now: float) -> ScrubReport:
        """One scrub pass at sim time ``now``; returns what it did."""
        report = ScrubReport()
        threshold = (
            self.config.refresh_margin * self.injector.ecc_model.ladder_limit_bits
        )
        for plane_key, block_index in self.ftl.iter_refreshable_blocks():
            report.scanned += 1
            rber = self._block_rber(plane_key, block_index, now)
            expected = self.injector.ecc_model.expected_errors(rber)
            if expected <= threshold:
                continue
            if report.refreshed >= self.config.max_refreshes:
                report.skipped_budget += 1
                continue
            migrated = self.ftl.refresh_block(plane_key, block_index)
            report.refreshed += 1
            report.pages_migrated += migrated
            report.refreshed_blocks.append((plane_key, block_index))
        hooks = current()
        registry = hooks.registry
        if registry.enabled and report.refreshed:
            registry.counter(
                "fault_scrub_refreshes_total", "blocks refreshed by scrub"
            ).inc(report.refreshed)
        tracer = hooks.tracer
        if tracer.enabled and report.refreshed:
            tracer.instant(
                "scrub", sim_time=now, track=FAULT_TRACK, attrs=report.to_dict()
            )
        return report
