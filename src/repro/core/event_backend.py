"""Event-simulated tile timing: the high-fidelity backend (DESIGN.md §5).

The analytic tile pipeline prices a tile's flash phase as ``max per-channel
pages x effective page time``.  This module runs the same tiles through the
event-driven SSD instead: every candidate page becomes a real flash command
with die sense, bus occupancy, queueing, and FTL command overhead; the
INT4 stream shares channels in homogeneous mode command-by-command.

It exists for validation and calibration: experiments use the analytic
model (it scales to 100M labels), and tests require the two backends to
agree on orderings and stay within a documented envelope on magnitudes
(`tests/test_event_backend.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..config import ECSSDConfig
from ..errors import ConfigurationError
from ..layout.placement import WeightPlacement
from ..lint.simsan import get_sanitizer
from ..obs.digest import DigestRecorder
from ..ssd.device import SSDDevice
from .accelerator import AcceleratorModel
from .pipeline import PipelineFeatures


@dataclass
class EventTileTiming:
    """One tile's flash phase, event-simulated."""

    flash_makespan: float
    int4_fetch: float
    int4_compute: float
    fp32_compute: float
    cost: float
    pages_per_channel: np.ndarray


@dataclass
class EventRunResult:
    """Aggregate of an event-backed run."""

    total_time: float
    tiles: List[EventTileTiming]


class EventBackedTiming:
    """Times tile workloads by submitting real flash commands.

    A fresh :class:`SSDDevice` hosts the run; candidate pages are written
    through the FTL once (deployment), then each tile's fetch replays as
    read commands on the per-channel controllers.
    """

    def __init__(
        self,
        config: Optional[ECSSDConfig] = None,
        features: PipelineFeatures = PipelineFeatures.full(),
        digest_recorder: Optional[DigestRecorder] = None,
    ) -> None:
        self.config = config or ECSSDConfig()
        self.features = features
        self.accelerator = AcceleratorModel(
            config=self.config.accelerator, fp32_design=features.mac_design
        )
        self.device = SSDDevice(self.config)
        self._written: Dict[int, bool] = {}
        # Provenance hook: ticked once per timed tile with the backend's
        # counters, so event-backed runs carry a digest track in their run
        # manifest (repro.obs.digest).
        self.digest_recorder = digest_recorder
        self._tiles_timed = 0
        self._commands_issued = 0

    # --- deployment -------------------------------------------------------------
    def deploy_tile(
        self, placement: WeightPlacement, tile_base_page: int = 0
    ) -> Dict[int, List[int]]:
        """Write a tile placement's pages through the FTL.

        Returns channel -> logical pages, offset so multiple tiles coexist.
        ``tile_base_page`` spaces tiles apart in each channel's logical range.
        """
        ftl = self.device.ftl
        lpas_by_channel: Dict[int, List[int]] = {}
        for channel in range(placement.num_channels):
            base = ftl.channel_logical_range(channel).start + tile_base_page
            count = placement.channel_pages(channel)
            lpas = [base + i for i in range(count)]
            for lpa in lpas:
                if not ftl.is_mapped(lpa):
                    ftl.write(lpa)
            lpas_by_channel[channel] = lpas
        return lpas_by_channel

    # --- tile timing --------------------------------------------------------------
    def time_tile(
        self,
        placement: WeightPlacement,
        candidates: np.ndarray,
        tile_base_page: int,
        batch: int,
        shrunk_dim: int,
        hidden_dim: int,
        int4_bytes: int,
    ) -> EventTileTiming:
        """Event-simulate one tile's candidate fetch + compute phases."""
        if batch <= 0:
            raise ConfigurationError("batch must be positive")
        lpas_by_channel = self.deploy_tile(placement, tile_base_page)
        page_lists = placement.fetch_page_lists(candidates)
        addresses = []
        for channel, pages in page_lists.items():
            base_lpas = lpas_by_channel[channel]
            for page in pages:
                addresses.append(self.device.ftl.lookup(base_lpas[int(page)]))
        if self.features.heterogeneous:
            int4_fetch = int4_bytes / self.config.dram_bandwidth
        else:
            # INT4 pages interleave into the same channel queues.
            int4_pages = -(-int4_bytes // self.config.flash.page_size)
            per_channel = -(-int4_pages // self.config.flash.channels)
            for channel in range(self.config.flash.channels):
                base = self.device.ftl.channel_logical_range(channel).start
                for i in range(per_channel):
                    lpa = base + 500_000 + tile_base_page + i
                    if not self.device.ftl.is_mapped(lpa):
                        self.device.ftl.write(lpa)
                    addresses.append(self.device.ftl.lookup(lpa))
            int4_fetch = 0.0  # folded into the flash makespan

        for channel in self.device.channels:
            channel.reset()
        result = self.device.fetch_pages(addresses, start=0.0)
        flash_makespan = result.makespan

        candidates_count = int(len(np.asarray(candidates)))
        int4_compute = self.accelerator.int4_screen_time(
            placement.num_vectors, shrunk_dim, batch
        )
        fp32_compute = self.accelerator.fp32_classify_time(
            candidates_count, hidden_dim, batch
        )
        if self.features.overlap:
            cost = max(flash_makespan, fp32_compute, max(int4_fetch, int4_compute))
        else:
            cost = int4_fetch + int4_compute + flash_makespan + fp32_compute
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            sanitizer.check_time("event_backend.flash_makespan", flash_makespan)
            sanitizer.check_time("event_backend.tile_cost", cost)
        pages = np.zeros(placement.num_channels, dtype=np.int64)
        for channel, page_list in page_lists.items():
            pages[channel] = len(page_list)
        self._tiles_timed += 1
        self._commands_issued += len(addresses)
        if self.digest_recorder is not None:
            self.digest_recorder.tick(
                flash_makespan,
                tiles_timed=self._tiles_timed,
                commands_issued=self._commands_issued,
                candidates=candidates_count,
                batch=batch,
            )
        return EventTileTiming(
            flash_makespan=flash_makespan,
            int4_fetch=int4_fetch,
            int4_compute=int4_compute,
            fp32_compute=fp32_compute,
            cost=cost,
            pages_per_channel=pages,
        )

    def run(
        self,
        placements: List[WeightPlacement],
        candidate_sets: List[np.ndarray],
        batch: int,
        shrunk_dim: int,
        hidden_dim: int,
        int4_bytes: int,
        tile_spacing: int = 4096,
    ) -> EventRunResult:
        """Time a sequence of tiles (one placement + candidate set each)."""
        if len(placements) != len(candidate_sets):
            raise ConfigurationError("one candidate set per placement required")
        if not placements:
            raise ConfigurationError("run() needs at least one tile")
        timings = []
        for index, (placement, candidates) in enumerate(
            zip(placements, candidate_sets)
        ):
            timings.append(
                self.time_tile(
                    placement,
                    candidates,
                    tile_base_page=index * tile_spacing,
                    batch=batch,
                    shrunk_dim=shrunk_dim,
                    hidden_dim=hidden_dim,
                    int4_bytes=int4_bytes,
                )
            )
        total = sum(t.cost for t in timings) + self.config.flash.read_latency
        return EventRunResult(total_time=total, tiles=timings)
