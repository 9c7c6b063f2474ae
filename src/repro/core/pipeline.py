"""Tile-by-tile dual-module pipeline timing model (§4.5).

Inference is tile-periodic: each tile screens ``tile_vectors`` labels with
INT4 weights, filters candidates, fetches their CFP32 vectors from flash,
and ranks them in FP32.  This module turns per-tile workloads into time,
honoring the four design knobs the paper ablates:

* **MAC design** — naive / SK-Hynix / alignment-free FP32 throughput
  (compute may or may not hide under transfer);
* **layout** — heterogeneous (INT4 from DRAM) vs homogeneous (INT4 pages
  share the flash channels with candidate fetches: transfer interference);
* **interleaving** — enters through each tile's per-channel page counts
  (the busiest channel sets the fetch makespan);
* **overlap** — the §4.5 scheduler runs the INT4 module on tile *t+1* while
  the FP32 module processes tile *t*, ping-pong buffered; without it the
  four phases serialize.

Steady-state flash streaming is bus-limited (sense pipelines across a
channel's dies), so a channel's fetch time is ``pages x effective page
time``; one initial sense latency is charged per run, not per tile.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from ..cfp32.circuits import MacDesign
from ..config import ECSSDConfig
from ..errors import ConfigurationError, SimulationError
from ..obs import FP32_TRACK, INT4_TRACK, PIPELINE_TRACK, get_registry, get_tracer
from .accelerator import AcceleratorModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineFeatures:
    """Which ECSSD techniques are enabled (the Fig. 8 ablation axes)."""

    mac_design: MacDesign = MacDesign.ALIGNMENT_FREE
    heterogeneous: bool = True
    overlap: bool = True
    label: str = "ecssd"

    @classmethod
    def baseline(cls) -> "PipelineFeatures":
        """Fig. 8's starting point: naive MAC, homogeneous, serial phases."""
        return cls(
            mac_design=MacDesign.NAIVE,
            heterogeneous=False,
            overlap=False,
            label="baseline",
        )

    @classmethod
    def full(cls) -> "PipelineFeatures":
        """All ECSSD techniques on."""
        return cls()


@dataclass
class TileWorkload:
    """One tile's data movement and compute demands."""

    tile_vectors: int
    shrunk_dim: int
    hidden_dim: int
    batch: int
    candidates: int
    fp32_pages_per_channel: np.ndarray  # (C,) pages of candidate data
    int4_pages_per_channel: Optional[np.ndarray] = None  # (C,) when in flash
    int4_bytes: int = 0  # packed INT4 tile bytes (DRAM path)

    def __post_init__(self) -> None:
        self.fp32_pages_per_channel = np.asarray(
            self.fp32_pages_per_channel, dtype=np.int64
        )
        if self.int4_pages_per_channel is not None:
            self.int4_pages_per_channel = np.asarray(
                self.int4_pages_per_channel, dtype=np.int64
            )
            if (
                self.int4_pages_per_channel.shape
                != self.fp32_pages_per_channel.shape
            ):
                raise ConfigurationError("int4/fp32 channel arrays differ in shape")
        if self.tile_vectors <= 0 or self.batch <= 0:
            raise ConfigurationError("tile_vectors and batch must be positive")
        if self.candidates < 0:
            raise ConfigurationError("candidates cannot be negative")


@dataclass
class TileTiming:
    """Phase latencies of one tile under a feature set."""

    int4_fetch: float
    int4_compute: float
    fp32_fetch: float
    fp32_compute: float
    cost: float  # contribution to total run time (steady state)
    fp32_busy: float  # channel-seconds of pure FP32 page transfer
    fp32_max_pages: int
    fp32_total_pages: int


@dataclass
class RunResult:
    """Aggregate of one inference run through the pipeline."""

    features: PipelineFeatures
    total_time: float
    tiles: int
    channels: int
    fp32_bytes: int
    fp32_busy: float
    host_time: float = 0.0
    tile_time_total: float = 0.0  # sum of steady-state tile costs only
    overhead_time: float = 0.0  # one-time costs: sense fill, pipeline fill, host
    tile_timings: List[TileTiming] = field(default_factory=list)

    @property
    def fp32_channel_utilization(self) -> float:
        """FP32 channel-bandwidth utilization over the run (Fig. 8 metric).

        Measured over steady-state tile processing (one-time fill/host
        overheads excluded — they vanish at full benchmark scale anyway).
        """
        window = self.tile_time_total if self.tile_time_total > 0 else self.total_time
        if window <= 0:
            return 0.0
        return self.fp32_busy / (self.channels * window)


class TilePipelineModel:
    """Turns tile workloads into end-to-end time for a feature set."""

    # Penalty on a channel that carries both the INT4 stream and candidate
    # fetches (homogeneous layout with overlap).  Interleaving a sequential
    # stream into a random-read queue breaks die pipelining: the event-level
    # simulator measures >= 1.13x beyond additive page counts from die
    # conflicts alone; the analytic value also folds in the controller
    # scheduling effects MQSim resolves, calibrated against Fig. 10.
    INTERFERENCE_PENALTY = 1.25

    def __init__(
        self,
        config: Optional[ECSSDConfig] = None,
        accelerator: Optional[AcceleratorModel] = None,
        features: PipelineFeatures = PipelineFeatures.full(),
        interference_penalty: float = INTERFERENCE_PENALTY,
    ) -> None:
        self.config = config or ECSSDConfig()
        self.features = features
        if interference_penalty < 1.0:
            raise ConfigurationError("interference penalty cannot be < 1")
        self.interference_penalty = interference_penalty
        self.accelerator = accelerator or AcceleratorModel(
            config=self.config.accelerator, fp32_design=features.mac_design
        )
        if self.accelerator.fp32_design is not features.mac_design:
            raise ConfigurationError(
                "accelerator MAC design must match pipeline features"
            )

    # --- per-channel timing ---------------------------------------------------------
    @property
    def effective_page_time(self) -> float:
        """Per-page streaming cost on one channel (bus- or sense-limited)."""
        flash = self.config.flash
        sense_limited = flash.read_latency / flash.dies_per_channel
        return max(flash.page_transfer_time, sense_limited)

    @property
    def channels(self) -> int:
        return self.config.flash.channels

    # --- tile timing -------------------------------------------------------------------
    def tile_timing(self, tile: TileWorkload) -> TileTiming:
        """Phase latencies and steady-state cost of one tile."""
        page_time = self.effective_page_time
        fp32_pages = tile.fp32_pages_per_channel
        if len(fp32_pages) != self.channels:
            raise ConfigurationError(
                f"tile has {len(fp32_pages)} channels, device has {self.channels}"
            )

        # INT4 weight fetch: DRAM (heterogeneous) or flash (homogeneous).
        if self.features.heterogeneous:
            int4_fetch = tile.int4_bytes / self.config.dram_bandwidth
            int4_flash = np.zeros_like(fp32_pages)
        else:
            if tile.int4_pages_per_channel is None:
                raise ConfigurationError(
                    "homogeneous layout requires int4_pages_per_channel"
                )
            int4_flash = tile.int4_pages_per_channel
            int4_fetch = float(int4_flash.max()) * page_time

        int4_compute = self.accelerator.int4_screen_time(
            tile.tile_vectors, tile.shrunk_dim, tile.batch
        )
        fp32_compute = self.accelerator.fp32_classify_time(
            tile.candidates, tile.hidden_dim, tile.batch
        )

        if self.features.overlap and not self.features.heterogeneous:
            # Interference: next tile's INT4 pages share the buses with this
            # tile's candidate fetch; beyond the extra pages, mixing the
            # sequential and random streams breaks die pipelining.
            combined = fp32_pages + int4_flash
            fp32_fetch = (
                float(combined.max()) * page_time * self.interference_penalty
            )
        else:
            fp32_fetch = float(fp32_pages.max()) * page_time

        if self.features.overlap:
            # Dual-module pipeline: INT4 side of tile t+1 runs under the FP32
            # side of tile t; ping-pong overlaps fetch with compute.
            int4_side = max(int4_fetch, int4_compute)
            if self.features.heterogeneous:
                fp32_side = max(fp32_fetch, fp32_compute)
            else:
                # INT4 fetch already folded into the flash makespan above.
                fp32_side = max(fp32_fetch, fp32_compute)
                int4_side = int4_compute
            cost = max(int4_side, fp32_side)
        else:
            cost = int4_fetch + int4_compute + fp32_fetch + fp32_compute

        total_pages = int(fp32_pages.sum())
        busy = total_pages * self.config.flash.page_transfer_time
        return TileTiming(
            int4_fetch=int4_fetch,
            int4_compute=int4_compute,
            fp32_fetch=fp32_fetch,
            fp32_compute=fp32_compute,
            cost=cost,
            fp32_busy=busy,
            fp32_max_pages=int(fp32_pages.max()),
            fp32_total_pages=total_pages,
        )

    # --- telemetry -------------------------------------------------------------------------
    def _record_tile(
        self,
        registry,
        tracer,
        tile: TileWorkload,
        timing: TileTiming,
        cursor: float,
        index: int,
    ) -> None:
        """Emit one tile's metrics and phase spans at sim offset ``cursor``.

        Purely observational — never feeds back into the timing math, so a
        run with recorders installed reports bit-identical times.
        """
        if registry.enabled:
            registry.histogram(
                "ecssd_tile_latency_seconds",
                "steady-state cost of one pipeline tile",
            ).observe(timing.cost)
            pages = registry.counter(
                "ecssd_pages_fetched_total",
                "FP32 candidate pages fetched, by channel",
            )
            for channel, count in enumerate(tile.fp32_pages_per_channel):
                if count:
                    pages.inc(int(count), channel=channel)
        if tracer.enabled:
            name = f"tile{index}"
            end = cursor + timing.cost
            tile_attrs = {
                "index": index,
                "candidates": tile.candidates,
                "fp32_pages": timing.fp32_total_pages,
                "fp32_max_pages": timing.fp32_max_pages,
            }
            # Resource tags for the critical-path profiler: where each phase
            # physically runs under this feature set.
            int4_fetch_resource = (
                "dram" if self.features.heterogeneous else "flash"
            )
            if self.features.overlap and not self.features.heterogeneous:
                # Homogeneous shared-channel fetch: record the §4.3 penalty
                # seconds actually paid beyond the additive page counts.
                tile_attrs["interference_penalty_s"] = timing.fp32_fetch * (
                    1.0 - 1.0 / self.interference_penalty
                )
            tracer.add_span(name, cursor, end, track=PIPELINE_TRACK,
                            attrs=tile_attrs)
            if self.features.overlap:
                # Dual-module layout: both sides start with the tile window;
                # within a side, fetch streams underneath compute.
                tracer.add_span(
                    f"{name}/int4_fetch", cursor, cursor + timing.int4_fetch,
                    track=INT4_TRACK,
                    attrs={"resource": int4_fetch_resource},
                )
                tracer.add_span(
                    f"{name}/int4_compute", cursor, cursor + timing.int4_compute,
                    track=INT4_TRACK, attrs={"resource": "int4-acc"},
                )
                tracer.add_span(
                    f"{name}/fp32_fetch", cursor, cursor + timing.fp32_fetch,
                    track=FP32_TRACK, attrs={"resource": "flash"},
                )
                tracer.add_span(
                    f"{name}/fp32_compute", cursor, cursor + timing.fp32_compute,
                    track=FP32_TRACK, attrs={"resource": "fp32-acc"},
                )
            else:
                # Serial phases: lay them end to end inside the tile window.
                t = cursor
                for phase, duration, track, resource in (
                    ("int4_fetch", timing.int4_fetch, INT4_TRACK,
                     int4_fetch_resource),
                    ("int4_compute", timing.int4_compute, INT4_TRACK,
                     "int4-acc"),
                    ("fp32_fetch", timing.fp32_fetch, FP32_TRACK, "flash"),
                    ("fp32_compute", timing.fp32_compute, FP32_TRACK,
                     "fp32-acc"),
                ):
                    tracer.add_span(
                        f"{name}/{phase}", t, t + duration, track=track,
                        attrs={"resource": resource},
                    )
                    t += duration

    # --- run-level aggregation -------------------------------------------------------------
    def simulate(
        self,
        tiles: Iterable[TileWorkload],
        host_bytes_in: int = 0,
        host_bytes_out: int = 0,
        keep_timings: bool = False,
    ) -> RunResult:
        """Aggregate tile costs into an end-to-end run time.

        ``host_bytes_in/out`` are the per-run input-feature upload and
        result download (they overlap tile processing only partially: the
        first batch upload is serial, so the full transfer is charged —
        conservative and identical across compared configurations).
        """
        registry = get_registry()
        tracer = get_tracer()
        observing = registry.enabled or tracer.enabled
        total = 0.0
        busy = 0.0
        fp32_bytes = 0
        count = 0
        timings: List[TileTiming] = []
        fill = 0.0
        fill_resource = "int4-acc"
        for tile in tiles:
            timing = self.tile_timing(tile)
            if observing:
                self._record_tile(registry, tracer, tile, timing, total, count)
            total += timing.cost
            busy += timing.fp32_busy
            fp32_bytes += timing.fp32_total_pages * self.config.flash.page_size
            count += 1
            if count == 1 and self.features.overlap:
                # Pipeline fill: the first tile's INT4 side cannot hide.
                fill = max(timing.int4_fetch, timing.int4_compute)
                if timing.int4_fetch > timing.int4_compute:
                    fill_resource = (
                        "dram" if self.features.heterogeneous else "flash"
                    )
            if keep_timings:
                timings.append(timing)
        if count == 0:
            raise SimulationError("simulate() needs at least one tile")
        tile_time_total = total
        host_time = (
            host_bytes_in / self.config.host_bandwidth
            + host_bytes_out / self.config.host_bandwidth
        )
        # One initial sense latency per run (steady-state streaming after).
        overhead = self.config.flash.read_latency + fill + host_time
        total += overhead
        if observing:
            tracer.add_span(
                "run_overhead",
                tile_time_total,
                total,
                track=PIPELINE_TRACK,
                attrs={
                    "sense_fill": self.config.flash.read_latency,
                    "pipeline_fill": fill,
                    "fill_resource": fill_resource,
                    "host_time": host_time,
                },
            )
            logger.info(
                "pipeline %s: %d tiles in %.6fs (steady %.6fs, overhead %.6fs)",
                self.features.label, count, total, tile_time_total, overhead,
            )
        return RunResult(
            features=self.features,
            total_time=total,
            tiles=count,
            channels=self.channels,
            fp32_bytes=fp32_bytes,
            fp32_busy=busy,
            host_time=host_time,
            tile_time_total=tile_time_total,
            overhead_time=overhead,
            tile_timings=timings,
        )
