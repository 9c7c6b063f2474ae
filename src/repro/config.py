"""Configuration objects mirroring the paper's Table 2 and calibration notes.

Three dataclasses describe the modeled hardware:

* :class:`FlashConfig` — NAND geometry and timing (channel/package/die/plane/
  block/page hierarchy, NVDDR3-class latencies).
* :class:`AcceleratorConfig` — the inserted accelerator (Table 2 bottom half):
  MAC counts, buffer sizes, clock, technology node.
* :class:`ECSSDConfig` — the full device (Table 2 top half) plus the
  calibration constants called out in DESIGN.md §5.

Every config validates itself on construction so that a broken experiment
setup fails at build time, not deep inside a simulation run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigurationError
from .units import GiB, KiB, MiB, TiB, gbps, gflops, gops, us


@dataclass(frozen=True)
class FlashConfig:
    """NAND flash geometry and timing for one ECSSD.

    The default geometry follows Table 2: 8 channels, 4 KiB pages, 4 TB total
    capacity, NVDDR3 interface at 1 GB/s per channel.  The per-level fan-outs
    (packages/dies/planes/blocks/pages) are chosen so the hierarchy multiplies
    out to the advertised capacity and match common TLC-era parts.
    """

    channels: int = 8
    packages_per_channel: int = 4
    dies_per_package: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 4096
    pages_per_block: int = 2048
    page_size: int = 4 * KiB
    channel_bandwidth: float = gbps(1.0)
    # NVDDR3-class NAND timing.  tR is the array sense time for one page;
    # tPROG and tBERS are program and erase times.  The transfer of a sensed
    # page over the channel bus is modeled separately from tR.  With 8 dies
    # per channel, tR = 30 us keeps streaming reads bus-limited (30/8 < 4 us
    # page transfer), honoring Table 2's 1 GB/s-per-channel figure.
    read_latency: float = us(30.0)
    program_latency: float = us(660.0)
    erase_latency: float = us(3500.0)

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "packages_per_channel",
            "dies_per_package",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"FlashConfig.{name} must be positive")
        if not self.channel_bandwidth > 0:
            raise ConfigurationError("FlashConfig.channel_bandwidth must be positive")
        # The channel prices every die operation inline without re-checking
        # its duration, so a latency must be a positive finite number here.
        for name in ("read_latency", "program_latency", "erase_latency"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"FlashConfig.{name} must be positive and finite")

    @property
    def dies_per_channel(self) -> int:
        return self.packages_per_channel * self.dies_per_package

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def pages_per_die(self) -> int:
        return self.planes_per_die * self.pages_per_plane

    @property
    def pages_per_channel(self) -> int:
        return self.dies_per_channel * self.pages_per_die

    @property
    def total_pages(self) -> int:
        return self.channels * self.pages_per_channel

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    @property
    def internal_bandwidth(self) -> float:
        """Aggregate channel-level internal bandwidth (all channels busy)."""
        return self.channels * self.channel_bandwidth

    @property
    def page_transfer_time(self) -> float:
        """Bus time to move one page over a single channel."""
        return self.page_size / self.channel_bandwidth


@dataclass(frozen=True)
class AcceleratorConfig:
    """The inserted accelerator, per Table 2 (bottom) and Table 4.

    Peak throughputs follow §6.1: 256 INT4 MACs at 400 MHz give 200 GOPS (2
    ops per MAC-cycle), and 64 FP32 MACs give ~50 GFLOPS with the
    alignment-free circuit.  ``naive_fp32_throughput`` is the iso-area naive
    circuit's 29.2 GFLOPS quoted in §4.2 — it is what the "naive MAC" ablation
    steps of Fig. 8 use.
    """

    technology_nm: int = 28
    voltage: float = 0.9
    frequency_hz: float = 400e6
    fp32_macs: int = 64
    int4_macs: int = 256
    index_buffer: int = 4 * KiB
    int4_weight_buffer: int = 128 * KiB
    int4_input_buffer: int = 4 * KiB
    int4_output_buffer: int = 2 * KiB
    fp32_input_buffer: int = 100 * KiB
    fp32_weight_buffer: int = 400 * KiB
    fp32_output_buffer: int = 1 * KiB
    fp32_throughput: float = gflops(50.0)
    naive_fp32_throughput: float = gflops(29.2)
    int4_throughput: float = gops(200.0)

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0 or self.voltage <= 0:
            raise ConfigurationError("accelerator clock/voltage must be positive")
        if self.fp32_macs <= 0 or self.int4_macs <= 0:
            raise ConfigurationError("MAC counts must be positive")
        for name in ("fp32_throughput", "naive_fp32_throughput", "int4_throughput"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"AcceleratorConfig.{name} must be positive")


@dataclass(frozen=True)
class ECSSDConfig:
    """Full ECSSD device configuration (Table 2) plus calibration constants."""

    flash: FlashConfig = field(default_factory=FlashConfig)
    accelerator: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    dram_capacity: int = 16 * GiB
    dram_bandwidth: float = gbps(12.8)
    data_buffer: int = 4 * MiB
    host_bandwidth: float = gbps(3.2)  # PCIe 3.0 x4, effective
    # Embedded-processor FTL overhead per flash command (L2P lookup etc.).
    # Kept well under the 4 us page bus time so a fully pipelined channel
    # sustains close to its advertised 1 GB/s.
    ftl_command_overhead: float = us(0.5)
    # Area budget guideline from §3.3: one Cortex-R5 at 28 nm.
    area_budget_mm2: float = 0.21

    def __post_init__(self) -> None:
        if self.dram_capacity <= 0 or self.data_buffer <= 0:
            raise ConfigurationError("DRAM/data buffer capacities must be positive")
        for name in ("dram_bandwidth", "host_bandwidth"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"ECSSDConfig.{name} must be positive")
        if self.ftl_command_overhead < 0:
            raise ConfigurationError("FTL overhead cannot be negative")
        if self.area_budget_mm2 <= 0:
            raise ConfigurationError("area budget must be positive")

    @property
    def capacity_bytes(self) -> int:
        return self.flash.capacity_bytes

    def with_channels(self, channels: int) -> "ECSSDConfig":
        """A copy of this config with a different channel count."""
        return replace(self, flash=replace(self.flash, channels=channels))


@dataclass(frozen=True)
class ObservabilityConfig:
    """Telemetry wiring for one process: its output paths.

    Passed to :func:`repro.obs.configure`, which turns both recorders on
    (constructing this object at all is the opt-in); the output paths are
    optional — a ``None`` path means that exporter never writes a file.
    """

    trace_out: Optional[str] = None  # Chrome trace-event JSON (Perfetto)
    metrics_out: Optional[str] = None  # Prometheus text exposition
    # Streaming telemetry (repro.obs.streaming): when jsonl_stream_out is
    # set, finished spans bypass the in-memory list and stream to this JSONL
    # file, so the span export (trace_out) would be empty.
    jsonl_stream_out: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("trace_out", "metrics_out", "jsonl_stream_out"):
            value = getattr(self, name)
            if value is not None and not str(value):
                raise ConfigurationError(f"ObservabilityConfig.{name} is empty")
        if self.jsonl_stream_out is not None and self.trace_out:
            raise ConfigurationError(
                "jsonl_stream_out (--jsonl-stream-out) cannot be combined "
                "with trace_out (--trace-out): streamed spans bypass the "
                "in-memory tracer that trace_out exports"
            )


def default_config() -> ECSSDConfig:
    """The paper's Table 2 configuration: 4 TB, 8 channels, 16 GiB DRAM."""
    return ECSSDConfig()


def validate_table2(config: ECSSDConfig) -> None:
    """Assert the default geometry multiplies out to Table 2's capacity.

    Raises :class:`ConfigurationError` when the hierarchy does not produce a
    4 TB-class device (between 3.5 and 4.5 TiB) with 8 channels and 4 KiB
    pages — used as a self-check by the Table 2 experiment.
    """
    if config.flash.channels != 8:
        raise ConfigurationError("Table 2 requires 8 flash channels")
    if config.flash.page_size != 4 * KiB:
        raise ConfigurationError("Table 2 requires 4 KiB pages")
    capacity = config.capacity_bytes
    if not (3.5 * TiB <= capacity <= 4.5 * TiB):
        raise ConfigurationError(
            f"geometry yields {capacity} bytes; expected a 4 TB-class device"
        )
