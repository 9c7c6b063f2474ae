"""Weight deployment timing: the §4.5 data-preparation period.

Before inference starts, the host must (a) pre-align the FP32 matrix into
CFP32 (an offline pass the paper performs once), (b) push the 4-bit matrix
over PCIe into the device DRAM, and (c) push the CFP32 matrix over PCIe and
program it into flash at the channel addresses the interleaving framework
chose.  For S100M that is a 400 GB ingest, so deployment time matters when
models are updated.

Programming throughput is die-limited: each die programs one 4 KiB page per
``tPROG`` (660 us), so a channel's program bandwidth is
``dies_per_channel * page_size / tPROG`` (~49 MB/s with Table 2 timing) and
the device-wide limit is 8x that — far below the PCIe link, which is why
deployment is program-bound and why the paper performs it offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import ECSSDConfig
from ..errors import ConfigurationError
from ..workloads.benchmarks import BenchmarkSpec

# Host-side pre-alignment throughput.  §4.2 measures 0.005 ms for a 1x1024
# vector on an RTX 3090 -> ~0.82 GB/s of FP32 data; CPU hosts are slower but
# the pass is embarrassingly parallel, so we model the GPU figure.
PREALIGN_BYTES_PER_SECOND = 1024 * 4 / 5e-6


@dataclass
class DeploymentTiming:
    """Breakdown of one full weight deployment."""

    prealign_time: float
    int4_transfer_time: float
    fp32_transfer_time: float
    program_time: float
    l2p_setup_time: float

    @property
    def total_time(self) -> float:
        """End-to-end deployment latency.

        Host transfer and flash programming pipeline against each other
        (the buffer decouples them), so the flash phase costs
        ``max(transfer, program)``; pre-alignment is an offline pass that
        precedes the ingest.
        """
        return (
            self.prealign_time
            + self.int4_transfer_time
            + max(self.fp32_transfer_time, self.program_time)
            + self.l2p_setup_time
        )

    @property
    def bottleneck(self) -> str:
        phases = {
            "prealign": self.prealign_time,
            "int4_transfer": self.int4_transfer_time,
            "fp32_transfer": self.fp32_transfer_time,
            "program": self.program_time,
            "l2p_setup": self.l2p_setup_time,
        }
        return max(phases, key=phases.get)


class DeploymentModel:
    """Times the data-preparation period for a benchmark on a device."""

    def __init__(self, config: Optional[ECSSDConfig] = None) -> None:
        self.config = config or ECSSDConfig()

    @property
    def program_bandwidth(self) -> float:
        """Device-wide flash programming bandwidth (bytes/s), die-limited."""
        flash = self.config.flash
        per_die = flash.page_size / flash.program_latency
        return per_die * flash.dies_per_channel * flash.channels

    def deploy(self, spec: BenchmarkSpec) -> DeploymentTiming:
        """Time a full deployment of ``spec``'s weight matrices."""
        fp32_bytes = spec.fp32_matrix_bytes
        int4_bytes = spec.int4_matrix_bytes
        if fp32_bytes > self.config.capacity_bytes:
            raise ConfigurationError("FP32 matrix exceeds flash capacity")
        host_bw = self.config.host_bandwidth
        prealign = fp32_bytes / PREALIGN_BYTES_PER_SECOND
        int4_transfer = int4_bytes / min(host_bw, self.config.dram_bandwidth)
        fp32_transfer = fp32_bytes / host_bw
        program = fp32_bytes / self.program_bandwidth
        # L2P entries: one 8-byte mapping per page, written to DRAM.
        pages = -(-fp32_bytes // self.config.flash.page_size)
        l2p = 8 * pages / self.config.dram_bandwidth
        return DeploymentTiming(
            prealign_time=prealign,
            int4_transfer_time=int4_transfer,
            fp32_transfer_time=fp32_transfer,
            program_time=program,
            l2p_setup_time=l2p,
        )

    def amortization_queries(
        self, spec: BenchmarkSpec, time_per_query: float, overhead: float = 0.01
    ) -> float:
        """Queries after which deployment is <= ``overhead`` of total time.

        Solves ``deploy <= overhead * N * time_per_query`` for N — the
        break-even that tells an operator how long a model must serve
        before its 400 GB ingest stops mattering.
        """
        if time_per_query <= 0:
            raise ConfigurationError("time_per_query must be positive")
        if not (0 < overhead < 1):
            raise ConfigurationError("overhead must be in (0, 1)")
        return self.deploy(spec).total_time / (overhead * time_per_query)
