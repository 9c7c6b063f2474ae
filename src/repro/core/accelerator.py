"""Compute-side model of the inserted accelerator (Fig. 4, Table 2 bottom).

The accelerator holds a 256-unit INT4 MAC array (200 GOPS), a 64-unit FP32
MAC array (50 GFLOPS alignment-free / 29.2 GFLOPS naive at iso-area), a
threshold comparator, and a scheduler.  This module converts tile workloads
into compute latencies; the Table 4 area/power numbers are
:class:`repro.cfp32.circuits.AcceleratorAreaModel`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import AcceleratorConfig
from ..cfp32.circuits import MacCircuitModel, MacDesign
from ..errors import ConfigurationError


@dataclass
class AcceleratorModel:
    """Latency model of the inserted accelerator."""

    config: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    fp32_design: MacDesign = MacDesign.ALIGNMENT_FREE

    @property
    def fp32_throughput(self) -> float:
        """Effective FP32 FLOP/s under the area budget for this design.

        The alignment-free design reaches the configured 50 GFLOPS; the
        naive design fits fewer MACs in the same silicon (§4.2's 29.2
        GFLOPS); the SK-Hynix design sits between (iso-area scaling of the
        circuit model's area ratio).
        """
        if self.fp32_design is MacDesign.ALIGNMENT_FREE:
            return self.config.fp32_throughput
        if self.fp32_design is MacDesign.NAIVE:
            return self.config.naive_fp32_throughput
        af = MacCircuitModel(MacDesign.ALIGNMENT_FREE).area_units
        skh = MacCircuitModel(MacDesign.SK_HYNIX).area_units
        return self.config.fp32_throughput * af / skh

    @property
    def int4_throughput(self) -> float:
        return self.config.int4_throughput

    # --- latencies --------------------------------------------------------------
    def int4_screen_time(self, tile_vectors: int, shrunk_dim: int, batch: int) -> float:
        """Time to screen one tile: batch x tile INT4 dot products.

        Includes the comparator pass (one compare per score), which is
        pipelined behind the MACs and adds one array-drain of slack.
        """
        self._check_positive(tile_vectors=tile_vectors, shrunk_dim=shrunk_dim, batch=batch)
        ops = 2.0 * batch * tile_vectors * shrunk_dim
        drain = self.config.int4_macs / self.config.frequency_hz
        return ops / self.int4_throughput + drain

    def fp32_classify_time(self, candidates: int, hidden_dim: int, batch: int) -> float:
        """Time to rank one tile's candidates in full precision."""
        self._check_positive(hidden_dim=hidden_dim, batch=batch)
        if candidates < 0:
            raise ConfigurationError("candidate count cannot be negative")
        if candidates == 0:
            return 0.0
        flops = 2.0 * batch * candidates * hidden_dim
        drain = self.config.fp32_macs / self.config.frequency_hz
        return flops / self.fp32_throughput + drain

    # --- tiling ------------------------------------------------------------------
    def tile_vectors_for(self, shrunk_dim: int) -> int:
        """Tile size set by the INT4 weight buffer (§4.5's weight tile).

        Packed INT4 vectors are ``shrunk_dim / 2`` bytes; the 128 KB weight
        buffer bounds how many fit one tile.
        """
        self._check_positive(shrunk_dim=shrunk_dim)
        bytes_per_vector = max(1, (shrunk_dim + 1) // 2)
        return max(1, self.config.int4_weight_buffer // bytes_per_vector)

    @staticmethod
    def _check_positive(**values: int) -> None:
        for name, value in values.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
