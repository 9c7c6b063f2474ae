"""Query batching policy: the knob behind the roofline (§4.5, Fig. 1).

Each fetched candidate weight vector serves *every* query in the batch, so
batch size B sets the operational intensity (2B/4 FLOP per fetched byte):

* B too small — the FP32 MAC array idles; even the alignment-free design
  cannot hide compute under transfer, and per-query data movement is high
  (each batch re-fetches the hot candidates);
* B too large — compute becomes the bottleneck again (the roofline's
  corner is at B* where ``required GFLOPS == MAC peak``), and queuing
  latency grows since a batch must fill before it runs.

:class:`BatchingAnalyzer` computes per-batch latency, per-query throughput,
and the queue wait at a given arrival rate; :func:`optimal_batch` locates
the knee.  The batch-sweep ablation bench plots the curve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config import ECSSDConfig
from ..core.pipeline import PipelineFeatures, TilePipelineModel, TileWorkload
from ..errors import ConfigurationError
from ..obs.hooks import current

logger = logging.getLogger(__name__)
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.traces import CandidateTraceGenerator


@dataclass(frozen=True)
class BatchPoint:
    """Steady-state behaviour at one batch size."""

    batch: int
    batch_time: float
    queries_per_second: float
    compute_bound_fraction: float  # fraction of tiles limited by FP32 MACs
    queue_wait: float  # mean fill wait at the given arrival rate

    @property
    def mean_latency(self) -> float:
        """Queueing + processing latency one query observes."""
        return self.queue_wait + self.batch_time


class BatchingAnalyzer:
    """Sweeps batch size for a benchmark on the full-feature pipeline."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        generator: CandidateTraceGenerator,
        config: Optional[ECSSDConfig] = None,
        sample_tiles: int = 8,
    ) -> None:
        if sample_tiles <= 0:
            raise ConfigurationError("sample_tiles must be positive")
        self.spec = spec
        self.generator = generator
        self.config = config or ECSSDConfig()
        self.sample_tiles = sample_tiles
        self.pipeline = TilePipelineModel(
            config=self.config, features=PipelineFeatures.full()
        )

    def _tile_vectors(self) -> int:
        from ..core.accelerator import AcceleratorModel

        return AcceleratorModel(config=self.config.accelerator).tile_vectors_for(
            self.spec.shrunk_dim
        )

    def evaluate(self, batch: int, arrival_rate: float = 0.0) -> BatchPoint:
        """Timing at one batch size.

        ``arrival_rate`` (queries/s) sets the batch-fill wait: the first
        query of a batch waits for ``batch - 1`` more arrivals, a mean of
        ``(batch - 1) / (2 * rate)``; 0 means an always-full queue.
        """
        if batch <= 0:
            raise ConfigurationError("batch must be positive")
        if arrival_rate < 0:
            raise ConfigurationError("arrival_rate cannot be negative")
        tile_vectors = self._tile_vectors()
        int4_tile_bytes = tile_vectors * ((self.spec.shrunk_dim + 1) // 2)
        total_tiles = -(-self.spec.num_labels // tile_vectors)
        tiles: List[TileWorkload] = []
        compute_bound = 0
        for t in range(min(self.sample_tiles, total_tiles)):
            trace = self.generator.tile_trace(t, tile_vectors, num_queries=batch)
            union = np.unique(np.concatenate(trace.candidates))
            # Learned placement at calibrated quality: near-balanced pages.
            pages = self._balanced_pages(len(union))
            tiles.append(
                TileWorkload(
                    tile_vectors=tile_vectors,
                    shrunk_dim=self.spec.shrunk_dim,
                    hidden_dim=self.spec.hidden_dim,
                    batch=batch,
                    candidates=int(np.mean([len(c) for c in trace.candidates])),
                    fp32_pages_per_channel=pages,
                    int4_bytes=int4_tile_bytes,
                )
            )
        tracer = current().tracer
        with tracer.span(
            "batch_evaluate", batch=batch, benchmark=self.spec.name
        ) as span:
            result = self.pipeline.simulate(tiles)
            span.set_sim_window(0.0, result.total_time)
        for timing in (self.pipeline.tile_timing(t) for t in tiles):
            if timing.fp32_compute > timing.fp32_fetch:
                compute_bound += 1
        scale = total_tiles / len(tiles)
        batch_time = result.tile_time_total * scale + result.overhead_time
        wait = 0.0 if arrival_rate == 0 else (batch - 1) / (2.0 * arrival_rate)
        registry = current().registry
        if registry.enabled:
            registry.histogram(
                "ecssd_batch_time_seconds", "end-to-end batch latency by size"
            ).observe(batch_time, batch=batch)
        logger.debug(
            "batch %d on %s: %.6fs/batch, %.1f qps",
            batch, self.spec.name, batch_time, batch / batch_time,
        )
        return BatchPoint(
            batch=batch,
            batch_time=batch_time,
            queries_per_second=batch / batch_time,
            compute_bound_fraction=compute_bound / len(tiles),
            queue_wait=wait,
        )

    def _balanced_pages(self, union_size: int) -> np.ndarray:
        channels = self.config.flash.channels
        vector_bytes = 4 * self.spec.hidden_dim
        page_size = self.config.flash.page_size
        if vector_bytes >= page_size:
            pages_total = union_size * (-(-vector_bytes // page_size))
        else:
            per_page = page_size // vector_bytes
            pages_total = -(-union_size // per_page)
        base = pages_total // channels
        pages = np.full(channels, base, dtype=np.int64)
        pages[: pages_total % channels] += 1
        # Calibrated learned-interleaving balance (~0.91): the busiest
        # channel carries ~10% more than the mean.
        pages[0] = max(pages[0], int(round(pages.mean() / 0.91)))
        return pages

    def sweep(
        self, batches: Sequence[int], arrival_rate: float = 0.0
    ) -> List[BatchPoint]:
        return [self.evaluate(b, arrival_rate) for b in batches]


def optimal_batch(points: Sequence[BatchPoint]) -> BatchPoint:
    """Highest-throughput point; ties break toward smaller batches.

    Past the roofline corner throughput saturates while latency keeps
    climbing, so the smallest batch within 2% of peak is "optimal".
    """
    if not points:
        raise ConfigurationError("optimal_batch needs at least one point")
    peak = max(p.queries_per_second for p in points)
    near_peak = [p for p in points if p.queries_per_second >= 0.98 * peak]
    return min(near_peak, key=lambda p: p.batch)
