"""The assembled ECSSD device: deployment + inference, functional and at scale.

Two usage modes mirror how the experiments need the device:

* **Functional** (:meth:`ECSSDevice.deploy_model` /
  :meth:`ECSSDevice.run_inference`) — a materialized weight matrix is
  screened for real: the approximate screening model produces actual
  candidates and predictions, the layout engine places actual vectors, and
  the pipeline times the actual per-channel page loads.  Used by examples,
  correctness tests, and the small Table 3 benchmarks.
* **Trace-driven** (:meth:`ECSSDevice.deploy_spec` /
  :meth:`ECSSDevice.run_trace`) — for the 10M-100M-label benchmarks the
  device consumes statistically-generated candidate traces tile by tile and
  scales sampled-tile timing to the full label space.

Both paths share the same placement, layout, and pipeline machinery, so a
feature flag changes *timing*, never *predictions*.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..config import ECSSDConfig
from ..errors import ConfigurationError
from ..obs.hooks import current
from ..obs.tracing import FAULT_TRACK
from ..layout.heterogeneous import WeightLayout, heterogeneous_layout, homogeneous_layout
from ..layout.learned import HotnessPredictor, LearnedInterleaving, empirical_frequencies
from ..layout.placement import InterleavingStrategy, WeightPlacement, build_placement
from ..layout.sequential import SequentialStoring
from ..layout.uniform import UniformInterleaving
from ..screening.model import ApproximateScreeningModel
from ..workloads.benchmarks import BenchmarkSpec
from ..workloads.traces import CandidateTraceGenerator
from .accelerator import AcceleratorModel
from .pipeline import PipelineFeatures, RunResult, TilePipelineModel, TileWorkload

logger = logging.getLogger(__name__)

# L2P table + management data resident in DRAM (reserved from the 4-bit share).
_DRAM_RESERVED = 256 * 1024 * 1024


class _PinnedChannel(InterleavingStrategy):
    """All vectors on one channel (sequential storing seen from one tile)."""

    name = "sequential"

    def __init__(self, channel: int) -> None:
        self.channel = channel

    def assign_channels(
        self, num_vectors: int, num_channels: int, tile_vectors: int
    ) -> np.ndarray:
        return np.full(num_vectors, self.channel, dtype=np.int64)


@dataclass
class DeploymentInfo:
    """What a deployment placed where."""

    num_labels: int
    hidden_dim: int
    shrunk_dim: int
    tile_vectors: int
    layout: WeightLayout
    placement: Optional[WeightPlacement]
    strategy_name: str

    @property
    def num_tiles(self) -> int:
        return -(-self.num_labels // self.tile_vectors)


@dataclass
class PerformanceReport:
    """Timing outcome of one inference run."""

    run: RunResult
    queries: int
    scaled_total_time: float
    sampled_tiles: int
    total_tiles: int
    label: str = ""

    @property
    def time_per_query(self) -> float:
        if self.queries <= 0:
            return float("nan")
        return self.scaled_total_time / self.queries

    @property
    def fp32_channel_utilization(self) -> float:
        return self.run.fp32_channel_utilization


def make_strategy(
    name: str, predictor: Optional[HotnessPredictor] = None
) -> InterleavingStrategy:
    """Factory for the §5 strategies by name."""
    if name == "sequential":
        return SequentialStoring()
    if name == "uniform":
        return UniformInterleaving()
    if name == "learned":
        if predictor is None:
            raise ConfigurationError("learned interleaving needs a HotnessPredictor")
        return LearnedInterleaving(predictor)
    raise ConfigurationError(f"unknown interleaving strategy {name!r}")


class ECSSDevice:
    """One ECSSD with a chosen feature set and interleaving strategy."""

    def __init__(
        self,
        config: Optional[ECSSDConfig] = None,
        features: PipelineFeatures = PipelineFeatures.full(),
        interleaving: str = "learned",
    ) -> None:
        self.config = config or ECSSDConfig()
        self.features = features
        self.interleaving = interleaving
        self.accelerator = AcceleratorModel(
            config=self.config.accelerator, fp32_design=features.mac_design
        )
        self.pipeline = TilePipelineModel(
            config=self.config, accelerator=self.accelerator, features=features
        )
        self.model: Optional[ApproximateScreeningModel] = None
        self.deployment: Optional[DeploymentInfo] = None
        self._spec: Optional[BenchmarkSpec] = None

    # --- deployment ------------------------------------------------------------------
    def deploy_model(
        self,
        weights: np.ndarray,
        train_features: Optional[np.ndarray] = None,
        target_ratio: float = 0.10,
        seed: int = 0,
    ) -> DeploymentInfo:
        """Deploy a materialized weight matrix (functional mode).

        Builds the screening model, calibrates the threshold on
        ``train_features`` (when given), constructs the hotness predictor
        from the INT4 codes, fine-tunes it on the training candidates, and
        places the FP32 matrix across channels with the device's strategy.
        """
        weights = np.asarray(weights, dtype=np.float32)
        self.model = ApproximateScreeningModel(weights, seed=seed)
        predictor = HotnessPredictor.from_quantized(self.model.quantized)
        if train_features is not None:
            self.model.calibrate(train_features, target_ratio=target_ratio)
            train_stats = self.model.infer(train_features)
            frequencies = empirical_frequencies(
                train_stats.screen.candidates, self.model.num_labels
            )
            predictor.fine_tune(frequencies, observations=len(train_features))
        strategy = make_strategy(self.interleaving, predictor)
        tile_vectors = self.accelerator.tile_vectors_for(self.model.shrunk_dim)
        placement = build_placement(
            strategy,
            num_vectors=self.model.num_labels,
            num_channels=self.config.flash.channels,
            vector_bytes=4 * self.model.hidden_dim,
            page_size=self.config.flash.page_size,
            tile_vectors=tile_vectors,
        )
        layout = self._build_layout(
            int4_bytes=self.model.quantized.nbytes_packed,
            fp32_bytes=4 * self.model.num_labels * self.model.hidden_dim,
        )
        self.deployment = DeploymentInfo(
            num_labels=self.model.num_labels,
            hidden_dim=self.model.hidden_dim,
            shrunk_dim=self.model.shrunk_dim,
            tile_vectors=tile_vectors,
            layout=layout,
            placement=placement,
            strategy_name=strategy.name,
        )
        return self.deployment

    def deploy_spec(self, spec: BenchmarkSpec) -> DeploymentInfo:
        """Deploy a Table 3 benchmark by geometry only (trace mode)."""
        self._spec = spec
        tile_vectors = self.accelerator.tile_vectors_for(spec.shrunk_dim)
        layout = self._build_layout(
            int4_bytes=spec.int4_matrix_bytes, fp32_bytes=spec.fp32_matrix_bytes
        )
        self.deployment = DeploymentInfo(
            num_labels=spec.num_labels,
            hidden_dim=spec.hidden_dim,
            shrunk_dim=spec.shrunk_dim,
            tile_vectors=tile_vectors,
            layout=layout,
            placement=None,
            strategy_name=self.interleaving,
        )
        return self.deployment

    def _build_layout(self, int4_bytes: int, fp32_bytes: int) -> WeightLayout:
        if fp32_bytes > self.config.capacity_bytes:
            raise ConfigurationError(
                f"FP32 matrix ({fp32_bytes} B) exceeds flash capacity"
            )
        if self.features.heterogeneous:
            layout = heterogeneous_layout(int4_bytes, fp32_bytes)
            layout.check_dram_capacity(
                self.config.dram_capacity, reserved=_DRAM_RESERVED
            )
        else:
            layout = homogeneous_layout(int4_bytes, fp32_bytes)
        return layout

    # --- functional inference ---------------------------------------------------------
    def run_inference(
        self, features: np.ndarray, top_k: int = 5
    ) -> tuple:
        """(predictions, PerformanceReport) for a real feature batch."""
        if self.model is None or self.deployment is None:
            raise ConfigurationError("deploy_model() must run before inference")
        placement = self.deployment.placement
        assert placement is not None
        features = np.atleast_2d(np.asarray(features, dtype=np.float32))
        hooks = current()
        tracer = hooks.tracer
        with tracer.span(
            "run_inference", queries=features.shape[0], label=self.features.label
        ) as span:
            stats = self.model.infer(features, top_k=top_k)
            injector = hooks.injector
            fault_surcharge = 0.0
            if injector.enabled:
                stats = self._apply_weight_faults(
                    injector, stats, features, top_k, tracer
                )
            batch = features.shape[0]
            tiles = self._tiles_from_candidates(
                stats.screen.candidates, placement, batch
            )
            host_in = batch * (
                4 * self.deployment.hidden_dim
                + (self.deployment.shrunk_dim + 1) // 2
            )
            host_out = batch * top_k * 8
            run = self.pipeline.simulate(
                tiles, host_bytes_in=host_in, host_bytes_out=host_out
            )
            if injector.enabled:
                # Every fetched page pays the expected ECC-ladder latency.
                total_pages = sum(
                    int(np.sum(t.fp32_pages_per_channel))
                    + int(np.sum(t.int4_pages_per_channel))
                    for t in tiles
                )
                fault_surcharge = injector.page_read_surcharge() * total_pages
            span.set_sim_window(0.0, run.total_time + fault_surcharge)
            span.set_attr("tiles", run.tiles)
        registry = hooks.registry
        if registry.enabled:
            registry.counter(
                "ecssd_inference_runs_total", "inference passes executed"
            ).inc(mode="functional")
            registry.counter(
                "ecssd_inference_queries_total", "queries served"
            ).inc(batch, mode="functional")
        logger.info(
            "run_inference: %d queries, %d tiles, %.6fs simulated",
            batch, run.tiles, run.total_time,
        )
        report = PerformanceReport(
            run=run,
            queries=batch,
            scaled_total_time=run.total_time + fault_surcharge,
            sampled_tiles=run.tiles,
            total_tiles=self.deployment.num_tiles,
            label=self.features.label,
        )
        return stats, report

    def _apply_weight_faults(self, injector, stats, features, top_k, tracer):
        """Drop candidates whose weights are unreadable or corrupted.

        Uncorrectable FP32 weight pages and DRAM-flipped screener rows both
        make a label unusable: it is removed from every query's candidate
        set and the surviving candidates are re-ranked, so the accuracy
        cost of device faults is visible in the predictions (the classifier
        pads short queries with label -1 / score -inf).
        """
        assert self.model is not None
        bad = np.union1d(
            injector.unreadable_labels(self.model.num_labels),
            injector.flipped_labels(self.model.num_labels),
        )
        if bad.size == 0:
            return stats
        surviving = [
            np.setdiff1d(np.asarray(c, dtype=np.int64), bad)
            for c in stats.screen.candidates
        ]
        result = self.model.classifier.classify(features, surviving, top_k=top_k)
        screen = replace(stats.screen, candidates=surviving)
        stats = replace(
            stats,
            result=result,
            screen=screen,
            candidate_ratio=screen.candidate_ratio(),
        )
        if tracer.enabled:
            tracer.instant(
                "weight_faults",
                track=FAULT_TRACK,
                attrs={"labels_dropped": int(bad.size)},
            )
        registry = current().registry
        if registry.enabled:
            registry.counter(
                "fault_labels_dropped_total",
                "labels dropped from candidate sets by device faults",
            ).inc(int(bad.size))
        return stats

    def _tiles_from_candidates(
        self,
        candidates_per_query: Sequence[np.ndarray],
        placement: WeightPlacement,
        batch: int,
    ) -> List[TileWorkload]:
        """Split global candidate sets into per-tile workloads.

        The batch's candidate union drives data movement (a vector fetched
        once serves every query in the batch); compute scales with the
        per-query candidate total.
        """
        assert self.deployment is not None
        tile_vectors = self.deployment.tile_vectors
        num_labels = self.deployment.num_labels
        flat = np.concatenate(candidates_per_query)
        in_union = np.zeros(num_labels, dtype=bool)
        in_union[flat] = True
        union = np.flatnonzero(in_union)
        per_query_total = flat.size
        starts = range(0, num_labels, tile_vectors)
        # The union is sorted, so each tile's members are one slice of it.
        cuts = union.searchsorted(starts).tolist()
        cuts.append(union.size)
        tiles: List[TileWorkload] = []
        int4_tile_bytes = tile_vectors * ((self.deployment.shrunk_dim + 1) // 2)
        for tile, start in enumerate(starts):
            stop = min(start + tile_vectors, num_labels)
            members = union[cuts[tile]:cuts[tile + 1]]
            pages = placement.pages_per_channel(members)
            # Per-tile compute share proportional to this tile's candidates.
            share = len(members) / max(1, len(union))
            tiles.append(
                TileWorkload(
                    tile_vectors=stop - start,
                    shrunk_dim=self.deployment.shrunk_dim,
                    hidden_dim=self.deployment.hidden_dim,
                    batch=batch,
                    candidates=int(round(per_query_total * share / batch)),
                    fp32_pages_per_channel=pages,
                    int4_pages_per_channel=self._int4_pages(int4_tile_bytes, tile),
                    int4_bytes=int4_tile_bytes,
                )
            )
        return tiles

    def _int4_pages(self, int4_tile_bytes: int, tile_index: int) -> np.ndarray:
        """Per-channel INT4 page load for homogeneous layouts.

        Sequential storing puts the tile's INT4 slice on one channel;
        interleaved layouts spread it evenly.
        """
        channels = self.config.flash.channels
        pages = -(-int4_tile_bytes // self.config.flash.page_size)
        out = np.zeros(channels, dtype=np.int64)
        if self.features.heterogeneous:
            return out
        if self.interleaving == "sequential":
            out[tile_index % channels] = pages
        else:
            out[:] = pages // channels
            out[: pages % channels] += 1
        return out

    # --- trace-driven inference -----------------------------------------------------------
    def run_trace(
        self,
        generator: CandidateTraceGenerator,
        queries: int,
        sample_tiles: int = 16,
        train_queries: int = 200,
        predictor_fidelity: float = 0.9,
        seed: int = 0,
    ) -> PerformanceReport:
        """Timing at Table 3 scale from statistically generated candidates.

        ``sample_tiles`` tiles are simulated (placement built per tile from
        the trace generator's predictor signal, fine-tuned on a training
        trace) and the run time scales to the benchmark's full tile count.
        """
        if self._spec is None or self.deployment is None:
            raise ConfigurationError("deploy_spec() must run before run_trace")
        deployment = self.deployment
        tile_vectors = deployment.tile_vectors
        total_tiles = deployment.num_tiles
        sample_tiles = min(sample_tiles, total_tiles)
        batch = self._spec.batch_size
        int4_tile_bytes = tile_vectors * ((deployment.shrunk_dim + 1) // 2)
        tiles: List[TileWorkload] = []
        for t in range(sample_tiles):
            trace = generator.tile_trace(t, tile_vectors, num_queries=batch, seed=seed)
            placement = self._tile_placement(
                generator, t, tile_vectors, train_queries, predictor_fidelity
            )
            union = np.unique(np.concatenate(trace.candidates))
            pages = placement.pages_per_channel(union)
            per_query = int(np.mean([len(c) for c in trace.candidates]))
            tiles.append(
                TileWorkload(
                    tile_vectors=tile_vectors,
                    shrunk_dim=deployment.shrunk_dim,
                    hidden_dim=deployment.hidden_dim,
                    batch=batch,
                    candidates=per_query,
                    fp32_pages_per_channel=pages,
                    int4_pages_per_channel=self._int4_pages(int4_tile_bytes, t),
                    int4_bytes=int4_tile_bytes,
                )
            )
        host_in = queries * (
            4 * deployment.hidden_dim + (deployment.shrunk_dim + 1) // 2
        )
        hooks = current()
        tracer = hooks.tracer
        with tracer.span(
            "run_trace",
            queries=queries,
            sample_tiles=sample_tiles,
            label=self.features.label,
        ) as span:
            run = self.pipeline.simulate(tiles, host_bytes_in=0, host_bytes_out=0)
            span.set_sim_window(0.0, run.total_time)
        registry = hooks.registry
        if registry.enabled:
            registry.counter(
                "ecssd_inference_runs_total", "inference passes executed"
            ).inc(mode="trace")
            registry.counter(
                "ecssd_inference_queries_total", "queries served"
            ).inc(queries, mode="trace")
        # Scale steady-state tile time to the full label space and query
        # count; one-time overheads (sense fill, host upload) are paid once.
        batches = -(-queries // batch)
        scale = (total_tiles / sample_tiles) * batches
        scaled = (
            run.tile_time_total * scale
            + run.overhead_time
            + host_in / self.config.host_bandwidth
        )
        logger.info(
            "run_trace: %d queries over %d/%d tiles, %.6fs scaled",
            queries, sample_tiles, total_tiles, scaled,
        )
        return PerformanceReport(
            run=run,
            queries=queries,
            scaled_total_time=scaled,
            sampled_tiles=sample_tiles,
            total_tiles=total_tiles,
            label=self.features.label,
        )

    def _tile_placement(
        self,
        generator: CandidateTraceGenerator,
        tile_index: int,
        tile_vectors: int,
        train_queries: int,
        fidelity: float,
    ) -> WeightPlacement:
        assert self.deployment is not None
        if self.interleaving == "sequential":
            # A tile is far smaller than one channel's contiguous slab, so
            # sequential storing pins the whole tile to the slab's channel.
            channels = self.config.flash.channels
            slab = -(-self.deployment.num_labels // channels)
            channel = min(tile_index * tile_vectors // slab, channels - 1)
            return build_placement(
                _PinnedChannel(channel),
                num_vectors=tile_vectors,
                num_channels=channels,
                vector_bytes=4 * self.deployment.hidden_dim,
                page_size=self.config.flash.page_size,
                tile_vectors=tile_vectors,
            )
        predictor = None
        if self.interleaving == "learned":
            abs_sums = generator.predictor_abs_sums(
                tile_index, tile_vectors, fidelity=fidelity
            )
            predictor = HotnessPredictor(abs_sums)
            if train_queries > 0:
                train = generator.tile_trace(
                    tile_index, tile_vectors, num_queries=train_queries, seed=1
                )
                predictor.fine_tune(
                    train.selection_frequency(), observations=train_queries
                )
        strategy = make_strategy(self.interleaving, predictor)
        return build_placement(
            strategy,
            num_vectors=tile_vectors,
            num_channels=self.config.flash.channels,
            vector_bytes=4 * self.deployment.hidden_dim,
            page_size=self.config.flash.page_size,
            tile_vectors=tile_vectors,
        )
