"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each sweeps one design axis with
everything else fixed, quantifying *why* the headline results look the way
they do.

* :func:`interleaving_variants` — sequential / uniform / graded (the literal
  three-grade Fig. 7 scheme) / learned-LPT channel balance on the same tiles;
* :func:`predictor_fidelity_sweep` — how good must the |INT4|-sum predictor
  be before learned interleaving pays off;
* :func:`training_queries_sweep` — how much fine-tuning data the framework
  needs (§5.3's "frequency on the training dataset");
* :func:`channel_count_sweep` — device scaling: 2..16 flash channels;
* :func:`drift_study` — balance decay of a stale placement as query hotness
  drifts, and what re-tuning recovers;
* :func:`remap_cost_study` — what that re-tuning costs in moved vectors and
  remap time, full re-placement vs incremental rebalancing;
* :func:`scheduler_study` — FIFO vs die-round-robin channel scheduling (the
  measured component of the interference penalty);
* :func:`energy_study` — per-query energy for ECSSD vs every baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import (
    CPU_AP,
    CPU_N,
    GENSTORE_AP,
    GENSTORE_N,
    SMARTSSD_AP,
    SMARTSSD_H_AP,
    SMARTSSD_H_N,
    SMARTSSD_N,
)
from ..config import ECSSDConfig
from ..core.pipeline import PipelineFeatures
from ..layout.graded import GradedInterleaving
from ..layout.learned import HotnessPredictor, LearnedInterleaving
from ..layout.placement import WeightPlacement, build_placement
from ..layout.remapper import diff_placements, incremental_rebalance, remap_time
from ..layout.uniform import UniformInterleaving
from ..ssd.controller import CommandKind, FlashCommand, FlashController
from ..ssd.channel import Channel
from ..ssd.geometry import FlashGeometry, PhysicalAddress
from ..ssd.scheduler import compare_policies
from ..workloads.benchmarks import get_benchmark
from ..workloads.drift import drifted_generator, placement_balance_under_drift
from ..workloads.traces import CandidateTraceGenerator, LabelHotnessModel
from .energy import EnergyPoint, baseline_energy, ecssd_energy
from .experiments import TRACE_PARAMS, _run_device
from .metrics import weighted_utilization

CHANNELS_DEFAULT = 8
TILE_DEFAULT = 1024


def _tile_setup(
    tile_vectors: int = TILE_DEFAULT,
    tiles: int = 8,
    seed: int = 3,
    candidate_ratio: float = 0.10,
):
    hotness = LabelHotnessModel(
        num_labels=tile_vectors * tiles,
        zipf_exponent=TRACE_PARAMS["zipf_exponent"],
        run_length=int(TRACE_PARAMS["run_length"]),
        seed=seed,
    )
    return CandidateTraceGenerator(
        hotness,
        candidate_ratio=candidate_ratio,
        query_noise=TRACE_PARAMS["query_noise"],
    )


def _tile_predictor(
    generator: CandidateTraceGenerator,
    tile_index: int,
    tile_vectors: int,
    fidelity: float = TRACE_PARAMS["predictor_fidelity"],
    train_queries: int = int(TRACE_PARAMS["train_queries"]),
) -> HotnessPredictor:
    abs_sums = generator.predictor_abs_sums(tile_index, tile_vectors, fidelity=fidelity)
    predictor = HotnessPredictor(abs_sums)
    if train_queries > 0:
        train = generator.tile_trace(
            tile_index, tile_vectors, num_queries=train_queries, seed=1
        )
        predictor.fine_tune(train.selection_frequency(), observations=train_queries)
    return predictor


def _learned_placement(
    predictor: HotnessPredictor,
    tile_vectors: int,
    channels: int,
    vector_bytes: int = 4096,
) -> WeightPlacement:
    """One tile laid out by learned (LPT) interleaving on 4 KiB pages."""
    return build_placement(
        LearnedInterleaving(predictor), tile_vectors, channels,
        vector_bytes, 4096, tile_vectors=tile_vectors,
    )


def _tile_candidates(generator, tile_index: int, tile_vectors: int) -> list:
    """The 16-query, seed-7 candidate sets every balance below is scored on."""
    trace = generator.tile_trace(tile_index, tile_vectors, num_queries=16, seed=7)
    return trace.candidates


def _page_counts(placement: WeightPlacement, generator, tile_index: int,
                 tile_vectors: int) -> list:
    return [
        placement.pages_per_channel(candidates)
        for candidates in _tile_candidates(generator, tile_index, tile_vectors)
    ]


# --- interleaving variants ------------------------------------------------------


@dataclass
class VariantResult:
    strategy: str
    balance: float  # time-weighted channel utilization bound


def interleaving_variants(
    tiles: int = 8,
    tile_vectors: int = TILE_DEFAULT,
    channels: int = CHANNELS_DEFAULT,
) -> List[VariantResult]:
    """Channel balance of all four strategies on identical tiles."""
    generator = _tile_setup(tile_vectors=tile_vectors, tiles=tiles)
    series: Dict[str, list] = {
        s: [] for s in ("sequential", "uniform", "graded", "learned")
    }
    for t in range(tiles):
        # Sequential: the whole tile sits in one channel's slab.
        for candidates in _tile_candidates(generator, t, tile_vectors):
            counts = np.zeros(channels, dtype=np.int64)
            counts[0] = len(candidates)
            series["sequential"].append(counts)
        predictor = _tile_predictor(generator, t, tile_vectors)
        for name, strategy in (
            ("uniform", UniformInterleaving()),
            ("graded", GradedInterleaving(predictor)),
            ("learned", LearnedInterleaving(predictor)),
        ):
            placement = build_placement(
                strategy, tile_vectors, channels, 4096, 4096,
                tile_vectors=tile_vectors,
            )
            series[name] += _page_counts(placement, generator, t, tile_vectors)
    return [
        VariantResult(strategy=name, balance=weighted_utilization(counts))
        for name, counts in series.items()
    ]


# --- predictor fidelity sweep ----------------------------------------------------


@dataclass
class FidelityPoint:
    fidelity: float
    fine_tuned: bool
    balance: float


def predictor_fidelity_sweep(
    fidelities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
    tiles: int = 6,
    tile_vectors: int = TILE_DEFAULT,
    channels: int = CHANNELS_DEFAULT,
) -> List[FidelityPoint]:
    """Learned-interleaving balance vs predictor quality, +/- fine-tuning."""
    generator = _tile_setup(tile_vectors=tile_vectors, tiles=tiles)
    points: List[FidelityPoint] = []
    for fidelity in fidelities:
        for fine_tuned in (False, True):
            counts = []
            for t in range(tiles):
                predictor = _tile_predictor(
                    generator, t, tile_vectors, fidelity=fidelity,
                    train_queries=int(TRACE_PARAMS["train_queries"]) if fine_tuned else 0,
                )
                placement = _learned_placement(predictor, tile_vectors, channels)
                counts += _page_counts(placement, generator, t, tile_vectors)
            points.append(
                FidelityPoint(
                    fidelity=fidelity,
                    fine_tuned=fine_tuned,
                    balance=weighted_utilization(counts),
                )
            )
    return points


# --- training data sweep -----------------------------------------------------------


@dataclass
class TrainingPoint:
    train_queries: int
    balance: float


def training_queries_sweep(
    counts: Sequence[int] = (0, 4, 16, 64, 256, 1024),
    tiles: int = 6,
    tile_vectors: int = TILE_DEFAULT,
    channels: int = CHANNELS_DEFAULT,
    fidelity: float = 0.5,
) -> List[TrainingPoint]:
    """How much fine-tuning data the framework needs (weak prior on purpose)."""
    generator = _tile_setup(tile_vectors=tile_vectors, tiles=tiles)
    points: List[TrainingPoint] = []
    for count in counts:
        pages = []
        for t in range(tiles):
            predictor = _tile_predictor(
                generator, t, tile_vectors, fidelity=fidelity, train_queries=count
            )
            placement = _learned_placement(predictor, tile_vectors, channels)
            pages += _page_counts(placement, generator, t, tile_vectors)
        points.append(
            TrainingPoint(train_queries=count, balance=weighted_utilization(pages))
        )
    return points


# --- channel count sweep --------------------------------------------------------------


@dataclass
class ChannelPoint:
    channels: int
    time: float
    utilization: float


def channel_count_sweep(
    channel_counts: Sequence[int] = (2, 4, 8, 16),
    benchmark: str = "GNMT-E32K",
    queries: int = 16,
    sample_tiles: int = 6,
) -> List[ChannelPoint]:
    """End-to-end time vs flash channel count (device scaling)."""
    spec = get_benchmark(benchmark)
    points: List[ChannelPoint] = []
    for channels in channel_counts:
        config = ECSSDConfig().with_channels(channels)
        report = _run_device(
            spec, PipelineFeatures.full(), "learned",
            queries=queries, sample_tiles=sample_tiles, config=config,
        )
        points.append(
            ChannelPoint(
                channels=channels,
                time=report.scaled_total_time,
                utilization=report.fp32_channel_utilization,
            )
        )
    return points


# --- drift study ----------------------------------------------------------------------


@dataclass
class DriftPoint:
    drift: float
    stale_balance: float
    retuned_balance: float


def drift_study(
    drifts: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    tile_vectors: int = TILE_DEFAULT,
    channels: int = CHANNELS_DEFAULT,
) -> List[DriftPoint]:
    """Stale vs re-tuned placement balance as query hotness drifts."""
    base_generator = _tile_setup(tile_vectors=tile_vectors, tiles=4)
    base = base_generator.hotness
    points: List[DriftPoint] = []
    for drift in drifts:
        drifted = drifted_generator(base, drift)
        stale_scores: List[float] = []
        retuned_scores: List[float] = []
        for t in range(4):
            # Stale: placement tuned on the ORIGINAL distribution.
            stale_placement = _learned_placement(
                _tile_predictor(base_generator, t, tile_vectors),
                tile_vectors, channels,
            )
            stale_scores.append(
                placement_balance_under_drift(
                    stale_placement, base, drift, t, tile_vectors
                )
            )
            # Re-tuned: fine-tuned on the drifted distribution.
            retuned_placement = _learned_placement(
                _tile_predictor(drifted, t, tile_vectors),
                tile_vectors, channels,
            )
            retuned_scores.append(
                placement_balance_under_drift(
                    retuned_placement, base, drift, t, tile_vectors
                )
            )
        points.append(
            DriftPoint(
                drift=drift,
                stale_balance=float(np.mean(stale_scores)),
                retuned_balance=float(np.mean(retuned_scores)),
            )
        )
    return points


# --- remap cost study ------------------------------------------------------------------


@dataclass
class RemapCostPoint:
    drift: float
    full_moved_fraction: float
    full_remap_seconds: float
    incremental_moved_fraction: float
    incremental_remap_seconds: float
    incremental_balance: float


def remap_cost_study(
    drifts: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    tile_vectors: int = TILE_DEFAULT,
    channels: int = CHANNELS_DEFAULT,
    vector_bytes: int = 4096,
) -> List[RemapCostPoint]:
    """Cost of re-interleaving after drift: full re-tune vs incremental.

    Complements :func:`drift_study` (the *benefit* of re-tuning) with the
    cost: a full LPT re-layout relocates most of the tile because any score
    reordering cascades, while :func:`incremental_rebalance` fixes the
    imbalance by migrating only the few vectors needed — and achieves
    essentially the same channel balance.
    """
    base_generator = _tile_setup(tile_vectors=tile_vectors, tiles=1)

    def placement_from_channels(channel_of) -> WeightPlacement:
        slot = np.zeros(tile_vectors, dtype=np.int64)
        for c in range(channels):
            members = np.flatnonzero(channel_of == c)
            slot[members] = np.arange(len(members))
        return WeightPlacement(
            num_vectors=tile_vectors,
            num_channels=channels,
            vector_bytes=vector_bytes,
            page_size=4096,
            channel_of=channel_of,
            slot_of=slot,
            strategy_name="incremental",
        )

    stale = _learned_placement(
        _tile_predictor(base_generator, 0, tile_vectors),
        tile_vectors, channels, vector_bytes,
    )
    points: List[RemapCostPoint] = []
    for drift in drifts:
        drifted = drifted_generator(base_generator.hotness, drift)
        new_predictor = _tile_predictor(drifted, 0, tile_vectors)
        fresh = _learned_placement(new_predictor, tile_vectors, channels, vector_bytes)
        full_plan = diff_placements(stale, fresh)
        new_channels, inc_plan = incremental_rebalance(
            stale, new_predictor.scores, tolerance=0.05
        )
        inc_placement = placement_from_channels(new_channels)
        points.append(
            RemapCostPoint(
                drift=drift,
                full_moved_fraction=full_plan.moved_fraction,
                full_remap_seconds=remap_time(full_plan, vector_bytes),
                incremental_moved_fraction=inc_plan.moved_fraction,
                incremental_remap_seconds=remap_time(inc_plan, vector_bytes),
                incremental_balance=weighted_utilization(
                    _page_counts(inc_placement, drifted, 0, tile_vectors)
                ),
            )
        )
    return points


# --- scheduler study -----------------------------------------------------------------


@dataclass
class SchedulerResult:
    policy: str
    makespan: float


def scheduler_study(
    pages: int = 32, seed: int = 0, config: Optional[ECSSDConfig] = None
) -> List[SchedulerResult]:
    """FIFO vs die-round-robin makespan for a skewed random batch."""
    config = config or ECSSDConfig()
    flash = config.flash
    geometry = FlashGeometry(flash)
    rng = np.random.default_rng(seed)

    def make_controller() -> FlashController:
        return FlashController(
            Channel(0, flash), geometry, command_overhead=config.ftl_command_overhead
        )

    commands = []
    for _ in range(pages):
        # Skewed die distribution: half the traffic on two dies.
        if rng.random() < 0.5:
            package, die = int(rng.integers(0, 1)), int(rng.integers(0, 2))
        else:
            package = int(rng.integers(0, flash.packages_per_channel))
            die = int(rng.integers(0, flash.dies_per_package))
        commands.append(
            FlashCommand(
                CommandKind.READ,
                PhysicalAddress(0, package, die, 0, int(rng.integers(0, 4)),
                                int(rng.integers(0, flash.pages_per_block))),
            )
        )
    results = compare_policies(make_controller, commands)
    return [SchedulerResult(policy=k, makespan=v) for k, v in results.items()]


# --- energy study -----------------------------------------------------------------------


def energy_study(
    benchmark: str = "XMLCNN-S100M",
    queries: int = 8,
    sample_tiles: int = 8,
) -> List[EnergyPoint]:
    """Per-run energy for ECSSD and every Fig. 13 baseline."""
    spec = get_benchmark(benchmark)
    report = _run_device(
        spec, PipelineFeatures.full(), "learned",
        queries=queries, sample_tiles=sample_tiles,
    )
    points = [ecssd_energy(spec, report.scaled_total_time)]
    for model in (
        CPU_N, SMARTSSD_N, GENSTORE_N, SMARTSSD_H_N,
        CPU_AP, SMARTSSD_AP, GENSTORE_AP, SMARTSSD_H_AP,
    ):
        points.append(baseline_energy(model, spec, queries))
    return points
