"""Tests for online re-interleaving (repro.layout.remapper)."""

import numpy as np
import pytest

from repro.config import ECSSDConfig
from repro.errors import WorkloadError
from repro.layout.learned import HotnessPredictor, LearnedInterleaving
from repro.layout.placement import build_placement
from repro.layout.remapper import (
    RemapPlan,
    VectorMove,
    diff_placements,
    remap_time,
)
from repro.layout.uniform import UniformInterleaving
from repro.workloads.drift import drifted_generator
from repro.workloads.traces import CandidateTraceGenerator, LabelHotnessModel

TILE = 512


def learned_placement(generator, tile_index=0):
    abs_sums = generator.predictor_abs_sums(tile_index, TILE, fidelity=0.9)
    predictor = HotnessPredictor(abs_sums)
    train = generator.tile_trace(tile_index, TILE, num_queries=200, seed=1)
    predictor.fine_tune(train.selection_frequency(), observations=200)
    return build_placement(
        LearnedInterleaving(predictor), TILE, 8, 4096, 4096, tile_vectors=TILE
    )


class TestDiff:
    def test_identical_placements_need_no_moves(self):
        pl = build_placement(UniformInterleaving(), TILE, 8, 4096, 4096)
        plan = diff_placements(pl, pl)
        assert plan.moves == []
        assert plan.moved_fraction == 0.0

    def test_diff_counts_changed_channels_only(self):
        old = build_placement(UniformInterleaving(), 16, 4, 4096, 4096)
        new_channels = old.channel_of.copy()
        new_channels[3] = (new_channels[3] + 1) % 4
        new = build_placement(UniformInterleaving(), 16, 4, 4096, 4096)
        new.channel_of = new_channels
        plan = diff_placements(old, new)
        assert len(plan.moves) == 1
        assert plan.moves[0].vector == 3

    def test_mismatched_placements_rejected(self):
        a = build_placement(UniformInterleaving(), 16, 4, 4096, 4096)
        b = build_placement(UniformInterleaving(), 32, 4, 4096, 4096)
        with pytest.raises(WorkloadError):
            diff_placements(a, b)
        c = build_placement(UniformInterleaving(), 16, 8, 4096, 4096)
        with pytest.raises(WorkloadError):
            diff_placements(a, c)

    def test_drift_retune_moves_a_minority(self):
        """Re-tuning after drift relocates part of the tile, not all of it."""
        base = LabelHotnessModel(num_labels=TILE, run_length=1, seed=3)
        old_gen = CandidateTraceGenerator(base, candidate_ratio=0.1, query_noise=0.05)
        new_gen = drifted_generator(base, drift=0.5)
        old = learned_placement(old_gen)
        new = learned_placement(new_gen)
        plan = diff_placements(old, new)
        assert 0.0 < plan.moved_fraction < 1.0


class TestRemapTime:
    def make_plan(self, moves):
        return RemapPlan(
            moves=[VectorMove(i, src, dst) for i, (src, dst) in enumerate(moves)],
            total_vectors=max(16, len(moves)),
        )

    def test_empty_plan_free(self):
        assert remap_time(RemapPlan(), vector_bytes=4096) == 0.0

    def test_program_dominates_reads(self):
        # One move: program (660 us / 8 dies) >> read (4 us).
        plan = self.make_plan([(0, 1)])
        time = remap_time(plan, vector_bytes=4096)
        config = ECSSDConfig()
        expected_program = config.flash.program_latency / config.flash.dies_per_channel
        assert time == pytest.approx(expected_program, rel=0.1)

    def test_busiest_channel_sets_makespan(self):
        concentrated = self.make_plan([(0, 1)] * 8)
        spread = self.make_plan([(i % 4, 4 + i % 4) for i in range(8)])
        assert remap_time(concentrated, 4096) > remap_time(spread, 4096)

    def test_scales_with_vector_size(self):
        plan = self.make_plan([(0, 1)] * 4)
        small = remap_time(plan, vector_bytes=4096)
        large = remap_time(plan, vector_bytes=16384)
        assert large == pytest.approx(4 * small, rel=0.01)

    def test_invalid_vector_bytes(self):
        with pytest.raises(WorkloadError):
            remap_time(RemapPlan(), vector_bytes=0)

    def test_per_channel_counters(self):
        plan = self.make_plan([(0, 1), (0, 2), (3, 1)])
        reads = plan.reads_per_channel(4)
        programs = plan.programs_per_channel(4)
        np.testing.assert_array_equal(reads, [2, 0, 0, 1])
        np.testing.assert_array_equal(programs, [0, 2, 1, 0])


class TestIncrementalRebalance:
    def setup_scores(self, seed=0, n=256):
        rng = np.random.default_rng(seed)
        return rng.lognormal(0, 1.0, size=n)

    def test_balances_a_skewed_placement(self):
        from repro.layout.remapper import incremental_rebalance

        scores = self.setup_scores()
        # Deliberately bad placement: everything on channel 0's half.
        pl = build_placement(UniformInterleaving(), 256, 8, 4096, 4096)
        # Perturb: put the 32 hottest vectors all on channel 0.
        hot = np.argsort(scores)[-32:]
        pl.channel_of[hot] = 0
        new_channels, plan = incremental_rebalance(pl, scores, tolerance=0.05)
        loads = np.array([scores[new_channels == c].sum() for c in range(8)])
        assert loads.max() <= loads.mean() * 1.10
        assert 0 < len(plan.moves) < 256

    def test_balanced_placement_needs_no_moves(self):
        from repro.layout.remapper import incremental_rebalance

        scores = np.ones(256)
        pl = build_placement(UniformInterleaving(), 256, 8, 4096, 4096)
        _, plan = incremental_rebalance(pl, scores, tolerance=0.05)
        assert plan.moves == []

    def test_max_moves_budget_respected(self):
        from repro.layout.remapper import incremental_rebalance

        scores = self.setup_scores(seed=1)
        pl = build_placement(UniformInterleaving(), 256, 8, 4096, 4096)
        pl.channel_of[np.argsort(scores)[-64:]] = 0
        _, plan = incremental_rebalance(pl, scores, max_moves=3)
        assert len(plan.moves) <= 3

    def test_validation(self):
        from repro.layout.remapper import incremental_rebalance

        pl = build_placement(UniformInterleaving(), 16, 4, 4096, 4096)
        with pytest.raises(WorkloadError):
            incremental_rebalance(pl, np.ones(8))
        with pytest.raises(WorkloadError):
            incremental_rebalance(pl, np.ones(16), tolerance=0)
