"""Tests for the three §5 interleaving strategies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.layout.learned import (
    HotGrade,
    HotnessPredictor,
    LearnedInterleaving,
    empirical_frequencies,
)
from repro.layout.sequential import SequentialStoring
from repro.layout.uniform import UniformInterleaving
from repro.screening.quantization import Int4Quantizer


class TestSequential:
    def test_contiguous_slabs(self):
        channels = SequentialStoring().assign_channels(16, 4, 16)
        np.testing.assert_array_equal(channels, [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4)

    def test_uneven_division_clamps(self):
        channels = SequentialStoring().assign_channels(10, 4, 10)
        assert channels.max() == 3
        assert (np.diff(channels) >= 0).all()

    def test_fewer_vectors_than_channels(self):
        channels = SequentialStoring().assign_channels(2, 8, 2)
        assert set(channels.tolist()) <= set(range(8))


class TestUniform:
    def test_round_robin(self):
        channels = UniformInterleaving().assign_channels(10, 4, 10)
        np.testing.assert_array_equal(channels, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1])

    def test_counts_nearly_equal(self):
        channels = UniformInterleaving().assign_channels(103, 8, 103)
        counts = np.bincount(channels, minlength=8)
        assert counts.max() - counts.min() <= 1


class TestHotnessPredictor:
    def test_scores_normalized(self):
        pred = HotnessPredictor(np.array([1.0, 3.0, 6.0]))
        assert pred.scores.sum() == pytest.approx(1.0)
        assert pred.scores[2] > pred.scores[0]

    def test_from_quantized(self):
        rng = np.random.default_rng(0)
        q = Int4Quantizer().quantize(rng.normal(size=(10, 8)).astype(np.float32))
        pred = HotnessPredictor.from_quantized(q)
        assert len(pred) == 10

    def test_all_zero_abs_sums(self):
        pred = HotnessPredictor(np.zeros(4))
        np.testing.assert_allclose(pred.scores, 0.25)

    def test_grades_partition(self):
        rng = np.random.default_rng(1)
        pred = HotnessPredictor(rng.random(100))
        grades = pred.grades()
        assert (grades == HotGrade.VERY_HOT).sum() == 10
        assert (grades == HotGrade.MEDIUM_HOT).sum() == 30
        assert (grades == HotGrade.NOT_HOT).sum() == 60

    def test_grades_follow_scores(self):
        pred = HotnessPredictor(np.array([1.0, 100.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]))
        grades = pred.grades()
        assert grades[1] == HotGrade.VERY_HOT

    def test_fine_tune_moves_toward_frequencies(self):
        pred = HotnessPredictor(np.ones(4))
        freq = np.array([1.0, 0.0, 0.0, 0.0])
        pred.fine_tune(freq, observations=10_000)
        assert pred.scores[0] > 0.9

    def test_fine_tune_with_few_observations_stays_near_prior(self):
        pred = HotnessPredictor(np.ones(4))
        before = pred.scores.copy()
        pred.fine_tune(np.array([1.0, 0.0, 0.0, 0.0]), observations=1)
        assert abs(pred.scores[0] - before[0]) < 0.1

    def test_fine_tune_validation(self):
        pred = HotnessPredictor(np.ones(4))
        with pytest.raises(WorkloadError):
            pred.fine_tune(np.ones(3), observations=10)
        with pytest.raises(WorkloadError):
            pred.fine_tune(np.full(4, 2.0), observations=10)
        with pytest.raises(WorkloadError):
            pred.fine_tune(np.ones(4), observations=-1)

    def test_construction_validation(self):
        with pytest.raises(WorkloadError):
            HotnessPredictor(np.ones((2, 2)))
        with pytest.raises(WorkloadError):
            HotnessPredictor(np.ones(4), very_hot_fraction=0.0)


class TestLearnedInterleaving:
    def test_balances_hot_mass_within_tile(self):
        scores = np.zeros(64)
        scores[:8] = 100.0  # eight very hot vectors
        pred = HotnessPredictor(scores + 1e-9)
        channels = LearnedInterleaving(pred).assign_channels(64, 8, 64)
        hot_channels = channels[:8]
        assert len(set(hot_channels.tolist())) == 8  # one hot vector per channel

    def test_tile_windows_balanced_independently(self):
        rng = np.random.default_rng(0)
        scores = rng.random(64)
        pred = HotnessPredictor(scores)
        channels = LearnedInterleaving(pred).assign_channels(64, 4, 16)
        for start in range(0, 64, 16):
            window = slice(start, start + 16)
            counts = np.bincount(channels[window], minlength=4)
            assert counts.min() >= 1  # every channel participates per tile
            # Predicted mass is what LPT balances: near-equal per channel.
            mass = np.array(
                [pred.scores[window][channels[window] == c].sum() for c in range(4)]
            )
            assert mass.max() <= mass.mean() * 1.5

    def test_length_mismatch_rejected(self):
        pred = HotnessPredictor(np.ones(8))
        with pytest.raises(WorkloadError):
            LearnedInterleaving(pred).assign_channels(16, 4, 16)

    def test_invalid_tile_rejected(self):
        pred = HotnessPredictor(np.ones(8))
        with pytest.raises(WorkloadError):
            LearnedInterleaving(pred).assign_channels(8, 4, 0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lpt_beats_uniform_on_predicted_mass(self, seed):
        """Property: for any score vector, LPT's max per-channel predicted
        mass never exceeds round-robin's."""
        rng = np.random.default_rng(seed)
        n, c = 64, 8
        scores = rng.lognormal(0, 1.5, size=n)
        pred = HotnessPredictor(scores)
        learned = LearnedInterleaving(pred).assign_channels(n, c, n)
        uniform = UniformInterleaving().assign_channels(n, c, n)
        mass = pred.scores

        def max_load(assign):
            return max(mass[assign == ch].sum() for ch in range(c))

        assert max_load(learned) <= max_load(uniform) + 1e-12


class TestEmpiricalFrequencies:
    def test_counts(self):
        queries = [np.array([0, 1]), np.array([1, 2])]
        freq = empirical_frequencies(queries, num_vectors=4)
        np.testing.assert_allclose(freq, [0.5, 1.0, 0.5, 0.0])

    def test_empty(self):
        np.testing.assert_array_equal(empirical_frequencies([], 3), [0, 0, 0])
