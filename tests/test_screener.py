"""Tests for INT4 screening and threshold filtering (repro.screening.screener)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.screening.quantization import Int4Quantizer, QuantizedMatrix
from repro.screening.screener import Int4Screener


# Largest K whose worst-case partial sums (896·K) stay below 2**24.
FLOAT32_MAX_DIM = 18724


def make_screener(num_labels=100, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(num_labels, dim)).astype(np.float32)
    return Int4Screener(Int4Quantizer().quantize(weights)), weights


def random_case(seed):
    """Screener over full-range int8 codes plus a feature batch, K in 1..512."""
    rng = np.random.default_rng(seed)
    num_labels = int(rng.integers(1, 65))
    dim = int(rng.integers(1, 513))
    batch = int(rng.integers(1, 17))
    codes = rng.integers(-128, 128, size=(num_labels, dim), dtype=np.int8)
    scales = rng.lognormal(-3, 2, size=num_labels).astype(np.float32)
    screener = Int4Screener(QuantizedMatrix(codes=codes, scales=scales))
    magnitude = float(rng.lognormal(0, 3))
    features = (rng.normal(size=(batch, dim)) * magnitude).astype(np.float32)
    return screener, features, rng


def reference_scores(screener, features):
    """Integer-matmul scores: the kernel the BLAS path must reproduce exactly."""
    fq = Int4Quantizer().quantize(features)
    weights = screener.weights
    int_scores = fq.codes.astype(np.int64) @ weights.codes.astype(np.int64).T
    return (
        int_scores.astype(np.float32) * fq.scales[:, None] * weights.scales[None, :]
    )


def reference_candidates(scores, applied, min_candidates):
    """Per-row flatnonzero/fallback loop the one-pass extraction replaces."""
    candidates = []
    for row, cutoff in zip(scores, applied):
        selected = np.flatnonzero(row >= cutoff)
        if len(selected) < min_candidates:
            selected = np.argsort(row)[-min_candidates:]
        candidates.append(np.sort(selected).astype(np.int64))
    return candidates


class TestScores:
    def test_shape(self):
        screener, _ = make_screener()
        scores = screener.scores(np.ones((4, 16), dtype=np.float32))
        assert scores.shape == (4, 100)

    def test_single_vector_promoted(self):
        screener, _ = make_screener()
        assert screener.scores(np.ones(16, dtype=np.float32)).shape == (1, 100)

    def test_scores_track_exact_inner_products(self):
        screener, weights = make_screener(seed=3)
        rng = np.random.default_rng(1)
        features = rng.normal(size=(8, 16)).astype(np.float32)
        exact = features @ weights.T
        approx = screener.scores(features)
        for row_e, row_a in zip(exact, approx):
            assert np.corrcoef(row_e, row_a)[0, 1] > 0.95

    def test_dim_mismatch_rejected(self):
        screener, _ = make_screener()
        with pytest.raises(WorkloadError):
            screener.scores(np.ones((2, 8)))

    def test_integer_arithmetic_consistency(self):
        """Scores equal the dequantized matrices' float product exactly."""
        screener, _ = make_screener(num_labels=20, dim=8)
        rng = np.random.default_rng(2)
        features = rng.normal(size=(3, 8)).astype(np.float32)
        fq = Int4Quantizer().quantize(features)
        manual = fq.dequantize() @ screener.weights.dequantize().T
        np.testing.assert_allclose(screener.scores(features), manual, rtol=1e-5)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_integer_matmul(self, seed):
        screener, features, _ = random_case(seed)
        scores = screener.scores(features)
        expected = reference_scores(screener, features)
        assert scores.dtype == expected.dtype == np.float32
        np.testing.assert_array_equal(scores, expected)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.one_of(
            st.integers(min_value=1, max_value=512),
            st.sampled_from([FLOAT32_MAX_DIM - 1, FLOAT32_MAX_DIM]),
            st.sampled_from([FLOAT32_MAX_DIM + 1, 2 * FLOAT32_MAX_DIM, 4 * FLOAT32_MAX_DIM]),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_scores_exact_on_both_sides_of_float32_bound(self, seed, dim):
        """Extreme-heavy codes, K drawn below, at and above the 896·K < 2**24 bound."""
        rng = np.random.default_rng(seed)
        num_labels = int(rng.integers(1, 5))
        codes = rng.integers(-128, 128, size=(num_labels, dim), dtype=np.int8)
        extreme = rng.random(codes.shape) < 0.8
        codes[extreme] = rng.choice(np.array([-128, 127], dtype=np.int8), int(extreme.sum()))
        scales = rng.lognormal(-3, 2, size=num_labels).astype(np.float32)
        screener = Int4Screener(QuantizedMatrix(codes=codes, scales=scales))
        # Equal magnitudes quantize to codes of +-7.  Query 0 takes label 0's
        # signs, so its partial sums only grow (to ~896·K, odd on the way).
        features = rng.choice(np.array([-1.0, 1.0], dtype=np.float32), (2, dim))
        features[0] = np.where(codes[0] < 0, -1.0, 1.0)
        scores = screener.scores(features)
        expected = reference_scores(screener, features)
        assert scores.dtype == np.float32
        np.testing.assert_array_equal(scores, expected)

    def test_float64_path_above_float32_bound(self):
        """At K = 18725 worst-case sums pass 2**24; scores stay exact."""
        dim = FLOAT32_MAX_DIM + 1
        rng = np.random.default_rng(7)
        codes = np.full((2, dim), -128, dtype=np.int8)
        codes[1] = rng.integers(-128, 128, size=dim, dtype=np.int8)
        screener = Int4Screener(
            QuantizedMatrix(codes=codes, scales=np.ones(2, dtype=np.float32))
        )
        assert screener._codes_t.dtype == np.float64
        assert Int4Screener(
            QuantizedMatrix(codes=codes[:, 1:], scales=np.ones(2, dtype=np.float32))
        )._codes_t.dtype == np.float32
        features = np.full((1, dim), -7.0, dtype=np.float32)  # codes -7, scale 1
        scores = screener.scores(features)
        np.testing.assert_array_equal(scores, reference_scores(screener, features))
        assert scores[0, 0] == 896 * dim > 2**24

    def test_scores_exact_at_largest_partial_sums(self):
        """Extreme codes everywhere: sums of 896 per term stay exact."""
        dim = 512
        codes = np.full((3, dim), -128, dtype=np.int8)
        codes[1] = 127
        screener = Int4Screener(
            QuantizedMatrix(codes=codes, scales=np.ones(3, dtype=np.float32))
        )
        features = np.full((2, dim), 7.0, dtype=np.float32)  # codes ±7, scale 1
        features[1, ::2] = -7.0
        scores = screener.scores(features)
        np.testing.assert_array_equal(scores, reference_scores(screener, features))
        assert scores[0, 0] == -7 * 128 * dim


class TestScreen:
    def test_no_threshold_keeps_everything(self):
        screener, _ = make_screener()
        result = screener.screen(np.ones((2, 16), dtype=np.float32))
        assert result.candidate_ratio() == 1.0

    def test_high_threshold_keeps_minimum(self):
        screener, _ = make_screener()
        result = screener.screen(
            np.ones((2, 16), dtype=np.float32), threshold=1e9, min_candidates=3
        )
        assert all(len(c) == 3 for c in result.candidates)

    def test_threshold_is_semantically_applied(self):
        screener, _ = make_screener()
        features = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        scores = screener.scores(features)
        cutoff = float(np.quantile(scores, 0.9))
        result = screener.screen(features, threshold=cutoff)
        for row, selected in zip(scores, result.candidates):
            expected = np.flatnonzero(row >= cutoff)
            if len(expected) >= 1:
                np.testing.assert_array_equal(selected, expected)

    def test_per_query_thresholds(self):
        screener, _ = make_screener()
        features = np.random.default_rng(0).normal(size=(2, 16)).astype(np.float32)
        loose_tight = np.array([-1e9, 1e9], dtype=np.float32)
        result = screener.screen(features, threshold=loose_tight)
        assert len(result.candidates[0]) == 100
        assert len(result.candidates[1]) == 1  # min_candidates fallback

    def test_candidates_sorted_unique(self):
        screener, _ = make_screener()
        features = np.random.default_rng(5).normal(size=(3, 16)).astype(np.float32)
        result = screener.screen(features, threshold=0.0)
        for selected in result.candidates:
            assert (np.diff(selected) > 0).all()

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["none", "scalar", "per-query", "huge"]),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_candidates_equal_per_row_loop(self, seed, kind, min_candidates):
        screener, features, rng = random_case(seed)
        scores = screener.scores(features)
        batch = len(features)
        threshold = {
            "none": None,
            "scalar": float(np.quantile(scores, rng.uniform())),
            "per-query": np.quantile(scores, rng.uniform(size=batch), axis=1)
            .diagonal()
            .astype(np.float32),
            "huge": 1e30,
        }[kind]
        result = screener.screen(features, threshold, min_candidates=min_candidates)
        if threshold is None:
            applied = np.full(batch, -np.inf, dtype=np.float32)
        else:
            applied = np.broadcast_to(
                np.asarray(threshold, dtype=np.float32), (batch,)
            )
        np.testing.assert_array_equal(result.threshold, applied)
        expected = reference_candidates(scores, applied, min_candidates)
        assert len(result.candidates) == len(expected)
        for got, want in zip(result.candidates, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_threshold_length_mismatch_rejected(self):
        screener, _ = make_screener()
        with pytest.raises(WorkloadError, match="3 thresholds for 4 queries"):
            screener.screen(np.ones((4, 16), dtype=np.float32), threshold=np.zeros(3))

    @pytest.mark.parametrize(
        "threshold", [float("nan"), np.array([0.0, np.nan], dtype=np.float32)]
    )
    def test_nan_threshold_rejected(self, threshold):
        screener, _ = make_screener()
        with pytest.raises(WorkloadError, match="NaN"):
            screener.screen(np.ones((2, 16), dtype=np.float32), threshold=threshold)

    def test_infinite_thresholds_legal(self):
        screener, _ = make_screener()
        features = np.ones((2, 16), dtype=np.float32)
        assert screener.screen(features, threshold=-np.inf).candidate_ratio() == 1.0
        result = screener.screen(features, threshold=np.inf, min_candidates=2)
        assert [len(c) for c in result.candidates] == [2, 2]


class TestTopRatio:
    def test_exact_ratio(self):
        screener, _ = make_screener(num_labels=200)
        features = np.random.default_rng(0).normal(size=(4, 16)).astype(np.float32)
        result = screener.screen_top_ratio(features, 0.10)
        assert all(len(c) == 20 for c in result.candidates)
        assert result.candidate_ratio() == pytest.approx(0.10)

    def test_selected_are_the_top_scores(self):
        screener, _ = make_screener(num_labels=50)
        features = np.random.default_rng(1).normal(size=(2, 16)).astype(np.float32)
        result = screener.screen_top_ratio(features, 0.2)
        for row, selected in zip(result.scores, result.candidates):
            cutoff = np.sort(row)[-10]
            assert (row[selected] >= cutoff).all()

    def test_ratio_bounds(self):
        screener, _ = make_screener()
        with pytest.raises(WorkloadError):
            screener.screen_top_ratio(np.ones((1, 16)), 0.0)
        with pytest.raises(WorkloadError):
            screener.screen_top_ratio(np.ones((1, 16)), 1.5)

    def test_full_ratio_keeps_all(self):
        screener, _ = make_screener(num_labels=30)
        result = screener.screen_top_ratio(np.ones((1, 16), dtype=np.float32), 1.0)
        assert len(result.candidates[0]) == 30


class TestAppliedThreshold:
    """The (B,) threshold array ``screen`` reports for each threshold form."""

    @pytest.mark.parametrize("threshold", [0.25, 1, np.float64(0.25), np.array(0.25)])
    def test_scalar_broadcasts_to_batch(self, threshold):
        screener, _ = make_screener()
        result = screener.screen(np.ones((3, 16), dtype=np.float32), threshold)
        assert result.threshold.dtype == np.float32
        assert result.threshold.shape == (3,)
        assert result.threshold.flags.writeable
        np.testing.assert_array_equal(
            result.threshold, np.full(3, threshold, dtype=np.float32)
        )

    def test_per_query_array_is_copied(self):
        screener, _ = make_screener()
        threshold = np.array([0.5, -0.5, 2.0], dtype=np.float32)
        result = screener.screen(np.ones((3, 16), dtype=np.float32), threshold)
        np.testing.assert_array_equal(result.threshold, threshold)
        assert result.threshold.dtype == np.float32
        assert not np.shares_memory(result.threshold, threshold)

    def test_length_one_array_broadcasts(self):
        screener, _ = make_screener()
        result = screener.screen(np.ones((3, 16), dtype=np.float32), np.array([0.5]))
        np.testing.assert_array_equal(result.threshold, np.full(3, 0.5, np.float32))

    def test_wrong_length_rejected(self):
        screener, _ = make_screener()
        with pytest.raises(WorkloadError, match="2 thresholds for 3 queries"):
            screener.screen(np.ones((3, 16), dtype=np.float32), np.zeros(2))

    @pytest.mark.parametrize(
        "threshold", [np.nan, np.float32(np.nan), np.array([0.0, 0.0, np.nan])]
    )
    def test_nan_rejected(self, threshold):
        screener, _ = make_screener()
        with pytest.raises(WorkloadError, match="screening threshold is NaN"):
            screener.screen(np.ones((3, 16), dtype=np.float32), threshold)
