"""Tests for threshold calibration and candidate-only classification."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.screening.classifier import CandidateClassifier
from repro.screening.quantization import Int4Quantizer
from repro.screening.screener import Int4Screener
from repro.screening.thresholds import ThresholdCalibrator, calibrate_threshold


def setup(num_labels=300, dim=32, queries=40, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(num_labels, dim)).astype(np.float32)
    features = rng.normal(size=(queries, dim)).astype(np.float32)
    screener = Int4Screener(Int4Quantizer().quantize(weights))
    return screener, weights, features


class TestCalibrateThreshold:
    def test_achieves_target_ratio(self):
        screener, _, features = setup()
        threshold = calibrate_threshold(screener, features, target_ratio=0.10)
        result = screener.screen(features, threshold=threshold)
        assert result.candidate_ratio() == pytest.approx(0.10, abs=0.04)

    def test_lower_ratio_means_higher_threshold(self):
        screener, _, features = setup()
        t10 = calibrate_threshold(screener, features, target_ratio=0.10)
        t50 = calibrate_threshold(screener, features, target_ratio=0.50)
        assert t10 > t50

    def test_invalid_ratio(self):
        screener, _, features = setup()
        with pytest.raises(WorkloadError):
            calibrate_threshold(screener, features, target_ratio=0.0)


class TestThresholdCalibrator:
    def test_report_fields(self):
        screener, weights, features = setup()
        exact = features @ weights.T
        report = ThresholdCalibrator(screener, top_k=5).calibrate(
            features, exact, target_ratio=0.15
        )
        assert report.queries == 40
        assert report.target_ratio == 0.15
        assert 0.0 <= report.topk_recall <= 1.0
        assert report.achieved_ratio == pytest.approx(0.15, abs=0.05)

    def test_recall_is_one_when_everything_kept(self):
        screener, weights, features = setup()
        exact = features @ weights.T
        report = ThresholdCalibrator(screener, top_k=5).calibrate(
            features, exact, target_ratio=1.0
        )
        assert report.topk_recall == 1.0

    def test_batch_mismatch_rejected(self):
        screener, weights, features = setup()
        exact = features[:5] @ weights.T
        with pytest.raises(WorkloadError):
            ThresholdCalibrator(screener).calibrate(features, exact)

    def test_invalid_topk(self):
        screener, _, _ = setup()
        with pytest.raises(WorkloadError):
            ThresholdCalibrator(screener, top_k=0)


class TestCandidateClassifier:
    def test_ranks_candidates_exactly(self):
        _, weights, features = setup(queries=4)
        clf = CandidateClassifier(weights)
        candidates = [np.arange(300)] * 4
        result = clf.classify(features, candidates, top_k=3)
        exact = features @ weights.T
        for i in range(4):
            np.testing.assert_array_equal(
                result.top_labels[i], np.argsort(exact[i])[::-1][:3]
            )

    def test_restricting_candidates_restricts_output(self):
        _, weights, features = setup(queries=2)
        clf = CandidateClassifier(weights)
        allowed = np.array([5, 10, 15], dtype=np.int64)
        result = clf.classify(features, [allowed, allowed], top_k=3)
        assert set(result.top_labels.ravel()) <= set(allowed.tolist())

    def test_padding_when_fewer_candidates_than_k(self):
        _, weights, features = setup(queries=1)
        clf = CandidateClassifier(weights)
        result = clf.classify(features, [np.array([7])], top_k=5)
        assert result.top_labels[0, 0] == 7
        assert (result.top_labels[0, 1:] == -1).all()
        assert np.isneginf(result.top_scores[0, 1:]).all()

    def test_empty_candidate_set(self):
        _, weights, features = setup(queries=1)
        clf = CandidateClassifier(weights)
        result = clf.classify(features, [np.array([], dtype=np.int64)], top_k=2)
        assert (result.top_labels == -1).all()
        assert result.flops == 0

    def test_flops_accounting(self):
        _, weights, features = setup(queries=2, dim=32)
        clf = CandidateClassifier(weights)
        result = clf.classify(features, [np.arange(10), np.arange(20)], top_k=1)
        assert result.flops == 2 * (10 + 20) * 32

    def test_out_of_range_candidates_rejected(self):
        _, weights, features = setup(queries=1)
        clf = CandidateClassifier(weights)
        with pytest.raises(WorkloadError):
            clf.classify(features, [np.array([999])])

    def test_classify_full_matches_manual(self):
        _, weights, features = setup(queries=3)
        clf = CandidateClassifier(weights)
        full = clf.classify_full(features, top_k=1)
        exact = features @ weights.T
        np.testing.assert_array_equal(full.top_labels[:, 0], exact.argmax(axis=1))

    def test_shape_validation(self):
        _, weights, features = setup()
        clf = CandidateClassifier(weights)
        with pytest.raises(WorkloadError):
            clf.classify(features[:, :8], [np.arange(5)] * 40)
        with pytest.raises(WorkloadError):
            clf.classify(features, [np.arange(5)])  # wrong count
        with pytest.raises(WorkloadError):
            clf.classify(features, [np.arange(5)] * 40, top_k=0)
        with pytest.raises(WorkloadError):
            CandidateClassifier(np.zeros(5))


class TestClassifyPin:
    """Ranking and validation behaviour pinned before the batched fast path."""

    def test_tied_scores_follow_reversed_argsort(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(6, 16)).astype(np.float32)
        # Every row appears three times, so each score ties with two others.
        weights = np.concatenate([base, base, base])
        features = rng.normal(size=(3, 16)).astype(np.float32)
        candidates = [
            np.arange(18),
            np.array([0, 6, 12, 1, 7, 13, 2]),
            np.array([5, 11, 17]),
        ]
        result = CandidateClassifier(weights).classify(features, candidates, top_k=5)
        for i, (feature, selected) in enumerate(zip(features, candidates)):
            scores = weights.take(selected, axis=0) @ feature
            k = min(5, selected.size)
            order = np.argsort(scores)[::-1][:k]
            np.testing.assert_array_equal(result.top_labels[i, :k], selected[order])
            np.testing.assert_array_equal(result.top_scores[i, :k], scores[order])

    @pytest.mark.parametrize("bad", [300, -1])
    def test_out_of_range_in_last_query_rejected(self, bad):
        _, weights, features = setup(queries=3)
        clf = CandidateClassifier(weights)
        candidates = [np.arange(10), np.arange(20), np.array([4, bad, 8])]
        with pytest.raises(WorkloadError, match="outside label range"):
            clf.classify(features, candidates)

    def test_mixed_batch_pads_short_and_empty_queries(self):
        _, weights, features = setup(queries=3)
        clf = CandidateClassifier(weights)
        candidates = [np.array([], dtype=np.int64), np.array([3, 9]), np.arange(50)]
        result = clf.classify(features, candidates, top_k=4)
        assert result.top_labels.dtype == np.int64
        assert result.top_scores.dtype == np.float32
        assert (result.top_labels[0] == -1).all()
        assert np.isneginf(result.top_scores[0]).all()
        assert set(result.top_labels[1, :2].tolist()) == {3, 9}
        assert (result.top_labels[1, 2:] == -1).all()
        assert np.isneginf(result.top_scores[1, 2:]).all()
        assert (result.top_labels[2] >= 0).all()
        assert result.flops == 2 * (0 + 2 + 50) * 32


class TestCandidateIdTypes:
    @pytest.mark.parametrize(
        "bad", [np.array([0.7, 3.9]), np.array([True, False]), np.array([1.0, 2.0])]
    )
    def test_non_integer_ids_rejected(self, bad):
        _, weights, features = setup(queries=2)
        clf = CandidateClassifier(weights)
        with pytest.raises(WorkloadError, match="must be integers"):
            clf.classify(features, [np.arange(4), bad])

    def test_empty_untyped_sets_allowed(self):
        _, weights, features = setup(queries=3)
        clf = CandidateClassifier(weights)
        result = clf.classify(features, [[], np.asarray([]), [2, 5]], top_k=2)
        assert (result.top_labels[:2] == -1).all()
        assert set(result.top_labels[2].tolist()) == {2, 5}
