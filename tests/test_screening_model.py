"""End-to-end tests of the approximate screening model (E14 accuracy claims)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.screening.model import ApproximateScreeningModel
from repro.workloads.synthetic import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload(num_labels=2048, hidden_dim=128, num_queries=96, seed=0)


@pytest.fixture(scope="module")
def model(workload):
    m = ApproximateScreeningModel(workload.weights, seed=1)
    m.calibrate(workload.features[:48], target_ratio=0.10)
    return m


class TestConstruction:
    def test_dimensions(self, model):
        assert model.num_labels == 2048
        assert model.hidden_dim == 128
        assert model.shrunk_dim == 32  # 0.25 projection scale

    def test_rejects_bad_weights(self):
        with pytest.raises(WorkloadError):
            ApproximateScreeningModel(np.zeros(10))


class TestCalibration:
    def test_ratio_achieved(self, model, workload):
        stats = model.infer(workload.features[48:])
        assert stats.candidate_ratio == pytest.approx(0.10, abs=0.06)

    def test_threshold_installed(self, model):
        assert model.threshold is not None

    def test_infer_without_threshold_rejected(self, workload):
        fresh = ApproximateScreeningModel(workload.weights, seed=1)
        with pytest.raises(WorkloadError):
            fresh.infer(workload.features[:4])

    def test_set_threshold_overrides(self, workload):
        fresh = ApproximateScreeningModel(workload.weights, seed=1)
        fresh.set_threshold(-1e9)
        stats = fresh.infer(workload.features[:4])
        assert stats.candidate_ratio == pytest.approx(1.0)

    def test_nan_threshold_rejected(self, workload):
        fresh = ApproximateScreeningModel(workload.weights, seed=1)
        with pytest.raises(WorkloadError, match="NaN"):
            fresh.set_threshold(float("nan"))
        assert fresh.threshold is None

    def test_infinite_thresholds_legal(self, workload):
        fresh = ApproximateScreeningModel(workload.weights, seed=1)
        fresh.set_threshold(float("-inf"))
        assert fresh.infer(workload.features[:4]).candidate_ratio == 1.0
        fresh.set_threshold(float("inf"))  # each query keeps only its best
        counts = fresh.infer(workload.features[:4]).screen.candidate_counts()
        np.testing.assert_array_equal(counts, [1, 1, 1, 1])


class TestAccuracy:
    def test_no_top1_accuracy_drop(self, model, workload):
        """The paper's core claim: screening does not change predictions.

        On cluster-structured workloads the exact top-1 must survive
        screening for (almost) every query.
        """
        agreement = model.top1_agreement(workload.features[48:])
        assert agreement >= 0.95

    def test_topk_recall_high(self, model, workload):
        stats = model.infer(workload.features[48:], top_k=5)
        exact = model.infer_exact(workload.features[48:], top_k=5)
        overlap = [
            len(set(a.tolist()) & set(b.tolist())) / 5
            for a, b in zip(stats.result.top_labels, exact.top_labels)
        ]
        # Top-1 (the prediction) always survives; ranks 2-5 are noise-level
        # ties on synthetic data, so demand a clear majority, not identity.
        assert np.mean(overlap) >= 0.6

    def test_fixed_ratio_mode(self, model, workload):
        stats = model.infer(workload.features[48:52], candidate_ratio=0.05)
        assert stats.candidate_ratio == pytest.approx(0.05, abs=0.005)


class TestComputeReduction:
    def test_flop_reduction_near_10x(self, model, workload):
        """§2.1: the screening algorithm cuts FP32 work to ~10%."""
        stats = model.infer(workload.features[48:])
        assert 6.0 <= stats.flop_reduction <= 16.0

    def test_int4_ops_accounting(self, model, workload):
        stats = model.infer(workload.features[48:56])
        batch = 8
        assert stats.int4_ops == 2 * batch * 2048 * 32

    def test_full_flops_accounting(self, model, workload):
        stats = model.infer(workload.features[48:56])
        assert stats.fp32_flops_full == 2 * 8 * 2048 * 128
        assert stats.fp32_flops < stats.fp32_flops_full
