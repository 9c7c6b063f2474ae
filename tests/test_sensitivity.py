"""Tests for the §6.1 sensitivity study (repro.screening.sensitivity)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.screening.quantization import Int4Quantizer
from repro.screening.sensitivity import (
    IntQuantizer,
    evaluate_point,
    knee_point,
    sensitivity_sweep,
)
from repro.workloads.synthetic import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload(num_labels=1024, hidden_dim=256, num_queries=48, seed=3)


class TestIntQuantizer:
    def test_four_bit_matches_int4_quantizer(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(20, 16)).astype(np.float32)
        a = IntQuantizer(4).quantize(data)
        b = Int4Quantizer().quantize(data)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_allclose(a.scales, b.scales)

    def test_code_range_per_width(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 8)).astype(np.float32)
        for bits in (2, 3, 8):
            q = IntQuantizer(bits).quantize(data)
            limit = 2 ** (bits - 1) - 1
            assert np.abs(q.codes).max() <= limit
            assert np.abs(q.codes).max() == limit  # full-scale rows exist

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(30, 32)).astype(np.float32)
        errors = []
        for bits in (2, 4, 8):
            q = IntQuantizer(bits).quantize(data)
            errors.append(float(np.abs(q.dequantize() - data).mean()))
        assert errors[0] > errors[1] > errors[2]

    def test_bits_validated(self):
        with pytest.raises(WorkloadError):
            IntQuantizer(1)
        with pytest.raises(WorkloadError):
            IntQuantizer(9)

    def test_rank_checked(self):
        with pytest.raises(WorkloadError):
            IntQuantizer(4).quantize(np.zeros(4))


class TestEvaluatePoint:
    def test_paper_operating_point_is_good(self, workload):
        point = evaluate_point(
            workload.weights, workload.features, projection_scale=0.25, bits=4
        )
        assert point.top1_agreement >= 0.95
        assert point.candidate_ratio == pytest.approx(0.10, abs=0.01)

    def test_footprint_accounting(self, workload):
        point = evaluate_point(
            workload.weights, workload.features, projection_scale=0.25, bits=4
        )
        # K = D/4 at 4 bits: 1/32 of the FP32 footprint.
        assert point.int4_footprint_ratio == pytest.approx(1 / 32, rel=0.05)

    def test_quality_degrades_with_tiny_projection(self, workload):
        good = evaluate_point(
            workload.weights, workload.features, projection_scale=0.25, bits=4
        )
        tiny = evaluate_point(
            workload.weights, workload.features, projection_scale=0.03, bits=4
        )
        assert tiny.topk_recall <= good.topk_recall
        assert tiny.top1_agreement <= good.top1_agreement + 0.02

    def test_quality_degrades_with_2bit(self, workload):
        four = evaluate_point(
            workload.weights, workload.features, projection_scale=0.25, bits=4
        )
        two = evaluate_point(
            workload.weights, workload.features, projection_scale=0.25, bits=2
        )
        assert two.topk_recall <= four.topk_recall + 0.02


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self, workload):
        return sensitivity_sweep(
            workload.weights,
            workload.features,
            projection_scales=(0.0625, 0.25),
            bit_widths=(2, 4),
        )

    def test_grid_size(self, points):
        assert len(points) == 4

    def test_footprint_monotone_in_both_axes(self, points):
        by_key = {(p.projection_scale, p.bits): p for p in points}
        assert (
            by_key[(0.0625, 2)].int4_footprint_ratio
            < by_key[(0.25, 2)].int4_footprint_ratio
            < by_key[(0.25, 4)].int4_footprint_ratio
        )

    def test_knee_point_prefers_cheap_and_accurate(self, points):
        knee = knee_point(points, threshold=0.9)
        assert knee is not None
        assert knee.top1_agreement >= 0.9
        cheaper = [
            p for p in points
            if p.int4_footprint_ratio < knee.int4_footprint_ratio
        ]
        assert all(p.top1_agreement < 0.9 for p in cheaper)

    def test_knee_point_none_when_unreachable(self, points):
        assert knee_point(points, threshold=1.01) is None
