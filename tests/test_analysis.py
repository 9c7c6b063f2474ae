"""Tests for the analysis layer: roofline, metrics, reporting."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    geometric_mean,
    speedup,
    weighted_utilization,
)
from repro.analysis.reporting import format_seconds, render_table
from repro.analysis.roofline import RooflineModel
from repro.errors import ConfigurationError, WorkloadError


class TestRoofline:
    def test_operational_intensity(self):
        model = RooflineModel(peak_bandwidth_gbs=8.0, batch=8)
        assert model.operational_intensity == 4.0  # 2 * 8 / 4 bytes

    def test_point_a_is_compute_bound(self):
        """Fig. 1: the naive in-storage baseline sits under the roof.

        Utilization here is the bandwidth the *layout* could deliver if
        compute kept up (uniform interleaving ~0.72); point A's 29.2 GFLOPS
        ceiling sits below that line, so it is compute-bound.
        """
        model = RooflineModel(batch=16)
        a = model.point("A", compute_gflops=29.2, bandwidth_utilization=0.72)
        assert a.is_compute_bound
        assert a.attained_gflops == 29.2

    def test_point_b_becomes_memory_bound(self):
        model = RooflineModel(batch=16)
        b = model.point("B", compute_gflops=50.0, bandwidth_utilization=0.72)
        assert not b.is_compute_bound
        assert b.attained_gflops == pytest.approx(8 * 0.72 * 8.0)

    def test_point_c_approaches_corner(self):
        model = RooflineModel(batch=16)
        b = model.point("B", 50.0, 0.72)
        c = model.point("C", 50.0, 0.95)
        assert c.attained_gflops > b.attained_gflops

    def test_paper_points_trajectory(self):
        points = RooflineModel(batch=16).paper_points(
            baseline_utilization=0.72, final_utilization=0.95
        )
        assert [p.label[0] for p in points] == ["A", "B", "C"]
        attained = [p.attained_gflops for p in points]
        assert attained == sorted(attained)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RooflineModel(peak_bandwidth_gbs=0)
        model = RooflineModel()
        with pytest.raises(ConfigurationError):
            model.point("x", 50.0, 1.5)


class TestMetrics:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        with pytest.raises(WorkloadError):
            speedup(0.0, 1.0)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(WorkloadError):
            geometric_mean([])
        with pytest.raises(WorkloadError):
            geometric_mean([1.0, -1.0])

    def test_weighted_utilization(self):
        series = [np.array([2, 2]), np.array([4, 0])]
        # total pages 8, channel-time 2 * (2 + 4) = 12.
        assert weighted_utilization(series) == pytest.approx(8 / 12)
        assert weighted_utilization([]) == 1.0


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1.0], ["longer", 123456.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to equal width

    def test_render_table_arity_checked(self):
        with pytest.raises(WorkloadError):
            render_table(["a", "b"], [["only-one"]])

    def test_float_formatting(self):
        text = render_table(["x"], [[0.000123456]])
        assert "0.000123" in text

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.5 s"
        assert format_seconds(2.5e-3) == "2.5 ms"
        assert format_seconds(2.5e-6) == "2.5 us"
        assert format_seconds(2.5e-9) == "2.5 ns"
