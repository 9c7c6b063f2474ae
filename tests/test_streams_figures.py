"""Tests for arrival streams and ASCII figure rendering."""

import numpy as np
import pytest

from repro.analysis.figures import bar_chart
from repro.errors import WorkloadError
from repro.workloads.streams import poisson_arrivals


class TestArrivals:
    def test_poisson_rate(self):
        arrivals = poisson_arrivals(rate=1000.0, num_queries=20000, seed=0)
        measured = len(arrivals) / arrivals[-1]
        assert measured == pytest.approx(1000.0, rel=0.05)

    def test_poisson_monotone_and_deterministic(self):
        a = poisson_arrivals(100.0, 50, seed=1)
        b = poisson_arrivals(100.0, 50, seed=1)
        np.testing.assert_array_equal(a, b)
        assert (np.diff(a) > 0).all()

    def test_poisson_validation(self):
        with pytest.raises(WorkloadError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(WorkloadError):
            poisson_arrivals(10.0, 0)


class TestFigures:
    def test_bar_chart_scales_to_max(self):
        chart = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_reference_marker(self):
        chart = bar_chart([("x", 5.0)], width=10, reference=10.0)
        assert "paper: 10" in chart

    def test_bar_chart_title_and_units(self):
        chart = bar_chart([("x", 1.0)], title="T", unit="ms")
        assert chart.startswith("T\n")
        assert "1ms" in chart

    def test_bar_chart_validation(self):
        with pytest.raises(WorkloadError):
            bar_chart([])
        with pytest.raises(WorkloadError):
            bar_chart([("x", -1.0)])
        with pytest.raises(WorkloadError):
            bar_chart([("x", 1.0)], width=2)

    def test_bar_chart_all_zero(self):
        chart = bar_chart([("x", 0.0)])
        assert "#" not in chart
