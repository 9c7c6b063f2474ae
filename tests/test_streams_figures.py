"""Tests for arrival streams."""

import numpy as np
import pytest

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
