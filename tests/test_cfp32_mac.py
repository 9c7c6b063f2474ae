"""Tests for the alignment-free MAC datapath (repro.cfp32.mac)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfp32.format import prealign
from repro.cfp32.mac import AlignmentFreeMac, MacTrace, dot_cfp32, reference_dot
from repro.errors import FormatError


class TestDot:
    def test_exact_on_lossless_vectors(self):
        x = np.array([1.0, 2.0, -0.5, 4.0], dtype=np.float32)
        w = np.array([0.5, 1.5, 2.0, -1.0], dtype=np.float32)
        assert dot_cfp32(x, w) == reference_dot(x, w)

    def test_matches_reference_on_local_data(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = (rng.normal(size=128) * np.exp(rng.normal(0, 0.3, 128))).astype(
                np.float32
            )
            w = (rng.normal(size=128) * np.exp(rng.normal(0, 0.3, 128))).astype(
                np.float32
            )
            got = dot_cfp32(x, w)
            want = reference_dot(x, w)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-9)

    def test_zero_vectors(self):
        z = np.zeros(8, dtype=np.float32)
        assert dot_cfp32(z, z) == 0.0

    def test_trace_fields(self):
        x = np.ones(4, dtype=np.float32)
        trace = AlignmentFreeMac().dot(prealign(x), prealign(x))
        assert isinstance(trace, MacTrace)
        assert trace.products == 4
        assert trace.result == pytest.approx(4.0)
        # Each mantissa is 1 << 30; accumulator = 4 * 2^60.
        assert trace.accumulator == 4 * (1 << 60)

    def test_length_mismatch_rejected(self):
        mac = AlignmentFreeMac()
        with pytest.raises(FormatError):
            mac.dot(prealign(np.ones(3, dtype=np.float32)),
                    prealign(np.ones(4, dtype=np.float32)))

    def test_accumulator_is_integer_exact(self):
        """Unlike float adder trees, the integer accumulator has no
        catastrophic cancellation: alternating +/- huge values cancel
        exactly."""
        big = np.float32(2.0**20)
        x = np.array([big, -big, 1.0], dtype=np.float32)
        w = np.ones(3, dtype=np.float32)
        # Within the pre-alignment precision window, 1.0 is 20 shifts below
        # 2^20 — beyond compensation, so it truncates deterministically.
        got = dot_cfp32(x, w)
        assert got == pytest.approx(1.0, abs=2.0 ** (20 - 30))


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_relative_error_tracks_value_locality(self, seed):
        """For vectors whose exponents span <= 7, the MAC result matches the
        FP64 reference to float32-level precision."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        x = (rng.choice([-1, 1], n) * (1 + rng.random(n)) * 2.0 ** rng.integers(0, 7, n)).astype(np.float32)
        w = (rng.choice([-1, 1], n) * (1 + rng.random(n)) * 2.0 ** rng.integers(0, 7, n)).astype(np.float32)
        got = dot_cfp32(x, w)
        want = reference_dot(x, w)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_commutes(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=32).astype(np.float32)
        w = rng.normal(size=32).astype(np.float32)
        assert dot_cfp32(x, w) == dot_cfp32(w, x)
