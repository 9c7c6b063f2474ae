"""Tests for the CFP32 format and pre-alignment (repro.cfp32.format)."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cfp32.format import (
    COMPENSATION_BITS,
    STORED_MANTISSA_BITS,
    CFP32Vector,
    decode,
    lossless_fraction,
    prealign,
)
from repro.errors import FormatError


def reference_prealign(values):
    """Per-element pre-alignment from float32 bit fields, in Python ints."""
    fields = []
    for value in values.tolist():
        (bits,) = struct.unpack("<I", struct.pack("<f", value))
        sign, exponent, fraction = bits >> 31, (bits >> 23) & 0xFF, bits & 0x7FFFFF
        if exponent == 0:  # zero or subnormal: flushes to M = 0
            fields.append((sign, 0, 0))
        else:
            fields.append((sign, exponent, (fraction | 1 << 23) << COMPENSATION_BITS))
    e_max = max((exponent for _, exponent, _ in fields), default=0)
    mantissas, dropped = [], []
    for sign, exponent, shifted in fields:
        offset = e_max - exponent
        aligned = shifted >> offset
        dropped.append((shifted - (aligned << offset)).bit_length())
        mantissas.append(-aligned if sign else aligned)
    return e_max, mantissas, dropped


float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)
special_float32s = st.sampled_from([0.0, -0.0, 1e-45, -1e-40, 1.1754942e-38, 3.4e38])


class TestPrealign:
    def test_single_value_roundtrips_exactly(self):
        v = prealign(np.array([1.5], dtype=np.float32))
        np.testing.assert_allclose(decode(v), [1.5])

    def test_uniform_exponent_vector_is_lossless(self):
        data = np.array([1.0, 1.5, -1.25, 1.75], dtype=np.float32)
        v = prealign(data)
        assert v.is_lossless().all()
        np.testing.assert_allclose(decode(v), data.astype(np.float64))

    def test_shared_exponent_is_the_max(self):
        data = np.array([0.5, 4.0, 1.0], dtype=np.float32)
        v = prealign(data)
        assert v.shared_exponent == 129  # exponent of 4.0

    def test_within_7_shifts_is_lossless(self):
        # Values spanning 2^7 still align without dropping bits.
        data = np.array([1.0, 1.0 / 128.0], dtype=np.float32)
        v = prealign(data)
        assert v.is_lossless().all()
        np.testing.assert_allclose(decode(v), data.astype(np.float64))

    def test_beyond_7_shifts_truncates(self):
        data = np.array([1.0, np.float32(1.0) / 2**10 * np.float32(1.3)], dtype=np.float32)
        v = prealign(data)
        assert not v.is_lossless().all()
        reference = data.astype(np.float64)
        err = np.max(np.abs(decode(v) - reference) / np.abs(reference))
        assert err < 2 ** -(STORED_MANTISSA_BITS - 10 - 1)

    def test_zero_vector(self):
        v = prealign(np.zeros(4, dtype=np.float32))
        assert v.shared_exponent == 0
        assert (v.mantissas == 0).all()
        np.testing.assert_array_equal(decode(v), np.zeros(4))

    def test_negative_values(self):
        data = np.array([-2.0, 3.0], dtype=np.float32)
        v = prealign(data)
        assert v.mantissas[0] < 0
        np.testing.assert_allclose(decode(v), data.astype(np.float64))

    def test_subnormals_flush_to_zero(self):
        tiny = np.float32(1e-44)  # subnormal
        v = prealign(np.array([1.0, tiny], dtype=np.float32))
        assert decode(v)[1] == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(FormatError):
            prealign(np.array([np.inf], dtype=np.float32))
        with pytest.raises(FormatError):
            prealign(np.array([np.nan], dtype=np.float32))

    def test_rejects_matrix(self):
        with pytest.raises(FormatError):
            prealign(np.zeros((2, 2), dtype=np.float32))

    def test_mantissas_fit_31_bits(self):
        rng = np.random.default_rng(0)
        v = prealign(rng.normal(size=256).astype(np.float32))
        assert np.abs(v.mantissas).max() < 2**STORED_MANTISSA_BITS


class TestCFP32Vector:
    def test_validation(self):
        with pytest.raises(FormatError):
            CFP32Vector(
                shared_exponent=300,
                mantissas=np.zeros(1, dtype=np.int64),
                dropped_bits=np.zeros(1, dtype=np.int64),
            )
        for mantissa in (2**31, -(2**31)):
            with pytest.raises(FormatError):
                CFP32Vector(
                    shared_exponent=10,
                    mantissas=np.array([0, mantissa], dtype=np.int64),
                    dropped_bits=np.zeros(2, dtype=np.int64),
                )

    def test_prealign_builds_a_vector_the_checks_accept(self):
        # prealign skips __post_init__; its output must pass it and behave
        # like a checked, frozen vector.
        rng = np.random.default_rng(3)
        v = prealign(rng.normal(scale=1e3, size=64).astype(np.float32))
        checked = CFP32Vector(v.shared_exponent, v.mantissas, v.dropped_bits)
        assert v == checked
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.shared_exponent = 0

    def test_len(self):
        v = prealign(np.ones(7, dtype=np.float32))
        assert len(v) == 7


class TestValueLocality:
    def test_local_vectors_are_95pct_lossless(self):
        """§4.2: with deep-learning value locality, >95% of elements lose
        no bits under 7-bit compensation."""
        rng = np.random.default_rng(0)
        rows = rng.normal(0, 1, size=(64, 256)) * np.exp(
            rng.normal(0, 0.35, size=(64, 256))
        )
        frac = lossless_fraction(rows.astype(np.float32))
        assert frac > 0.95

    def test_wild_exponent_spread_loses_bits(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(8, 64)) * np.exp(rng.normal(0, 8, size=(8, 64)))
        assert lossless_fraction(rows.astype(np.float32)) < 0.95

    def test_empty_input(self):
        assert lossless_fraction(np.zeros((0, 4), dtype=np.float32)) == 1.0


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_error_bounded(self, seed):
        """Truncation drops at most (offset - 7) low bits: relative error is
        bounded by 2^-(24 + 7 - offset) per element, and is zero within the
        compensation window."""
        rng = np.random.default_rng(seed)
        spread = rng.uniform(0.1, 4.0)
        data = (rng.normal(size=64) * np.exp(rng.normal(0, spread, size=64))).astype(
            np.float32
        )
        v = prealign(data)
        decoded = decode(v)
        reference = data.astype(np.float64)
        for got, want, dropped in zip(decoded, reference, v.dropped_bits):
            if want == 0.0:
                assert got == 0.0
                continue
            if dropped == 0:
                assert got == want
            else:
                assert abs(got - want) <= abs(want) * 2.0 ** (dropped - 23.5)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lossless_window_roundtrips(self, seed):
        rng = np.random.default_rng(seed)
        exponents = rng.integers(0, COMPENSATION_BITS + 1, size=32)
        data = (rng.choice([-1.0, 1.0], 32) * (1.0 + rng.random(32)) * 2.0 ** -exponents).astype(np.float32)
        v = prealign(data)
        assert v.is_lossless().all()
        np.testing.assert_array_equal(decode(v), data.astype(np.float64))

    @given(
        st.one_of(
            st.lists(float32s, max_size=48),
            st.lists(st.one_of(float32s, special_float32s), max_size=48),
            st.lists(st.sampled_from([0.0, -0.0]), max_size=8),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bit_field_reference(self, values):
        """Empty, all-zero, -0.0, subnormal and wide-spread vectors alike."""
        data = np.array(values, dtype=np.float32)
        e_max, mantissas, dropped = reference_prealign(data)
        v = prealign(data)
        assert v.shared_exponent == e_max
        assert v.mantissas.dtype == v.dropped_bits.dtype == np.int64
        assert v.mantissas.tolist() == mantissas
        assert v.dropped_bits.tolist() == dropped
