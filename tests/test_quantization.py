"""Tests for INT4 quantization (repro.screening.quantization)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.screening.quantization import (
    INT4_MAX,
    Int4Quantizer,
    QuantizedMatrix,
)


class TestQuantizer:
    def test_codes_stay_in_range(self):
        rng = np.random.default_rng(0)
        q = Int4Quantizer().quantize(rng.normal(size=(50, 32)).astype(np.float32))
        assert q.codes.min() >= -INT4_MAX
        assert q.codes.max() <= INT4_MAX

    def test_row_max_maps_to_full_scale(self):
        data = np.array([[0.0, 0.5, -1.0, 0.25]], dtype=np.float32)
        q = Int4Quantizer().quantize(data)
        assert np.abs(q.codes).max() == INT4_MAX

    def test_dequantize_error_bounded(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(20, 64)).astype(np.float32)
        q = Int4Quantizer().quantize(data)
        err = np.abs(q.dequantize() - data)
        # Max quantization error is half a step = scale / 2 per row.
        assert (err <= q.scales[:, None] / 2 + 1e-6).all()

    def test_zero_rows_survive(self):
        data = np.zeros((3, 8), dtype=np.float32)
        q = Int4Quantizer().quantize(data)
        assert (q.codes == 0).all()
        assert (q.scales == 1.0).all()
        assert (q.dequantize() == 0).all()

    def test_rejects_wrong_rank(self):
        with pytest.raises(WorkloadError):
            Int4Quantizer().quantize(np.zeros(8))

    def test_abs_sum_per_row(self):
        codes = np.array([[1, -2, 3], [0, 0, 0]], dtype=np.int8)
        scales = np.ones(2, dtype=np.float32)
        q = QuantizedMatrix(codes=codes, scales=scales)
        np.testing.assert_array_equal(q.abs_sum_per_row(), [6, 0])

    def test_nbytes_packed(self):
        codes = np.zeros((10, 7), dtype=np.int8)
        q = QuantizedMatrix(codes=codes, scales=np.ones(10, dtype=np.float32))
        # 4 bytes of codes (7 nibbles round to 4) + 4-byte scale per row.
        assert q.nbytes_packed == 10 * (4 + 4)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            QuantizedMatrix(
                codes=np.zeros((2, 2), dtype=np.int16),
                scales=np.ones(2, dtype=np.float32),
            )
        with pytest.raises(WorkloadError):
            QuantizedMatrix(
                codes=np.zeros((2, 2), dtype=np.int8),
                scales=np.ones(3, dtype=np.float32),
            )

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quantize_dequantize_bounded_property(self, seed):
        rng = np.random.default_rng(seed)
        data = (rng.normal(size=(6, 12)) * rng.lognormal(0, 2)).astype(np.float32)
        q = Int4Quantizer().quantize(data)
        err = np.abs(q.dequantize() - data)
        assert (err <= q.scales[:, None] / 2 + 1e-5 * q.scales[:, None]).all()
