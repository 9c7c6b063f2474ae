"""Symmetric 4-bit integer quantization for the screener (§2.1, §6.1).

Values quantize to the signed range [-7, 7] (code -8 is unused so the range
is symmetric) with a per-row scale.  Per-row scaling matters for the
interleaving framework: the paper's "hot degree" predictor is the sum of the
absolute 4-bit weight values of a row, so each row's codes must span the full
INT4 range for that sum to be informative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError

INT4_MAX = 7
INT4_MIN = -7


@dataclass(frozen=True)
class QuantizedMatrix:
    """INT4 codes plus per-row dequantization scales."""

    codes: np.ndarray  # (L, K) int8, values in [-7, 7]
    scales: np.ndarray  # (L,) float32, dequant = codes * scales[:, None]

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise WorkloadError("quantized codes must be 2-D")
        if self.scales.shape != (self.codes.shape[0],):
            raise WorkloadError(
                f"scales shape {self.scales.shape} != rows {self.codes.shape[0]}"
            )
        if self.codes.dtype != np.int8:
            raise WorkloadError(f"codes must be int8, got {self.codes.dtype}")

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        return self.codes.astype(np.float32) * self.scales[:, None]

    @property
    def nbytes_packed(self) -> int:
        """Bytes when stored 2 codes/byte plus one FP32 scale per row."""
        rows, cols = self.codes.shape
        return rows * ((cols + 1) // 2) + 4 * rows

    def abs_sum_per_row(self) -> np.ndarray:
        """Sum of |code| per row — the hot-degree signal of §5.3."""
        return np.abs(self.codes.astype(np.int32)).sum(axis=1)


class Int4Quantizer:
    """Symmetric per-row INT4 quantizer."""

    def quantize(self, data: np.ndarray) -> QuantizedMatrix:
        """Quantize rows of a 2-D float array to INT4 codes + scales.

        All-zero rows get scale 1.0 (codes are all zero anyway), keeping
        dequantization well-defined.
        """
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2:
            raise WorkloadError("quantizer expects a 2-D array")
        max_abs = np.abs(data).max(axis=1)
        scales = np.where(max_abs > 0, max_abs / INT4_MAX, 1.0).astype(np.float32)
        codes = np.clip(
            np.rint(data / scales[:, None]), INT4_MIN, INT4_MAX
        ).astype(np.int8)
        return QuantizedMatrix(codes=codes, scales=scales)
