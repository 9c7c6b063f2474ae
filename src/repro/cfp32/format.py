"""CFP32: vector-wise pre-aligned floating point with compensation bits.

The host finds each vector's maximum biased exponent ``E_max``, then right-
shifts every element's 24-bit normalized mantissa (hidden one included) by
``E_max - E``.  The shifted mantissa is stored in 31 bits: the original
23 mantissa bits, the hidden one, and 7 *compensation* bits that catch the
low-order bits a shift of up to 7 would otherwise drop — these 7 bits plus
the hidden-one position reuse the 8 bits FP32 spent on the per-element
exponent.  One shared 8-bit exponent per vector is stored out of band.

Because deep-learning activations/weights have strong value locality, the
paper measures that with 7 compensation bits more than 95% of values lose no
mantissa information; :func:`lossless_fraction` measures the same statistic
for any array.

Layout recap (per element, 32 bits total): 1 sign bit + 31-bit mantissa
``M = mantissa24 << 7 >> (E_max - E)`` — so an element at ``E == E_max`` has
its hidden one at bit 30.  Value reconstruction:
``x = (-1)^sign * M * 2^(E_max - BIAS - 23 - COMPENSATION_BITS)``.

Zeros encode as ``M = 0``.  Subnormal inputs flush to zero (deep-learning
tensors never depend on subnormals); infinities/NaNs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError

COMPENSATION_BITS = 7
MANTISSA_BITS = 23
BIAS = 127
# Total stored mantissa width: hidden one + 23 fraction + 7 compensation.
STORED_MANTISSA_BITS = 1 + MANTISSA_BITS + COMPENSATION_BITS  # 31


@dataclass(frozen=True)
class CFP32Vector:
    """One pre-aligned vector: shared exponent + signed 31-bit mantissas."""

    shared_exponent: int  # biased E_max, 0..255
    mantissas: np.ndarray  # (N,) int64, signed, |M| < 2**31
    dropped_bits: np.ndarray  # (N,) int64, mantissa bits lost to shifting

    def __post_init__(self) -> None:
        if not (0 <= self.shared_exponent <= 255):
            raise FormatError(f"shared exponent {self.shared_exponent} outside uint8")
        if np.abs(self.mantissas).max(initial=0) >= (1 << STORED_MANTISSA_BITS):
            raise FormatError("mantissa exceeds 31-bit storage")

    def __len__(self) -> int:
        return len(self.mantissas)

    @property
    def storage_bytes(self) -> int:
        """On-device bytes: 4 per element plus the one shared exponent byte."""
        return 4 * len(self.mantissas) + 1

    def is_lossless(self) -> np.ndarray:
        """Boolean mask of elements that lost no mantissa information."""
        return self.dropped_bits == 0


def prealign(values: np.ndarray) -> CFP32Vector:
    """Host-side pre-alignment of one float32 vector into CFP32 (§4.2).

    Mantissas are truncated (not rounded) on right shift, matching the
    hardware datapath the paper describes.
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.float32))
    if values.ndim != 1:
        raise FormatError("prealign expects a 1-D vector")
    bits = np.ascontiguousarray(values).view(np.int32).astype(np.int64)
    exponent = (bits >> 23) & 0xFF
    # Zeros and subnormals have biased exponent 0, so they never raise E_max;
    # an all-zero or empty vector gets E_max = 0.
    e_max = int(exponent.max(initial=0))
    if e_max == 0xFF:
        raise FormatError("CFP32 cannot encode inf/NaN")
    # Zeros and subnormals (exponent 0) flush to M = 0.
    shifted_up = ((bits & 0x7FFFFF) | (1 << 23)) << COMPENSATION_BITS
    shifted_up *= exponent > 0
    # shifted_up < 2**31, so any shift of 31 or more leaves 0; clamping keeps
    # far-below-E_max offsets (up to 254) within int64's defined shifts.
    offset = np.minimum(e_max - exponent, 31, out=exponent)
    aligned = shifted_up >> offset
    # Bits shifted out: frexp's exponent of the remainder is its bit length
    # (0 for no loss).  The remainder is below 2**31, so float64 holds it.
    shifted_up -= aligned << offset
    dropped = np.frexp(shifted_up)[1].astype(np.int64)
    # The sign bit makes ``bits`` negative; a zero ``bits`` has M = 0 anyway.
    aligned *= np.sign(bits)
    return CFP32Vector(
        shared_exponent=e_max, mantissas=aligned, dropped_bits=dropped
    )


def decode(vector: CFP32Vector) -> np.ndarray:
    """Reconstruct float64 values from a CFP32 vector."""
    scale = 2.0 ** (
        vector.shared_exponent - BIAS - MANTISSA_BITS - COMPENSATION_BITS
    )
    return vector.mantissas.astype(np.float64) * scale


def lossless_fraction(values: np.ndarray) -> float:
    """Fraction of elements encoded with zero mantissa loss (§4.2 claim).

    The paper measures >95% on real model tensors; synthetic workloads with
    deep-learning-like value locality reproduce this.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float32))
    total = 0
    lossless = 0
    for row in values:
        encoded = prealign(row)
        total += len(row)
        lossless += int(encoded.is_lossless().sum())
    if total == 0:
        return 1.0
    return lossless / total
