"""Bit-accurate model of the alignment-free FP32 MAC datapath (§4.2).

The in-storage circuit receives two CFP32 vectors (pre-aligned input features
and pre-aligned weights), multiplies their 31-bit mantissas in an integer
multiplier, accumulates the signed products in a wide integer accumulator,
and normalizes once at the end — no per-element exponent comparison or
mantissa shifting.  This module executes exactly that arithmetic (Python
integers are exact, so the accumulator never overflows) and converts the
final accumulator back to a float with the two shared exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from .format import BIAS, COMPENSATION_BITS, MANTISSA_BITS, CFP32Vector, prealign

# Exponent weight of one unit in a mantissa: 2^-(23+7) relative to 2^(E-BIAS).
_UNIT_EXP = MANTISSA_BITS + COMPENSATION_BITS  # 30


@dataclass
class MacTrace:
    """Observability record of one dot product through the datapath."""

    products: int  # number of mantissa multiplies
    accumulator: int  # final integer accumulator value
    result_exponent: int  # power-of-two scale applied to the accumulator
    result: float


class AlignmentFreeMac:
    """Executes CFP32 dot products the way the hardware would."""

    def dot(self, features: CFP32Vector, weights: CFP32Vector) -> MacTrace:
        """Integer-exact dot product of two CFP32 vectors."""
        if len(features) != len(weights):
            raise FormatError(
                f"vector length mismatch: {len(features)} vs {len(weights)}"
            )
        fm = features.mantissas.tolist()
        wm = weights.mantissas.tolist()
        accumulator = 0
        for a, b in zip(fm, wm):
            accumulator += a * b  # 31b x 31b -> 62b products, exact in Python
        result_exponent = (
            (features.shared_exponent - BIAS)
            + (weights.shared_exponent - BIAS)
            - 2 * _UNIT_EXP
        )
        result = float(accumulator) * (2.0 ** result_exponent)
        return MacTrace(
            products=len(fm),
            accumulator=accumulator,
            result_exponent=result_exponent,
            result=result,
        )


def dot_cfp32(x: np.ndarray, w: np.ndarray) -> float:
    """Convenience: pre-align two float vectors and run the MAC datapath."""
    return AlignmentFreeMac().dot(prealign(x), prealign(w)).result


def reference_dot(x: np.ndarray, w: np.ndarray) -> float:
    """FP64 reference dot product for accuracy comparisons."""
    return float(
        np.dot(np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64))
    )
