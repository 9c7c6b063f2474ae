"""Alignment-free floating-point MAC: CFP32 format and circuit models (§4.2).

Three pieces:

* :mod:`repro.cfp32.format` — host-side pre-alignment and the Compensation
  FP32 (CFP32) storage format: one shared exponent per vector, 31-bit shifted
  mantissas whose low 8 bits reuse the FP32 exponent field as compensation.
* :mod:`repro.cfp32.mac` — a bit-accurate software model of the in-storage
  alignment-free MAC datapath (integer mantissa multiply + integer
  accumulate), validated against IEEE FP64 reference dot products.
* :mod:`repro.cfp32.circuits` — component-level area/power models of the
  naive, SK-Hynix-style, and alignment-free FP32 MAC circuits, calibrated to
  the paper's synthesis anchors (Table 4, Fig. 9, §6.2).
"""

from .format import (
    CFP32Vector,
    prealign,
    decode,
    lossless_fraction,
    COMPENSATION_BITS,
)
from .mac import AlignmentFreeMac, dot_cfp32
from .circuits import (
    MacDesign,
    MacCircuitModel,
    AcceleratorAreaModel,
    required_fp32_gflops,
)

__all__ = [
    "CFP32Vector",
    "prealign",
    "decode",
    "lossless_fraction",
    "COMPENSATION_BITS",
    "AlignmentFreeMac",
    "dot_cfp32",
    "MacDesign",
    "MacCircuitModel",
    "AcceleratorAreaModel",
    "required_fp32_gflops",
]
