"""Weight data layout: interleaving strategies and the heterogeneous split.

This package answers *where each weight vector lives*:

* :mod:`repro.layout.placement` — the placement framework: packing weight
  vectors into flash pages per channel and computing the per-channel page
  counts a candidate fetch touches.
* :mod:`repro.layout.sequential` / :mod:`repro.layout.uniform` /
  :mod:`repro.layout.learned` — the three §5 channel-assignment strategies.
* :mod:`repro.layout.heterogeneous` — §4.3's 4-bit-in-DRAM / 32-bit-in-flash
  split versus the homogeneous everything-in-flash baseline.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".placement": ("InterleavingStrategy", "WeightPlacement", "build_placement"),
    ".sequential": ("SequentialStoring",),
    ".uniform": ("UniformInterleaving",),
    ".learned": ("HotnessPredictor", "LearnedInterleaving", "HotGrade"),
    ".graded": ("GradedInterleaving",),
    ".remapper": ("RemapPlan", "VectorMove", "diff_placements", "remap_time"),
    ".heterogeneous": (
        "DataLocation",
        "WeightLayout",
        "heterogeneous_layout",
        "homogeneous_layout",
    ),
})
