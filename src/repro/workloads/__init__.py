"""Benchmark workloads: Table 3 registry and synthetic data generation.

The paper evaluates on trained PyTorch models over public datasets; ECSSD
itself only ever sees (a) weight matrices, (b) feature vectors, and (c) the
candidate selections the screener produces.  This package synthesizes all
three with the statistical structure the architecture is sensitive to:

* per-vector *value locality* so CFP32 pre-alignment is ≥95% lossless (§4.2);
* *planted label structure* so screening retains exact top-k (no accuracy
  drop claim);
* *clustered Zipf label hotness* so candidate selections skew per channel
  the way real label distributions do (Figs. 8/11/12 depend on this).
"""

from .benchmarks import BenchmarkSpec, BENCHMARKS, get_benchmark, list_benchmarks
from .synthetic import SyntheticWorkload, generate_weights, generate_features
from .traces import LabelHotnessModel, CandidateTraceGenerator, TileTrace
from .drift import DriftingHotnessModel, drifted_generator
from .streams import poisson_arrivals

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "get_benchmark",
    "list_benchmarks",
    "SyntheticWorkload",
    "generate_weights",
    "generate_features",
    "LabelHotnessModel",
    "CandidateTraceGenerator",
    "TileTrace",
    "DriftingHotnessModel",
    "drifted_generator",
    "poisson_arrivals",
]
