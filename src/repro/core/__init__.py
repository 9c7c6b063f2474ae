"""ECSSD core: the inserted accelerator, the tile pipeline, and the device.

* :mod:`repro.core.accelerator` — compute-side model of the inserted
  accelerator (INT4 MAC array, alignment-free FP32 MAC array, comparator,
  scheduler) with Table 4 area/power.
* :mod:`repro.core.pipeline` — the tile-by-tile dual-module pipeline timing
  model (§4.5): ping-pong buffering, INT4/FP32 overlap, homogeneous-vs-
  heterogeneous transfer interference, per-channel fetch makespans.
* :mod:`repro.core.ecssd` — the assembled ECSSD device: deploy weights under
  a layout + interleaving choice, run functional inference (real screening on
  materialized workloads) or trace-driven timing at Table 3 scale.
* :mod:`repro.core.api` — the Table 1 host API.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".accelerator": ("AcceleratorModel",),
    ".pipeline": (
        "PipelineFeatures",
        "TileWorkload",
        "TileTiming",
        "RunResult",
        "TilePipelineModel",
    ),
    ".ecssd": ("ECSSDevice", "DeploymentInfo", "PerformanceReport"),
    ".api": ("ECSSD",),
    ".deployment": ("DeploymentModel", "DeploymentTiming"),
    ".scaleout": ("ScaleOutCluster", "LabelShard", "partition_labels"),
    ".batching": ("BatchingAnalyzer", "BatchPoint", "optimal_batch"),
    ".event_backend": ("EventBackedTiming",),
})
