"""Comparison architectures for Fig. 13 (§6.7) and §7 discussions.

Each baseline is a bottleneck model of a published data path:

* :mod:`repro.baselines.cpu` — CPU-N / CPU-AP: conventional host executes
  the classifier, streaming weights over the SSD's external I/O.
* :mod:`repro.baselines.genstore` — GenStore-N / GenStore-AP: in-storage
  per-channel accelerators (GenStore, ASPLOS'22 style) without ECSSD's
  circuit/layout techniques.
* :mod:`repro.baselines.smartssd` — SmartSSD-N / SmartSSD-AP and the 6 GB/s
  "H" variants: near-storage FPGA behind a PCIe switch.
* :mod:`repro.baselines.gpu_enmc` — the §7.2 GPU and §7.3 ENMC
  power/cost-efficiency comparisons.

All models consume a :class:`repro.workloads.BenchmarkSpec` and report a
stage-by-stage time breakdown, so tests can verify *why* a baseline loses,
not just that it does.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".common": ("BaselineResult", "ArchitectureModel"),
    ".cpu": ("CpuBaseline", "CPU_N", "CPU_AP"),
    ".genstore": ("GenStoreBaseline", "GENSTORE_N", "GENSTORE_AP"),
    ".smartssd": (
        "SmartSSDBaseline",
        "SMARTSSD_N",
        "SMARTSSD_AP",
        "SMARTSSD_H_N",
        "SMARTSSD_H_AP",
    ),
    ".gpu_enmc": ("GpuComparison", "EnmcComparison"),
})
