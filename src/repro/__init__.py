"""ECSSD reproduction: in-storage computing for extreme classification.

Reproduction of *ECSSD: Hardware/Data Layout Co-Designed In-Storage-Computing
Architecture for Extreme Classification* (ISCA 2023).

Quick start::

    import numpy as np
    from repro import ECSSD
    from repro.workloads.synthetic import make_workload

    wl = make_workload(num_labels=4096, hidden_dim=256, num_queries=64)
    dev = ECSSD()
    dev.ecssd_enable()
    dev.weight_deploy(wl.weights, train_features=wl.features[:32])
    dev.int4_input_send(wl.features[32:40])
    dev.cfp32_input_send(dev.pre_align(wl.features[32:40]))
    dev.int4_screen()
    dev.cfp32_classify()
    print(dev.get_results())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.screening` — the approximate screening algorithm;
* :mod:`repro.cfp32` — CFP32 format + alignment-free MAC circuit models;
* :mod:`repro.ssd` — the NAND SSD simulator substrate;
* :mod:`repro.layout` — interleaving strategies + heterogeneous layout;
* :mod:`repro.core` — the ECSSD device, pipeline, and Table 1 API;
* :mod:`repro.baselines` — CPU / GenStore / SmartSSD / GPU / ENMC models;
* :mod:`repro.workloads` — Table 3 benchmarks and synthetic data;
* :mod:`repro.analysis` — per-figure experiment drivers and reporting;
* :mod:`repro.obs` — metrics registry, sim-time span tracer, exporters.
"""

import logging as _logging

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Library etiquette: the package logs through the "repro" logger tree but
# never configures handlers for the host application; repro.obs.
# configure_logging (or the CLI's -v flag) opts in to console output.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.api": ("ECSSD",),
    ".core.ecssd": ("ECSSDevice", "PerformanceReport"),
    ".core.pipeline": ("PipelineFeatures",),
    ".config": (
        "ECSSDConfig",
        "FlashConfig",
        "AcceleratorConfig",
        "ObservabilityConfig",
        "default_config",
    ),
    ".errors": (
        "ReproError",
        "ConfigurationError",
        "CapacityError",
        "AddressError",
        "SimulationError",
        "ProtocolError",
        "FormatError",
        "WorkloadError",
    ),
})
__all__.append("__version__")
