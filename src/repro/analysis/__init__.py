"""Analysis layer: roofline model, metrics, experiment drivers, reporting.

:mod:`repro.analysis.experiments` contains one driver per paper artifact
(Fig. 1 and Figs. 8-13, Tables 2-4, the §4.2/§7 studies); each returns plain
dataclasses that :mod:`repro.analysis.reporting` renders as text tables —
the benchmarks under ``benchmarks/`` print those tables next to the paper's
published values.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".roofline": ("RooflineModel", "RooflinePoint"),
    ".metrics": ("speedup", "geometric_mean"),
    ".reporting": ("render_table", "format_seconds", "format_ratio"),
    ".energy": ("EnergyPoint", "baseline_energy", "ecssd_energy"),
    ".figures": ("bar_chart",),
})
