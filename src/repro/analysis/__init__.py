"""Analysis layer: roofline model, metrics, experiment drivers, reporting.

:mod:`repro.analysis.experiments` contains one driver per paper artifact
(Fig. 1 and Figs. 8-13, Tables 2-4, the §4.2/§7 studies); each returns plain
dataclasses that :mod:`repro.analysis.reporting` renders as text tables —
the benchmarks under ``benchmarks/`` print those tables next to the paper's
published values.
"""

from .roofline import RooflineModel, RooflinePoint
from .metrics import speedup, geometric_mean
from .reporting import render_table, format_seconds, format_ratio
from .energy import EnergyPoint, baseline_energy, ecssd_energy
from .figures import bar_chart

__all__ = [
    "RooflineModel",
    "RooflinePoint",
    "speedup",
    "geometric_mean",
    "render_table",
    "format_seconds",
    "format_ratio",
    "EnergyPoint",
    "baseline_energy",
    "ecssd_energy",
    "bar_chart",
]
