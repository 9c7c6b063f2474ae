"""Analysis layer: roofline model, metrics, experiment drivers, reporting.

:mod:`repro.analysis.experiments` contains one driver per paper artifact
(Fig. 1 and Figs. 8-13, Tables 2-4, the §4.2/§7 studies); each returns plain
dataclasses.  :mod:`repro.analysis.artifacts` runs the drivers that more
than one caller prints (Figs. 8-13, Table 3, §7.1, backend validation) at
one sample size and renders each as one :mod:`repro.analysis.reporting`
table, so ``repro figure``, ``repro report``, the benchmarks under
``benchmarks/`` and the examples all print the same ours-vs-paper numbers.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".roofline": ("RooflineModel", "RooflinePoint"),
    ".metrics": ("speedup", "geometric_mean"),
    ".reporting": ("render_table", "format_seconds"),
    ".energy": ("EnergyPoint", "baseline_energy", "ecssd_energy"),
})
