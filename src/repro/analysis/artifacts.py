"""One producer per paper artifact: the experiment run and its printed table.

Each function below runs one experiment driver at the one sample size the
reproduction uses and returns an :class:`Artifact`: the driver's data (for
the bounds that ``benchmarks/`` asserts) and the table that every caller
prints.  :data:`ARTIFACTS` maps each artifact's name to its results file
under ``benchmarks/results/`` and its function; ``repro figure``, ``repro
benchmarks``, ``repro validate``, ``repro report``, the benchmarks and the
examples all go through it, so the repository gives one answer per
artifact.  Drivers are imported inside each function, which keeps this
module cheap to import from the CLI's argument parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .reporting import format_seconds, render_table


@dataclass(frozen=True)
class Artifact:
    """A driver's return value and the rendered ours-vs-paper table."""

    data: object
    table: str


def _ratio_or_dash(value) -> str:
    return "-" if value is None else f"{value:.2f}x"


def fig8() -> Artifact:
    """Fig. 8: cumulative speedup and FP32 utilisation per technique."""
    from .experiments import fig8_breakdown

    steps = fig8_breakdown(queries=32, sample_tiles=10)
    rows = [
        [
            s.label,
            f"{s.speedup_vs_baseline:.2f}x",
            _ratio_or_dash(s.paper_speedup),
            f"{s.fp32_utilization:.1%}",
            "-" if s.paper_utilization is None else f"{s.paper_utilization:.1%}",
        ]
        for s in steps
    ]
    return Artifact(steps, render_table(
        ["technique (cumulative)", "speedup (ours)", "speedup (paper)",
         "fp32 util (ours)", "fp32 util (paper)"],
        rows,
        title="Fig. 8: breakdown analysis, averaged over 4 benchmarks",
    ))


def fig9() -> Artifact:
    """Fig. 9: iso-throughput area and power of the three MAC designs."""
    from .experiments import fig9_mac_comparison

    designs = fig9_mac_comparison()
    rows = [
        [
            r.design,
            f"{r.area_ratio:.2f}x",
            f"{r.paper_area_ratio:.2f}x",
            f"{r.power_ratio:.2f}x",
            f"{r.paper_power_ratio:.2f}x",
        ]
        for r in designs
    ]
    return Artifact(designs, render_table(
        ["design", "area (ours)", "area (paper)", "power (ours)", "power (paper)"],
        rows,
        title="Fig. 9: iso-throughput FP32 MAC comparison (normalized to alignment-free)",
    ))


def fig10() -> Artifact:
    """Fig. 10: heterogeneous vs homogeneous layout per candidate ratio."""
    import numpy as np

    from .experiments import fig10_hetero_layout

    points = fig10_hetero_layout(queries=32, sample_tiles=10)
    paper = {0.05: "1.73x", 0.10: "-", 0.15: "-", 0.20: "-"}
    rows = [
        [
            f"{p.candidate_ratio:.0%}",
            format_seconds(p.homogeneous_time),
            format_seconds(p.heterogeneous_time),
            f"{p.speedup:.2f}x",
            paper.get(round(p.candidate_ratio, 2), "-"),
        ]
        for p in points
    ]
    avg = float(np.mean([p.speedup for p in points]))
    rows.append(["average", "-", "-", f"{avg:.2f}x", "1.43x"])
    return Artifact(points, render_table(
        ["candidate ratio", "homogeneous", "heterogeneous",
         "speedup (ours)", "speedup (paper)"],
        rows,
        title="Fig. 10: data layout comparison on Transformer-W268K",
    ))


def fig11() -> Artifact:
    """Fig. 11: per-channel page loads of one tile, uniform vs learned."""
    from .experiments import fig11_access_pattern

    uniform, learned = fig11_access_pattern()
    rows = [
        [f"channel {c}",
         int(uniform.pages_per_channel[c]),
         int(learned.pages_per_channel[c])]
        for c in range(len(uniform.pages_per_channel))
    ]
    rows.append(["max", int(uniform.pages_per_channel.max()),
                 int(learned.pages_per_channel.max())])
    rows.append(["balance (mean/max)", f"{uniform.balance:.2f}", f"{learned.balance:.2f}"])
    return Artifact((uniform, learned), render_table(
        ["", "uniform interleaving", "learned interleaving"],
        rows,
        title="Fig. 11: per-channel page loads, one GNMT-E32K tile @ 10% ratio",
    ))


def fig12() -> Artifact:
    """Fig. 12: sequential vs uniform vs learned storing on four benchmarks."""
    import numpy as np

    from .experiments import fig12_interleaving

    results = fig12_interleaving(queries=32, sample_tiles=10)
    rows = [
        [
            r.benchmark,
            format_seconds(r.times["sequential"]),
            format_seconds(r.times["uniform"]),
            format_seconds(r.times["learned"]),
            f"{r.speedup('uniform', 'learned'):.2f}x",
            f"{r.speedup('sequential', 'learned'):.2f}x",
        ]
        for r in results
    ]
    lu = float(np.mean([r.speedup("uniform", "learned") for r in results]))
    ls = float(np.mean([r.speedup("sequential", "learned") for r in results]))
    rows.append(["average", "-", "-", "-", f"{lu:.2f}x", f"{ls:.2f}x"])
    rows.append(["paper average", "-", "-", "-", "1.43x", "7.57x"])
    return Artifact(results, render_table(
        ["benchmark", "sequential", "uniform", "learned",
         "learned/uniform", "learned/sequential"],
        rows,
        title="Fig. 12: storing strategy comparison",
    ))


def fig13() -> Artifact:
    """Fig. 13: end-to-end time of ECSSD and the eight baselines."""
    from ..workloads.benchmarks import LARGE_SCALE
    from .experiments import fig13_end_to_end

    results = fig13_end_to_end(queries=8, sample_tiles=10)
    rows = [
        [
            r.architecture,
            *(format_seconds(r.per_benchmark_time[b]) for b in LARGE_SCALE),
            f"{r.mean_slowdown_vs_ecssd:.2f}x",
            _ratio_or_dash(r.paper_slowdown),
        ]
        for r in results
    ]
    return Artifact(results, render_table(
        ["architecture", *LARGE_SCALE, "slowdown (ours)", "slowdown (paper)"],
        rows,
        title="Fig. 13: end-to-end performance, batch of 8 queries",
    ))


def tab3() -> Artifact:
    """Table 3: the benchmark registry and its derived matrix sizes."""
    from ..units import pretty_bytes
    from ..workloads.benchmarks import list_benchmarks

    specs = list_benchmarks()
    rows = [
        [
            s.name,
            s.model,
            s.dataset,
            f"{s.num_labels:,}",
            s.hidden_dim,
            s.shrunk_dim,
            pretty_bytes(s.int4_matrix_bytes),
            pretty_bytes(s.fp32_matrix_bytes),
        ]
        for s in specs
    ]
    return Artifact(specs, render_table(
        ["benchmark", "model", "dataset", "categories", "D", "K",
         "4-bit matrix", "32-bit matrix"],
        rows,
        title="Table 3 benchmarks + derived matrix sizes (K = D/4)",
    ))


def sec71_scalability() -> Artifact:
    """§7.1: the largest category count each DRAM capacity holds."""
    from . import experiments

    points = experiments.sec71_scalability()
    rows = [
        [
            f"{p.dram_capacity_gib} GiB",
            f"{p.max_categories_millions:.0f}M",
            "-" if p.paper_max_millions is None else f"{p.paper_max_millions:.0f}M",
        ]
        for p in points
    ]
    return Artifact(points, render_table(
        ["DRAM capacity", "max categories (ours)", "supported scenario (paper)"],
        rows,
        title="Section 7.1: maximum classification scale vs DRAM capacity",
    ))


def sec71_scale_out() -> Artifact:
    """§7.1: how many ECSSDs a 500M-category layer needs."""
    from . import experiments

    plan = experiments.sec71_scale_out()
    return Artifact(plan, render_table(
        ["quantity", "ours", "paper"],
        [
            ["categories", f"{plan.categories_millions:.0f}M", "500M"],
            ["4-bit matrix total", f"{plan.int4_total_gib:.0f} GiB", "64 GB"],
            ["32-bit matrix total", f"{plan.fp32_total_tib:.1f} TiB", "2 TB"],
            ["ECSSDs needed", plan.devices_needed, "5"],
        ],
        title="Section 7.1: scale-out partitioning of a 500M-category layer",
    ))


def backend_validation() -> Artifact:
    """Analytic vs event-simulated flash time for both interleavings."""
    from .validation import cross_validate

    report = cross_validate(tiles=3)
    rows = [
        [
            row.strategy,
            format_seconds(row.analytic_flash),
            format_seconds(row.event_flash),
            f"{row.ratio:.2f}x",
        ]
        for row in report.rows
    ]
    rows.append(["ordering agrees", "-", "-", str(report.ordering_agrees())])
    return Artifact(report, render_table(
        ["strategy", "analytic flash", "event-simulated flash", "event/analytic"],
        rows,
        title="Timing-backend cross-validation (DESIGN.md §5 envelope: 0.8-2.2x)",
    ))


#: Artifact name -> (its file stem under ``benchmarks/results/``, producer).
ARTIFACTS: Dict[str, Tuple[str, Callable[[], Artifact]]] = {
    "fig8": ("fig08_breakdown", fig8),
    "fig9": ("fig09_mac_circuit", fig9),
    "fig10": ("fig10_hetero_layout", fig10),
    "fig11": ("fig11_access_pattern", fig11),
    "fig12": ("fig12_interleaving", fig12),
    "fig13": ("fig13_end_to_end", fig13),
    "tab3": ("tab03_benchmarks", tab3),
    "sec71_scalability": ("sec71_scalability", sec71_scalability),
    "sec71_scale_out": ("sec71_scale_out", sec71_scale_out),
    "backend_validation": ("backend_validation", backend_validation),
}

#: ``REPORT.md``'s sections: heading, then the artifacts it shows.
REPORT_SECTIONS = (
    ("Fig. 8 — technique breakdown", ("fig8",)),
    ("Fig. 9 — MAC circuit comparison", ("fig9",)),
    ("Fig. 12 — storing strategies", ("fig12",)),
    ("Fig. 13 — architecture comparison", ("fig13",)),
    ("§7.1 — scalability", ("sec71_scalability", "sec71_scale_out")),
)


def build_report() -> str:
    """``REPORT.md``: each section's artifact tables in code fences."""
    blocks = [
        "# ECSSD reproduction report",
        "Generated by `python -m repro report`. Each table is the one the\n"
        "benchmark of the same artifact records under `benchmarks/results/`.",
    ]
    for heading, names in REPORT_SECTIONS:
        blocks.append(f"## {heading}")
        blocks += [f"```\n{ARTIFACTS[name][1]().table}\n```" for name in names]
    return "\n\n".join(blocks) + "\n"
