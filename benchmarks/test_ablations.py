"""Ablation benches: design-choice studies beyond the paper's figures.

DESIGN.md calls out the design choices these quantify: the component
campaign run through ``repro.ablate`` (the Fig. 8 axes, importance-ranked
and exact-gated in CI as ``BENCH_ablation.json``), the hot-degree predictor
quality and fine-tuning budget, channel scaling, query-distribution drift,
channel scheduling policy, and per-query energy.
"""

from conftest import RESULTS_DIR, run_once

from repro.ablate import components_campaign, run_campaign
from repro.analysis import ablations as A
from repro.analysis.energy import efficiency_table
from repro.analysis.reporting import format_seconds, render_table


def test_ablation_component_campaign(benchmark, record_table):
    """The paper's component set, one-factor-ablated by the campaign engine.

    Replaces the old hand-rolled interleaving sweep: the campaign runs the
    champion plus every single-component ablation, scores each component's
    importance against the champion, and emits the ranked report both as
    ``BENCH_ablation.json`` (exact-gated in CI) and as markdown.
    """
    spec = components_campaign()
    result = run_once(benchmark, lambda: run_campaign(spec, workers=1))
    report = result.report

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_ablation.json"
    out.write_text(report.to_json(), encoding="utf-8")
    record_table("ablation_importance", report.render_markdown().rstrip("\n"))

    # Every ablated component hurts: the co-design earns its keep.
    for entry in report.ranking:
        assert entry.sign == +1, (entry.axis, entry.level)
    # The naive MAC pays Fig. 9's iso-area throughput gap.
    assert report.entry("mac", "naive").harm_score > 0
    # Losing the learned interleaving is the costliest single ablation,
    # and falling all the way to sequential hurts more than to uniform.
    assert report.ranking[0].axis == "interleaving"
    assert (
        report.entry("interleaving", "sequential").harm_score
        > report.entry("interleaving", "uniform").harm_score
    )
    # Raw throughput ordering across the interleaving cells matches.
    by_axis = {
        (cell.ablated_axis, cell.ablated_level): result.results[cell.cell_id]
        for cell in result.matrix.cells
    }
    champion_tp = result.results[result.matrix.champion.cell_id][
        "throughput_qps"
    ]
    assert (
        champion_tp
        > by_axis[("interleaving", "uniform")]["throughput_qps"]
        > by_axis[("interleaving", "sequential")]["throughput_qps"]
    )


def test_ablation_predictor_fidelity(benchmark, record_table):
    points = run_once(
        benchmark, lambda: A.predictor_fidelity_sweep(tiles=6)
    )

    rows = [
        [f"{p.fidelity:.2f}", "yes" if p.fine_tuned else "no", f"{p.balance:.3f}"]
        for p in points
    ]
    table = render_table(
        ["predictor fidelity", "fine-tuned", "channel balance"],
        rows,
        title="Ablation: |INT4|-sum predictor quality vs fine-tuning (§5.3)",
    )
    record_table("ablation_predictor_fidelity", table)

    by_key = {(p.fidelity, p.fine_tuned): p.balance for p in points}
    assert by_key[(0.0, True)] > by_key[(0.0, False)] + 0.1
    assert by_key[(1.0, False)] > 0.85


def test_ablation_training_budget(benchmark, record_table):
    points = run_once(benchmark, lambda: A.training_queries_sweep(tiles=6))

    rows = [[p.train_queries, f"{p.balance:.3f}"] for p in points]
    table = render_table(
        ["fine-tuning queries", "channel balance"],
        rows,
        title="Ablation: training-set size for hot-degree fine-tuning",
    )
    record_table("ablation_training_budget", table)

    balances = [p.balance for p in points]
    assert balances[-1] > balances[0]
    # Saturation: the last doubling gains almost nothing.
    assert balances[-1] - balances[-2] < 0.05


def test_ablation_channel_scaling(benchmark, record_table):
    points = run_once(benchmark, lambda: A.channel_count_sweep(sample_tiles=8))

    rows = [
        [p.channels, format_seconds(p.time), f"{p.utilization:.1%}"]
        for p in points
    ]
    table = render_table(
        ["flash channels", "time (GNMT-E32K)", "fp32 utilization"],
        rows,
        title="Ablation: device scaling with flash channel count",
    )
    record_table("ablation_channel_scaling", table)

    times = [p.time for p in points]
    assert times == sorted(times, reverse=True)
    # Near-linear early scaling: 2 -> 8 channels gains >= 2.5x.
    assert times[0] / times[2] > 2.5


def test_ablation_drift(benchmark, record_table):
    points = run_once(benchmark, A.drift_study)

    rows = [
        [f"{p.drift:.2f}", f"{p.stale_balance:.3f}", f"{p.retuned_balance:.3f}"]
        for p in points
    ]
    table = render_table(
        ["hotness drift", "stale placement balance", "re-tuned balance"],
        rows,
        title="Ablation: why the interleaving must be *adaptive* (§5.3)",
    )
    record_table("ablation_drift", table)

    assert points[0].stale_balance > 0.85
    assert points[-1].stale_balance < points[0].stale_balance - 0.1
    assert all(p.retuned_balance > 0.85 for p in points)


def test_ablation_scheduler_policy(benchmark, record_table):
    results = run_once(benchmark, lambda: A.scheduler_study(pages=32))

    rows = [[r.policy, format_seconds(r.makespan)] for r in results]
    table = render_table(
        ["channel scheduling policy", "32-page skewed batch makespan"],
        rows,
        title="Ablation: FIFO vs die-round-robin command scheduling",
    )
    record_table("ablation_scheduler", table)

    by_policy = {r.policy: r.makespan for r in results}
    assert by_policy["die_round_robin"] <= by_policy["fifo"]


def test_ablation_energy(benchmark, record_table):
    points = run_once(
        benchmark, lambda: A.energy_study(benchmark="XMLCNN-S100M", sample_tiles=8)
    )

    rows = [
        [arch, format_seconds(t), f"{e:.0f} J", f"{ratio:.1f}x"]
        for arch, t, e, ratio in efficiency_table(points)
    ]
    table = render_table(
        ["architecture", "time (8 queries)", "energy", "energy vs ECSSD"],
        rows,
        title="Ablation: per-run energy, S100M (extends §7.2/§7.3)",
    )
    record_table("ablation_energy", table)

    by_arch = {p.architecture: p for p in points}
    ecssd = by_arch["ECSSD"]
    for name, point in by_arch.items():
        if name != "ECSSD":
            assert point.energy_joules > ecssd.energy_joules
    # CPU pays both a time and a power penalty: energy gap >> time gap.
    cpu_ratio = by_arch["CPU-N"].energy_ratio_vs(ecssd)
    assert cpu_ratio > 100


def test_ablation_remap_cost(benchmark, record_table):
    points = run_once(benchmark, A.remap_cost_study)

    rows = [
        [
            f"{p.drift:.2f}",
            f"{p.full_moved_fraction:.1%}",
            format_seconds(p.full_remap_seconds),
            f"{p.incremental_moved_fraction:.1%}",
            format_seconds(p.incremental_remap_seconds),
            f"{p.incremental_balance:.2f}",
        ]
        for p in points
    ]
    table = render_table(
        ["drift", "full re-tune moves", "full cost",
         "incremental moves", "incremental cost", "incremental balance"],
        rows,
        title="Ablation: re-interleaving cost — full LPT re-layout vs"
              " incremental rebalancing",
    )
    record_table("ablation_remap_cost", table)

    for p in points:
        # A full LPT re-layout cascades: most of the tile moves.
        assert p.full_moved_fraction > 0.5
        # Incremental rebalancing moves a tiny fraction at ~25x lower cost...
        assert p.incremental_moved_fraction < 0.1
        assert p.incremental_remap_seconds < p.full_remap_seconds / 5
        # ...and still restores near-full channel balance.
        assert p.incremental_balance > 0.85
