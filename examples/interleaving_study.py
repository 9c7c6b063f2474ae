#!/usr/bin/env python3
"""Interleaving study: sequential vs uniform vs learned (paper §5, Figs 11-12).

Deploys the GNMT-E32K benchmark under each of the three storing strategies,
prints one tile's per-channel access pattern (Fig. 11) and the end-to-end
performance comparison (Fig. 12), and shows the hot-degree machinery: raw
|INT4|-sum grading, then fine-tuning on a training trace.

Run:  python examples/interleaving_study.py
"""

from repro.analysis import artifacts
from repro.analysis import experiments as exp
from repro.analysis.reporting import format_seconds, render_table
from repro.core.ecssd import ECSSDevice
from repro.core.pipeline import PipelineFeatures
from repro.workloads.benchmarks import get_benchmark


def utilization_study() -> None:
    print("=== Channel utilization per strategy (GNMT-E32K) ===")
    spec = get_benchmark("GNMT-E32K")
    rows = []
    for strategy in ("sequential", "uniform", "learned"):
        device = ECSSDevice(features=PipelineFeatures.full(), interleaving=strategy)
        device.deploy_spec(spec)
        report = device.run_trace(
            exp._generator(spec), queries=32, sample_tiles=10
        )
        rows.append(
            [strategy, f"{report.fp32_channel_utilization:.1%}",
             format_seconds(report.scaled_total_time)]
        )
    print(render_table(["strategy", "fp32 channel utilization", "time"], rows))


def main() -> None:
    print(artifacts.fig11().table, end="\n\n")
    print(artifacts.fig12().table, end="\n\n")
    utilization_study()


if __name__ == "__main__":
    main()
