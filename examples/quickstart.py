#!/usr/bin/env python3
"""Quickstart: run extreme classification on a simulated ECSSD.

Builds a synthetic 8192-label classifier, deploys it through the Table 1
API (4-bit screener weights into the device DRAM, CFP32 weights into flash
under learned interleaving), runs a batch of queries, and prints the
predictions alongside the device-side timing report.

Run:  python examples/quickstart.py
"""

from repro import ECSSD
from repro.analysis.reporting import format_seconds
from repro.workloads.synthetic import make_workload


def main() -> None:
    print("Generating a synthetic 8192-label / 256-dim classifier ...")
    workload = make_workload(
        num_labels=8192, hidden_dim=256, num_queries=96, seed=42
    )
    calibration = workload.features[:64]
    queries = workload.features[64:72]

    device = ECSSD()  # full ECSSD: alignment-free MAC + hetero + learned
    device.ecssd_enable()
    print("Deploying weights (calibrating the screening threshold) ...")
    device.weight_deploy(workload.weights, train_features=calibration)

    print("Sending a batch of 8 queries ...")
    device.int4_input_send(queries)
    device.cfp32_input_send(device.pre_align(queries))

    screen = device.int4_screen()
    device.cfp32_classify()
    labels = device.get_results()

    print(f"\nScreening kept {screen.candidate_ratio():.1%} of labels as candidates")
    print("Top-5 predictions per query:")
    for q, row in enumerate(labels):
        print(f"  query {q}: {row.tolist()}")

    exact = queries @ workload.weights.T
    agreement = (labels[:, 0] == exact.argmax(axis=1)).mean()
    print(f"\nTop-1 agreement with exact full-precision classification: {agreement:.0%}")

    report = device.last_report
    assert report is not None
    print(
        f"Device-side batch latency: {format_seconds(report.scaled_total_time)}"
        f" ({format_seconds(report.time_per_query)}/query)"
    )
    print(
        "FP32 flash-channel bandwidth utilization:"
        f" {report.fp32_channel_utilization:.1%}"
    )


if __name__ == "__main__":
    main()
