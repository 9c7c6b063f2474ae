#!/usr/bin/env python3
"""Where does a query's time go?  Profiling one instrumented inference.

`repro profile` answers this from the CLI; this example does the same
thing from Python so the pieces are visible: record a run under
`obs.configure(...)`, hand the spans to `profile_trace`, and read the
critical-path attribution — which resource (DRAM, flash, the INT4/FP32
accelerators) bound each tile window and how much the INT4 weight stream
overlapped FP32 candidate fetches (§4.3).  How balanced the flash channels
were (§5) comes from the session's metrics registry, which counts the pages
each channel moved.  The profiler is pure post-processing: it never touches
the simulated timeline, and the same seed yields a byte-identical report.

Run:  python examples/profile_query.py
"""

from repro import ECSSD, obs
from repro.obs import profile_trace
from repro.workloads.synthetic import make_workload


def main() -> None:
    workload = make_workload(
        num_labels=4096, hidden_dim=256, num_queries=48, seed=42
    )

    # Record one deploy + screen under the observability session.  With no
    # session installed these same calls record nothing and cost nothing.
    session = obs.configure(None)
    try:
        device = ECSSD()
        device.ecssd_enable()
        device.weight_deploy(
            workload.weights, train_features=workload.features[:32]
        )
        queries = workload.features[32:40]
        device.int4_input_send(queries)
        device.cfp32_input_send(device.pre_align(queries))
        device.int4_screen()
    finally:
        session.uninstall()

    report = profile_trace(session.tracer.spans)
    print("=== Critical-path profile: 4096 labels, 8 queries ===\n")
    print(report.render())

    # The same data, programmatically.
    window = report.end_to_end_s
    print(f"\nend-to-end window: {window * 1e6:,.1f} us"
          f" across {len(report.tiles)} tiles"
          f" (attribution error {report.attribution_error:.3%})")

    binding = max(report.attributed_s.items(), key=lambda kv: kv[1])
    print(f"binding resource: {binding[0]}"
          f" ({binding[1] / window:.1%} of the window)")

    # The registry counts how many pages each channel moved.
    counter = session.registry.get("ecssd_pages_fetched_total")
    pages = {
        int(dict(labels)["channel"]): int(value)
        for labels, value in counter.samples()
    }
    if pages:
        mean = sum(pages.values()) / len(pages)
        print(f"pages per channel: max {max(pages.values())} vs mean"
              f" {mean:.1f} over {len(pages)} channels"
              f" ({max(pages.values()) / mean:.3f}x imbalance)")

    stats = report.interference
    print(f"INT4/FP32 transfer overlap: {stats.overlap_fraction:.1%}"
          f" of {stats.fp32_fetch_s * 1e6:,.1f} us of FP32 fetch")

    # The binding chain itself, tile by tile: each segment is the span that
    # ended last over that slice of the window.
    segments = report.critical_path()
    print(f"\ncritical path: {len(segments)} segments; first three:")
    for seg in segments[:3]:
        print(f"  {seg.start * 1e6:>10,.1f} us  {seg.resource:<8}"
              f"  {seg.span}")


if __name__ == "__main__":
    main()
