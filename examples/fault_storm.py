#!/usr/bin/env python3
"""A fault storm, step by step: what an aging ECSSD does when NAND misbehaves.

`repro.faults` injects a deterministic worst-credible day — wear- and
retention-driven RBER climbing the tiered ECC ladder, channels stuck
offline, DRAM bit flips corrupting 4-bit screener rows, and flash commands
timing out — then shows the co-design absorbing it: reads get slower (never
wedged), uncorrectable weight pages become dropped candidates (an accuracy
cost, not a crash), and the scrub loop refreshes the worst blocks back
through wear leveling.  Everything is a pure function of the seed: run this
twice and every number is identical.

Run:  python examples/fault_storm.py
"""

import numpy as np

from repro.analysis.metrics import topk_retention
from repro.analysis.reporting import render_table
from repro.config import ECSSDConfig, FlashConfig
from repro.core.ecssd import ECSSDevice
from repro.faults import (
    FaultConfig,
    FaultInjector,
    ScrubConfig,
    ScrubPolicy,
)
from repro.obs import hooks
from repro.ssd.device import SSDDevice
from repro.units import us
from repro.workloads.synthetic import make_workload

NUM_LABELS = 1024
NUM_QUERIES = 8
SEED = 0


def storm_config(rber_scale: float) -> FaultConfig:
    """An aged device (3k P/E, six months of retention) plus every fault class."""
    return FaultConfig(
        seed=SEED,
        rber_scale=rber_scale,
        mean_pe_cycles=3000.0,
        deployment_age=180.0 * 24.0 * 3600.0,
        offline_windows=4,
        offline_duration=us(400.0),
        dram_flips=8,
        timeout_rate=0.05,
        horizon=0.05,
    )


def main() -> None:
    config = ECSSDConfig()
    workload = make_workload(
        num_labels=NUM_LABELS, hidden_dim=256, num_queries=NUM_QUERIES + 16,
        seed=SEED,
    )
    queries = workload.features[16:]

    def fresh_device() -> ECSSDevice:
        device = ECSSDevice(config)
        device.deploy_model(
            workload.weights, train_features=workload.features[:16], seed=SEED
        )
        return device

    print("=== 1. Clean reference run (no injector installed) ===")
    clean_stats, clean_report = fresh_device().run_inference(queries, top_k=5)
    print(f"batch latency {clean_report.scaled_total_time * 1e3:.3f} ms\n")

    print("=== 2. The same queries through an escalating storm ===")
    rows = []
    for scale in (1.0, 5.0, 10.0):
        injector = FaultInjector(storm_config(scale), channels=config.flash.channels)
        with hooks.installed(injector=injector):
            stats, report = fresh_device().run_inference(queries, top_k=5)
        retention = topk_retention(clean_stats.result.top_labels,
                                   stats.result.top_labels)
        dropped = np.union1d(
            injector.unreadable_labels(NUM_LABELS),
            injector.flipped_labels(NUM_LABELS),
        )
        rows.append([
            f"{scale:g}x",
            f"{retention:.1%}",
            f"{report.scaled_total_time / clean_report.scaled_total_time:.2f}x",
            int(dropped.size),
            f"{injector.page_read_surcharge() * 1e6:.1f} us",
        ])
    print(render_table(
        ["rber", "top-k retention", "latency vs clean",
         "labels dropped", "ecc surcharge/page"],
        rows,
    ))

    print("\n=== 3. Event-driven view: a small SSD under the 10x storm ===")
    small = ECSSDConfig(
        flash=FlashConfig(
            channels=2,
            packages_per_channel=1,
            dies_per_package=2,
            planes_per_die=1,
            blocks_per_plane=8,
            pages_per_block=8,
        )
    )
    injector = FaultInjector(storm_config(10.0), channels=small.flash.channels)
    with hooks.installed(injector=injector):
        ssd = SSDDevice(small)
        lpas = list(range(64))
        ssd.host_write(lpas)
        done = ssd.host_read(lpas)
        ssd.fetch_pages([ssd.ftl.lookup(lpa) for lpa in lpas], start=done)
        injector.check_conservation()
        # Fast-forward four years of retention: the cold blocks drift far
        # enough up the RBER surface that scrub must refresh them.
        scrub = ScrubPolicy(ssd.ftl, injector, ScrubConfig())
        report = scrub.scan_and_refresh(now=done + 4 * 365.0 * 24.0 * 3600.0)
    summary = injector.summary()
    print(f"ECC tiers for {summary['reads_attempted']} reads:"
          f" {summary['tier_counts']}")
    print(f"timeouts injected {summary['timeouts_injected']},"
          f" retries {summary['retries_performed']},"
          f" offline stalls {summary['offline_stalls']}")
    print(f"scrub: scanned {report.scanned} blocks,"
          f" refreshed {report.refreshed},"
          f" migrated {report.pages_migrated} pages")
    print(
        "\nThe ladder got slower, never stuck: every read landed in exactly"
        " one ECC tier (the ledger balances), timed-out commands"
        "\nretried with bounded backoff, and the worst blocks were"
        " refreshed back through the wear-leveling heap.  Re-run this"
        "\nscript: every number above is bit-identical."
    )


if __name__ == "__main__":
    main()
