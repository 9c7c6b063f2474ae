#!/usr/bin/env python3
"""Run provenance end to end: register, re-run, compare, and diverge.

Three seeded serving runs go through the run registry
(`repro.obs.runs`): two with the same seed, one perturbed.  The same-seed
pair derives the *same* run ID and a digest track that matches
step-for-step; the perturbed run is flagged at the first mismatched state
digest with its sim-time and the state keys that changed.  Everything is
a pure function of the seeds — run this twice and every ID, digest, and
metric is identical.

Run:  python examples/compare_runs.py
"""

import tempfile

from repro.obs import (
    DigestRecorder,
    RunManifest,
    RunRegistry,
    compare_runs,
    diverge_runs,
)
from repro.cluster import build_single_deployment, single_deployment_rate
from repro.serve import AffineServiceModel
from repro.workloads.streams import poisson_arrivals

NUM_REQUESTS = 2_000
SLO_S = 0.02


def run_serving(seed: int) -> RunManifest:
    """One seeded serving run, digested every 64 events."""
    service = AffineServiceModel(
        base=2.0e-4, per_query=2.0e-5, knee=32, candidate_fraction=0.7
    )
    recorder = DigestRecorder(interval=64, label="serve")
    simulator = build_single_deployment(
        service, SLO_S, shards=2, digest_recorder=recorder
    )
    rate = 1.2 * single_deployment_rate(service, SLO_S, shards=2)
    report = simulator.run(poisson_arrivals(rate, NUM_REQUESTS, seed=seed))
    return RunManifest.build(
        label="example-serve",
        seed=seed,
        config={"slo_s": SLO_S, "shards": 2, "rate_qps": rate},
        workload={"kind": "poisson", "num_queries": NUM_REQUESTS},
        metrics={
            "goodput_qps": report.goodput,
            "shed_rate": report.shed_rate,
            "p99_ms": (report.p99 or 0.0) * 1e3,
        },
        digests=recorder.entries,
    )


def main() -> None:
    print("=== 1. Three runs into a registry: seeds 7, 7, 9 ===")
    with tempfile.TemporaryDirectory() as root:
        registry = RunRegistry(root)
        first = run_serving(seed=7)
        replay = run_serving(seed=7)
        perturbed = run_serving(seed=9)
        for manifest in (first, replay, perturbed):
            registry.register(manifest)
            print(f"  {manifest.summary_line()}")
        print(f"\nregistry holds {len(registry.run_ids())} run(s): the"
              " identical replay re-derived the SAME id and overwrote"
              " itself (registration is idempotent).")
        assert first.run_id == replay.run_id
        assert first.run_id != perturbed.run_id

        print("\n=== 2. Replay vs original: digest tracks must agree ===")
        report = diverge_runs(first, replay)
        print(report.render())
        assert not report.diverged

        print("\n=== 3. Perturbed seed: flagged at the first bad digest ===")
        report = diverge_runs(first, perturbed)
        print(report.render())
        assert report.diverged

        print("\n=== 4. Metric comparison under perf-diff bands ===")
        comparison = compare_runs(first, perturbed)
        print(comparison.render(show_ok=True))
        print(
            "\nThe CLI wraps this exact loop:  repro serve --run-dir runs"
            "  then  repro runs {list,show,compare,diverge}."
        )


if __name__ == "__main__":
    main()
