"""Tail-attribution bench: where does fleet p99/p99.9 latency live?

Runs one faulted fleet serving run (calibrated GNMT-E32K service model,
8 data nodes / 4 service nodes, node crashes + a rack partition + slow
nodes) with the causal collector installed, and records the stage-bucketed
attribution: per-stage p99 contribution, tail shares above the p99
threshold, fault-class populations, and the exemplar count the store
retained.  The numbers are pure sim-clock quantities — byte-identical for
a given seed — so the CI perf gate requires an exact match.

Results land in ``benchmarks/results/BENCH_attribution.json`` and
``benchmarks/results/tail_attribution.txt`` (rendered tables).
"""

import json

from conftest import RESULTS_DIR, run_once

from repro.cluster import ClusterConfig, build_cluster, cluster_saturating_rate
from repro.faults import ClusterFaultConfig
from repro.obs import hooks
from repro.obs.causal import CausalCollector
from repro.serve import calibrate_service_model
from repro.workloads.streams import poisson_arrivals

SLO_S = 0.05
RATE_MULTIPLIER = 1.1  # just past saturation: queues form, tails stretch
NUM_REQUESTS = 20_000
SEED = 7

CONFIG = ClusterConfig(
    data_nodes=8,
    service_nodes=4,
    shards=4,
    replicas=24,
    racks=2,
    slots_per_node=2,
    slo=SLO_S,
)


def _run_attribution():
    service, _generator = calibrate_service_model("GNMT-E32K", seed=3)
    capacity = cluster_saturating_rate(service, CONFIG)
    rate = RATE_MULTIPLIER * capacity
    arrivals = poisson_arrivals(rate, NUM_REQUESTS, seed=SEED)
    span = float(arrivals[-1])
    fault_config = ClusterFaultConfig.from_spec(
        "node-crash=2,partition=1,slow-node=2", seed=SEED, horizon=0.8 * span
    )
    simulator = build_cluster(
        service, CONFIG, seed=SEED, fault_config=fault_config
    )
    collector = CausalCollector(slowest_k=8, sample_size=16, seed=SEED)
    with hooks.installed(collector=collector):
        report = simulator.run(arrivals)
    return report, collector.report(), rate, capacity


def test_tail_attribution(benchmark, record_table):
    report, attribution, rate, capacity = run_once(benchmark, _run_attribution)

    metrics = attribution.stage_metrics()
    payload = {
        "benchmark": "GNMT-E32K",
        "slo_ms": SLO_S * 1e3,
        "seed": SEED,
        "num_requests": NUM_REQUESTS,
        "rate_multiplier": RATE_MULTIPLIER,
        "rate_qps": rate,
        "saturating_rate_qps": capacity,
        "completed": report.completed,
        "cache_hits": report.cache_hits,
        "shed": report.shed,
        "exemplars": len(attribution.slowest) + len(attribution.sampled),
        "metrics": metrics,
        "attribution": attribution.to_dict(),
    }
    # The exemplar traces themselves carry raw timestamps; the perf gate
    # diffs the aggregate metrics, so keep the JSON to those plus the
    # stage/tail/fault-class blocks.
    payload["attribution"].pop("slowest", None)
    payload["attribution"].pop("sampled", None)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_attribution.json"
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    record_table("tail_attribution", attribution.render())

    # conservation + sanity gates the bench itself enforces
    assert attribution.completed == report.completed
    assert payload["metrics"]["latency_p999_ms"] > 0.0
    assert attribution.slowest
