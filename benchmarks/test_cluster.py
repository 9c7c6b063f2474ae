"""Fleet bench: the cluster simulator across load and fault pressure.

Sweeps offered load (as multiples of the fleet's saturating rate) with and
without a fault campaign (node crashes, a rack partition, slow nodes) for a
calibrated GNMT-E32K service model on an 8-data-node / 4-service-node
fleet, and records the trajectory the cluster walks: goodput rises to
capacity, the hot-label cache absorbs repeats, shedding absorbs overload,
and — the placement layer's whole point — rack-spread replicas keep the
analytic shard outage at zero even while crashes force live failovers.

Results land in ``benchmarks/results/BENCH_cluster.json`` (machine-readable
trajectory, which the CI perf gate requires to match exactly) and
``benchmarks/results/cluster_fleet.txt`` (rendered table).
"""

import json
import statistics

from conftest import RESULTS_DIR, run_once

from repro.analysis.reporting import render_table
from repro.cluster import ClusterConfig, build_cluster, cluster_saturating_rate
from repro.faults import ClusterFaultConfig
from repro.serve import calibrate_service_model
from repro.workloads.streams import poisson_arrivals

SLO_S = 0.05
RATE_MULTIPLIERS = (0.5, 1.0, 2.0)
FAULT_AXES = ("none", "faulted")
NUM_REQUESTS = 20_000
SEED = 7
#: Seeds whose mean faulted-axis shedding must rise with load (see the test).
ENSEMBLE_SEEDS = range(1, 11)

CONFIG = ClusterConfig(
    data_nodes=8,
    service_nodes=4,
    shards=4,
    replicas=24,
    racks=2,
    slots_per_node=2,
    slo=SLO_S,
)


def _fault_config(axis, span, seed):
    """Fault campaign sized to the arrival span (or disabled)."""
    if axis == "none":
        return ClusterFaultConfig.disabled()
    return ClusterFaultConfig(
        seed=seed,
        node_crashes=2,
        crash_duration=0.25 * span,
        partitions=1,
        partition_duration=0.10 * span,
        slow_nodes=2,
        slow_duration=0.30 * span,
        horizon=0.80 * span,
    )


def _run_point(service, capacity, multiplier, axis, seed=SEED):
    rate = multiplier * capacity
    arrivals = poisson_arrivals(rate, NUM_REQUESTS, seed=seed)
    fault_config = _fault_config(axis, float(arrivals[-1]), seed)
    simulator = build_cluster(
        service, CONFIG, seed=seed, fault_config=fault_config
    )
    report = simulator.run(arrivals)
    return {
        "rate_multiplier": multiplier,
        "faults": axis,
        "rate_qps": rate,
        "saturating_rate_qps": capacity,
        "arrived": report.arrived,
        "completed": report.completed,
        "shed_rate": report.shed_rate,
        "cache_hit_rate": report.cache_hit_rate,
        "goodput_qps": report.goodput,
        "p50_ms": report.p50 * 1e3,
        "p99_ms": report.p99 * 1e3,
        "slo_attainment": report.slo_attainment,
        "steals": report.steals,
        "redispatches": report.redispatches,
        "parked_events": report.parked_events,
        "failover_downtime_s": report.failover_downtime,
        "utilization_skew": report.utilization_skew,
        "peak_active_service_nodes": report.peak_active_service_nodes,
    }


def test_cluster_fleet_sweep(benchmark, record_table):
    def sweep():
        service, _generator = calibrate_service_model("GNMT-E32K", seed=3)
        capacity = cluster_saturating_rate(service, CONFIG)
        rows = [
            _run_point(service, capacity, multiplier, axis)
            for axis in FAULT_AXES
            for multiplier in RATE_MULTIPLIERS
        ]
        return service, capacity, rows

    service, capacity, rows = run_once(benchmark, sweep)

    payload = {
        "benchmark": "GNMT-E32K",
        "slo_ms": SLO_S * 1e3,
        "seed": SEED,
        "num_requests": NUM_REQUESTS,
        "cluster": {
            "data_nodes": CONFIG.data_nodes,
            "service_nodes": CONFIG.service_nodes,
            "shards": CONFIG.shards,
            "replicas": CONFIG.replicas,
            "racks": CONFIG.racks,
            "slots_per_node": CONFIG.slots_per_node,
        },
        "service": {
            "base_s": service.base,
            "per_query_s": service.per_query,
            "knee": service.knee,
        },
        "trajectory": rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_cluster.json"
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    table_rows = [
        [
            f"{r['rate_multiplier']:.1f}x",
            r["faults"],
            f"{r['rate_qps']:,.0f}",
            f"{r['goodput_qps']:,.0f}",
            f"{r['shed_rate']:.1%}",
            f"{r['cache_hit_rate']:.1%}",
            f"{r['p99_ms']:.2f} ms",
            f"{r['slo_attainment']:.1%}",
            r["steals"],
            r["redispatches"] + r["parked_events"],
        ]
        for r in rows
    ]
    record_table(
        "cluster_fleet",
        render_table(
            ["load", "faults", "offered q/s", "goodput q/s", "shed",
             "cache", "p99", "SLO attained", "steals", "failovers"],
            table_rows,
            title=(
                f"Fleet under load (GNMT-E32K, {CONFIG.data_nodes} data / "
                f"{CONFIG.service_nodes} service nodes, SLO "
                f"{SLO_S * 1e3:.0f} ms)"
            ),
        ),
    )

    for axis in FAULT_AXES:
        points = [r for r in rows if r["faults"] == axis]
        # Rack-spread placement holds: no crash schedule takes every replica
        # of any shard down at once.
        assert all(p["failover_downtime_s"] == 0.0 for p in points)
        # Work stealing is live at every point.
        assert all(p["steals"] > 0 for p in points)
    clean = [r for r in rows if r["faults"] == "none"]
    faulted = [r for r in rows if r["faults"] == "faulted"]
    # Without faults, shedding is monotone in offered load and absent below
    # saturation, and the admitted tail stays inside the SLO at every load,
    # 2x overload included.
    sheds = [r["shed_rate"] for r in clean]
    assert all(a <= b + 1e-12 for a, b in zip(sheds, sheds[1:]))
    assert clean[0]["shed_rate"] == 0.0
    assert all(r["p99_ms"] <= SLO_S * 1e3 for r in clean)
    # Under crashes, a partition, and 3x slow-node brownouts, requests
    # already in flight can overrun the SLO — but attainment stays high
    # and the failover machinery is demonstrably exercised.
    assert all(r["slo_attainment"] >= 0.95 for r in faulted)
    assert sum(r["redispatches"] + r["parked_events"] for r in faulted) > 0
    # One seed's crash windows land at different request indices at each
    # load, so its faulted shedding need not rise with load (seed 7 sheds
    # 0 / 0.55% / 0 at 0.5x / 1.0x / 2.0x) and can be nonzero at 0.5x.  The
    # mean over a fixed seed ensemble does rise.  It is computed here and
    # not written to BENCH_cluster.json, which records seed 7 only.
    mean_sheds = [
        statistics.fmean(
            _run_point(service, capacity, multiplier, "faulted", seed)[
                "shed_rate"
            ]
            for seed in ENSEMBLE_SEEDS
        )
        for multiplier in RATE_MULTIPLIERS
    ]
    assert all(a <= b + 1e-12 for a, b in zip(mean_sheds, mean_sheds[1:]))
