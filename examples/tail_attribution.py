#!/usr/bin/env python3
"""Where does fleet p99 live?  Per-request causal tracing, step by step.

Runs a faulted fleet serving run twice — once bare, once with the causal
collector installed — and shows the three properties the tracing layer is
built on:

1. **Zero overhead when disabled / observe-only when enabled**: both runs
   produce bit-identical latencies, so the attribution below describes
   exactly the run you would have had anyway.
2. **Conservation**: every request's stage durations (queue wait, failover,
   fan-out, slot wait, service, fault slowdown, result transfer, merge)
   telescope exactly to its end-to-end latency.
3. **Deterministic exemplars**: the K slowest requests and a seeded
   reservoir sample come out byte-identical at a fixed seed, and any of
   them exports its causal graph as a Chrome/Perfetto trace.

Run:  python examples/tail_attribution.py
"""

import json
import math

import numpy as np

from repro.cluster import ClusterConfig, build_cluster, cluster_saturating_rate
from repro.faults import ClusterFaultConfig
from repro.obs import hooks
from repro.obs.causal import CausalCollector, trace_to_chrome
from repro.serve import AffineServiceModel
from repro.workloads.streams import poisson_arrivals

NUM_REQUESTS = 20_000
SEED = 7

SERVICE = AffineServiceModel(base=5e-4, per_query=2e-5, knee=16)
CONFIG = ClusterConfig(
    data_nodes=8,
    service_nodes=4,
    shards=4,
    replicas=24,
    racks=2,
    slots_per_node=2,
    slo=0.05,
)


def run_fleet(collector=None):
    """One faulted fleet run just past saturation (queues form, tails stretch)."""
    rate = 1.1 * cluster_saturating_rate(SERVICE, CONFIG)
    arrivals = poisson_arrivals(rate, NUM_REQUESTS, seed=SEED)
    fault_config = ClusterFaultConfig.from_spec(
        "node-crash=2,partition=1,slow-node=2",
        seed=SEED,
        horizon=0.8 * float(arrivals[-1]),
    )
    simulator = build_cluster(
        SERVICE, CONFIG, seed=SEED, fault_config=fault_config
    )
    if collector is None:
        return simulator.run(arrivals)
    with hooks.installed(collector=collector):
        return simulator.run(arrivals)


def main() -> None:
    # -- 1. tracing does not perturb the run --------------------------------
    bare = run_fleet()
    collector = CausalCollector(slowest_k=5, sample_size=8, seed=SEED)
    traced = run_fleet(collector)
    assert np.array_equal(bare.latencies, traced.latencies)
    print(
        f"traced run is bit-identical to the bare run "
        f"({traced.completed} completed, p99 {traced.p99 * 1e3:.1f} ms)\n"
    )

    # -- 2. the attribution report ------------------------------------------
    attribution = collector.report()
    print(attribution.render())

    # -- 3. conservation, checked by hand on the slowest request ------------
    slowest = attribution.slowest[0]
    stage_sum = math.fsum(seconds for _, seconds in slowest.stages)
    print(
        f"\nslowest request {slowest.request_id}: "
        f"latency {slowest.latency * 1e3:.3f} ms, "
        f"stage sum {stage_sum * 1e3:.3f} ms "
        f"(fault class: {slowest.fault_class})"
    )
    for name, seconds in slowest.stages:
        if seconds > 0.0:
            print(f"  {name:<16} {seconds * 1e3:9.3f} ms")

    # -- 4. export its causal graph for chrome://tracing / Perfetto ---------
    document = trace_to_chrome(slowest)
    with open("exemplar_trace.json", "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
    print(
        f"\nwrote exemplar_trace.json "
        f"({len(document['traceEvents'])} events) — open at ui.perfetto.dev"
    )


if __name__ == "__main__":
    main()
