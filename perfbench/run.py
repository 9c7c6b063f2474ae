"""Simulator benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of the repository::

    python3 perfbench/run.py --workload fleet-zipf --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the traced variant and reports the
per-layer metrics, writing its spans to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import os

# All load comes from one thread: keep BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

perf = time.perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_REPS = 3  # set-ups per run; setup_s takes the median
IMPORT_SUBPROCESSES = 2  # extra first-import samples, each in a fresh interpreter
MIN_REPS = 2  # timed reps, so that every run checks rep-to-rep determinism
OBSERVER_PAIRS = 3
#: Reference-loop seconds of the nominal machine that host times are scaled to
#: (see README: "Host times at nominal speed").
NOMINAL_REF_S = 0.0125

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "sim_goodput_per_s": "1/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_slo_attainment": "ratio",
    "recall_at_5": "ratio",
}
SIM_METRICS = tuple(name for name in END_TO_END if name.startswith("sim_")) + (
    "recall_at_5",
)
CLUSTER_COUNTS = (
    "cluster.batches", "cluster.tasks", "cluster.steals", "cluster.redispatches",
    "cluster.parked", "cluster.scale_events", "serve.shed",
)
CLUSTER_RATIOS = (
    "cluster.cache_hit_ratio", "cluster.steal_ratio", "serve.admit_ratio",
)
DEVICE_RATIOS = (
    "screening.candidate_ratio", "screening.useful_ratio", "layout.channel_imbalance",
)
SSD_COUNTS = ("ssd.gc_events", "ssd.erases")
SSD_RATIOS = ("ssd.write_amplification", "ssd.channel_utilization")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"host.import_s": "s", "host.ref_loop_s": "s"}
    units.update({name: "s" for name in tracing.SETUP_METRICS})
    units.update({name: unit for name, (unit, _s, _k) in tracing.LAYER_METRICS.items()})
    units["cluster.host_us_per_request"] = "us"
    units.update({name: "count" for name in CLUSTER_COUNTS + SSD_COUNTS})
    units.update({name: "ratio" for name in CLUSTER_RATIOS + DEVICE_RATIOS + SSD_RATIOS})
    units.update({"api.call_p50_ms": "ms", "api.call_p99_ms": "ms"})
    units.update({name: "ratio" for name in tracing.OBSERVERS})
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nominal(seconds: float, reference: float) -> float:
    """``seconds`` scaled to the nominal machine's speed."""
    return seconds * NOMINAL_REF_S / reference


def import_in_process(modules):
    """(first-import seconds, reference-loop seconds just before)."""
    reference = workloads.ref_loop()
    start = perf()
    for module in modules:
        importlib.import_module(module)
    return perf() - start, reference


def import_in_subprocess(modules):
    """:func:`import_in_process` in a fresh interpreter."""
    code = (
        "import importlib, sys, time\n"
        "import numpy\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]\n"
        "import workloads\n"
        "reference = workloads.ref_loop()\n"
        "start = time.perf_counter()\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - start, reference)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    seconds, reference = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(reference)


def timed_setups(workload, seed, span_factory):
    """(seconds, reference-loop seconds just before) of each set-up."""
    samples = []
    for _ in range(SETUP_REPS):
        reference = workloads.ref_loop()
        start = perf()
        workload.setup(seed, span_factory)
        samples.append((perf() - start, reference))
    return samples


def median_nominal(samples) -> float:
    return statistics.median(nominal(seconds, ref) for seconds, ref in samples)


def rep_rate(rep) -> float:
    """Ops per nominal host second over the timed chunks of one rep."""
    return rep.ops / sum(nominal(seconds, ref) for _ops, seconds, ref in rep.chunks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def heldout_failures(workload_name, seed, rep) -> int:
    """Ops of ``rep`` failed because the held-out seed's record disagrees."""
    record = json.loads((HERE / "heldout.json").read_text())
    expected = record["sim"].get(workload_name)
    if seed != record["seed"] or expected is None:
        return 0
    return 0 if rep.sim == expected else rep.ops


def run_reps(workload, seconds):
    reps = []
    start = perf()
    while len(reps) < MIN_REPS or perf() - start < seconds:
        reps.append(workload.rep())
    return reps


def mismatched_ops(reference, reps) -> int:
    return sum(r.ops for r in reps if r.fingerprint != reference.fingerprint)


def end_to_end(args, workload, import_s):
    setups = timed_setups(workload, args.seed, workloads.no_span)
    setup_s = median_nominal(import_s) + median_nominal(setups)
    workload.warmup()
    reps = run_reps(workload, args.seconds)
    first = reps[0]
    failed = sum(r.failed for r in reps) + mismatched_ops(first, reps[1:])
    failed += heldout_failures(args.workload, args.seed, first)
    values = {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(rep_rate(rep) for rep in reps),
        "peak_rss_mb": peak_rss_mb(),
        **{name: first.sim.get(name, 0.0) for name in SIM_METRICS},
    }
    references = [ref for rep in reps for _ops, _s, ref in rep.chunks]
    raw_rates = [rep.ops / rep.host_s for rep in reps]
    sys.stderr.write(
        f"{args.workload}: {len(reps)} reps; raw host: import"
        f" {statistics.median(s for s, _r in import_s):.3f}s, set-up"
        f" {statistics.median(s for s, _r in setups):.3f}s, throughput"
        f" {statistics.median(raw_rates):.1f}/s; reference loop"
        f" {statistics.median(references) * 1e3:.2f} ms\n"
    )
    attempted = sum(r.ops for r in reps)
    return attempted, failed, values, END_TO_END


def traced(args, workload, import_s):
    recorder = tracing.SpanRecorder()
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    values["host.import_s"] = median_nominal(import_s)
    recorder.install()
    setup_spans = []
    try:
        for _ in range(SETUP_REPS):
            before = recorder.snapshot()
            workload.setup(args.seed, recorder.span)
            setup_spans.append(tracing.delta(before, recorder.snapshot()))
    finally:
        recorder.uninstall()
    for name, spans in tracing.SETUP_METRICS.items():
        values[name] = statistics.median(
            tracing.sum_spans(totals, spans, "total") for totals in setup_spans
        )
    failed = 0
    attempted = 0
    if args.workload == "fleet-zipf":
        ratios, observer_failed = tracing.observer_overheads(workload, OBSERVER_PAIRS)
        values.update(ratios)
        failed += observer_failed
        attempted += 2 * OBSERVER_PAIRS * len(ratios) * workload.REQUESTS
    # Untraced reference rep: output checks, exact counts, host times per op.
    workload.detail = True
    reference = workload.rep(check=True)
    workload.detail = False
    recorder.install()
    reps = []
    per_rep = {}
    start = perf()
    try:
        while not reps or perf() - start < args.seconds:
            recorder.keep = False
            workload.prepare()  # fresh state is not part of a rep's spans
            recorder.keep = not reps
            before = recorder.snapshot()
            reps.append(workload.rep(check=False))
            for name, values_ in tracing.delta(before, recorder.snapshot()).items():
                per_rep[name] = tuple(
                    a + b for a, b in zip(per_rep.get(name, (0.0, 0.0, 0)), values_)
                )
    finally:
        recorder.uninstall()
    values["host.ref_loop_s"] = statistics.median(
        ref for rep in [reference] + reps for _ops, _s, ref in rep.chunks
    )
    for name, (_unit, spans, kind) in tracing.LAYER_METRICS.items():
        values[name] = tracing.sum_spans(per_rep, spans, kind) / len(reps)
    for name in CLUSTER_COUNTS + CLUSTER_RATIOS + DEVICE_RATIOS + SSD_COUNTS + SSD_RATIOS:
        values[name] = float(reference.counts.get(name, 0.0))
    if "cluster.requests" in reference.counts:
        values["cluster.host_us_per_request"] = (
            reference.host_s / reference.counts["cluster.requests"] * 1e6
        )
    if reference.op_host_s:
        values["api.call_p50_ms"] = float(np.percentile(reference.op_host_s, 50)) * 1e3
        values["api.call_p99_ms"] = float(np.percentile(reference.op_host_s, 99)) * 1e3
    failed += reference.failed + mismatched_ops(reference, reps)
    failed += heldout_failures(args.workload, args.seed, reference)
    if recorder.nesting_violations:
        failed += reference.ops
    attempted += reference.ops + sum(r.ops for r in reps)
    recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return attempted, failed, values, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    import_s = [import_in_process(workload.modules)]
    import_s += [import_in_subprocess(workload.modules) for _ in range(IMPORT_SUBPROCESSES)]
    measure = traced if args.trace else end_to_end
    attempted, failed, values, units = measure(args, workload, import_s)
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
