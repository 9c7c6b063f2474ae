"""Same-runner A/B gate: perfbench results of a head checkout against its base.

Usage::

    python3 benchmarks/perf_ab.py BASE_DIR HEAD_DIR

Each directory holds ``<workload>.jsonl``, one line per run: the last stdout
line of ``perfbench/run.py --trace 0``, with runs alternated between the two
checkouts on one machine.  For every workload and every ``end_to_end`` metric
of ``BENCHMARK.json``, each side's median over its runs is compared by
:func:`repro.obs.perfdiff.diff_metrics` under that metric's ``bound`` and
``better`` direction.  Exit status 1 on a regression beyond a bound, on a NaN
or missing head metric, or on a head run that is not ``correct`` or reports
failed operations.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

from repro.obs.perfdiff import HIGHER_IS_WORSE, LOWER_IS_WORSE, Tolerance, diff_metrics

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def tolerances(spec):
    """One band per end-to-end metric, keyed ``<workload>.<metric>``."""
    return tuple(
        Tolerance(
            f"*.{metric['name']}",
            metric["bound"],
            LOWER_IS_WORSE if metric["better"] == "higher" else HIGHER_IS_WORSE,
        )
        for metric in spec["end_to_end"]
    )


def quartiles(values):
    """(q1, median, q3) of the runs; all NaN if any run is NaN."""
    if any(math.isnan(v) for v in values):
        return (math.nan,) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def gate(base_dir, head_dir) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    medians = {"base": {}, "head": {}}
    bad_runs = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for side, directory in (("base", base_dir), ("head", head_dir)):
            text = (Path(directory) / f"{workload}.jsonl").read_text(encoding="utf-8")
            runs = [json.loads(line) for line in text.splitlines() if line.strip()]
            for index, run in enumerate(runs):
                if side == "head" and (run["correct"] is not True or run["failed"] != 0):
                    print(f"BAD RUN     head {workload} run {index}: correct"
                          f" {run['correct']}, failed {run['failed']}")
                    bad_runs += 1
            for name in (m["name"] for m in spec["end_to_end"]):
                values = [r["metrics"].get(name, {"value": math.nan})["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                medians[side][f"{workload}.{name}"] = median
                print(f"{side} {workload}.{name}: runs"
                      f" {' '.join(f'{v:.6g}' for v in values)};"
                      f" q1 {q1:.6g} median {median:.6g} q3 {q3:.6g}")
    report = diff_metrics(medians["base"], medians["head"], tolerances(spec))
    print(report.render(show_ok=True))
    return 1 if bad_runs or not report.ok else 0


if __name__ == "__main__":
    sys.exit(gate(*sys.argv[1:]) if len(sys.argv) == 3 else __doc__)
