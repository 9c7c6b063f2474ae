"""Tests for the same-runner A/B gate (benchmarks/perf_ab.py)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_loader = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / "benchmarks" / "perf_ab.py"
)
perf_ab = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(perf_ab)

#: A plausible median for every end-to-end metric.
VALUES = {
    "setup_s": 0.4,
    "throughput_per_s": 80_000.0,
    "peak_rss_mb": 57.0,
    "sim_goodput_per_s": 4387.0,
    "sim_p50_ms": 0.147,
    "sim_p99_ms": 13.3,
    "sim_slo_attainment": 0.69,
    "recall_at_5": 0.6,
}


def _line(scale=1.0, correct=True, **override):
    """One perfbench result line; ``scale`` multiplies the throughput."""
    values = {**VALUES, **override}
    values["throughput_per_s"] *= scale
    return {
        "correct": correct,
        "attempted": 1000,
        "failed": 0 if correct else 1000,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()},
    }


def _write(directory, runs, workload=None):
    """Three runs per workload; ``runs`` replaces them for ``workload``."""
    directory.mkdir(exist_ok=True)
    for name in WORKLOADS:
        lines = runs if workload in (None, name) else [_line()] * 3
        (directory / f"{name}.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
    return directory


def _gate(tmp_path, head_runs, workload="fleet-zipf"):
    base = _write(tmp_path / "base", [_line(0.99), _line(1.0), _line(1.01)])
    head = _write(tmp_path / "head", head_runs, workload)
    return perf_ab.gate(str(base), str(head))


def test_same_code_passes(tmp_path, capsys):
    assert _gate(tmp_path, [_line(1.01), _line(1.0), _line(0.98)]) == 0
    out = capsys.readouterr().out
    assert "head fleet-zipf.throughput_per_s: runs 80800 80000 78400;" in out
    assert "q1 79200 median 80000 q3 80400" in out


def test_throughput_drop_of_25pct_fails_and_10pct_passes(tmp_path):
    assert _gate(tmp_path, [_line(0.75)] * 3) == 1
    assert _gate(tmp_path, [_line(0.90)] * 3) == 0


def test_median_not_mean_decides(tmp_path):
    # One slow outlier run does not fail the gate.
    assert _gate(tmp_path, [_line(1.0), _line(0.3), _line(1.0)]) == 0


def test_peak_rss_rise_of_6pct_fails(tmp_path):
    rss = VALUES["peak_rss_mb"] * 1.06
    assert _gate(tmp_path, [_line(peak_rss_mb=rss)] * 3, "ssd-mixed") == 1


def test_incorrect_head_run_fails(tmp_path, capsys):
    runs = [_line(), _line(correct=False), _line()]
    assert _gate(tmp_path, runs, "device-query") == 1
    assert "BAD RUN     head device-query run 1" in capsys.readouterr().out


def test_nan_or_missing_head_metric_fails(tmp_path):
    # One NaN run poisons the median; sorting would otherwise hide it.
    assert _gate(tmp_path, [_line(sim_p99_ms=math.nan), _line(), _line()]) == 1
    missing = _line()
    del missing["metrics"]["recall_at_5"]
    assert _gate(tmp_path, [missing] * 3) == 1


@pytest.mark.parametrize("metric", SPEC["end_to_end"], ids=lambda m: m["name"])
def test_each_bound_is_enforced_in_its_worse_direction(tmp_path, metric):
    """Every band is the checked-in BENCHMARK.json bound and direction."""
    name, bound = metric["name"], metric["bound"]
    sign = -1.0 if metric["better"] == "higher" else 1.0

    def head(step):
        return [_line(**{name: VALUES[name] * (1.0 + sign * step)})] * 3

    base = _write(tmp_path / "base", [_line()] * 3)
    inside = _write(tmp_path / "inside", head(0.95 * bound))
    outside = _write(tmp_path / "outside", head(1.05 * bound))
    better = _write(tmp_path / "better", head(-2.0 * bound))
    assert perf_ab.gate(str(base), str(inside)) == 0
    assert perf_ab.gate(str(base), str(outside)) == 1
    assert perf_ab.gate(str(base), str(better)) == 0
