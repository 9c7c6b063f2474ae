"""Tests for the perf-regression differ (repro.obs.perfdiff)."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.perfdiff import (
    BOTH,
    HIGHER_IS_WORSE,
    LOWER_IS_WORSE,
    Tolerance,
    diff_files,
    diff_metrics,
    flatten_metrics,
    load_metrics_file,
    parse_tolerance_spec,
)

BASE = {
    "seed": 42,
    "slo_attained": True,
    "trajectory": [
        {"p99_ms": 4.0, "goodput_qps": 1000.0},
        {"p99_ms": 8.0, "goodput_qps": 900.0},
    ],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFlatten:
    def test_nested_paths_and_bools(self):
        flat = flatten_metrics(BASE)
        assert flat["seed"] == 42.0
        assert flat["slo_attained"] == 1.0
        assert flat["trajectory.0.p99_ms"] == 4.0
        assert flat["trajectory.1.goodput_qps"] == 900.0

    def test_strings_and_nulls_are_skipped(self):
        flat = flatten_metrics({"name": "x", "missing": None, "v": 1})
        assert flat == {"v": 1.0}


class TestClassification:
    def test_identical_inputs_are_ok(self):
        report = diff_metrics(flatten_metrics(BASE), flatten_metrics(BASE))
        assert report.ok and report.exit_code == 0
        assert report.regressions == []

    def test_20pct_p99_regression_fails(self):
        candidate = json.loads(json.dumps(BASE))
        for point in candidate["trajectory"]:
            point["p99_ms"] *= 1.2
        report = diff_metrics(
            flatten_metrics(BASE), flatten_metrics(candidate)
        )
        assert not report.ok and report.exit_code == 1
        keys = {e.key for e in report.regressions}
        assert "trajectory.0.p99_ms" in keys

    def test_latency_improvement_is_not_regression(self):
        candidate = json.loads(json.dumps(BASE))
        for point in candidate["trajectory"]:
            point["p99_ms"] *= 0.5  # much faster
        report = diff_metrics(
            flatten_metrics(BASE), flatten_metrics(candidate)
        )
        assert report.ok
        assert {e.key for e in report.improvements} >= {"trajectory.0.p99_ms"}

    def test_goodput_drop_regresses_but_gain_does_not(self):
        down = json.loads(json.dumps(BASE))
        down["trajectory"][0]["goodput_qps"] *= 0.8
        assert not diff_metrics(
            flatten_metrics(BASE), flatten_metrics(down)
        ).ok
        up = json.loads(json.dumps(BASE))
        up["trajectory"][0]["goodput_qps"] *= 1.2
        assert diff_metrics(flatten_metrics(BASE), flatten_metrics(up)).ok

    def test_exempt_metadata_never_regresses(self):
        candidate = json.loads(json.dumps(BASE))
        candidate["seed"] = 9999
        assert diff_metrics(
            flatten_metrics(BASE), flatten_metrics(candidate)
        ).ok

    def test_boolean_flag_flip_regresses(self):
        candidate = json.loads(json.dumps(BASE))
        candidate["slo_attained"] = False
        report = diff_metrics(
            flatten_metrics(BASE), flatten_metrics(candidate)
        )
        assert {e.key for e in report.regressions} == {"slo_attained"}

    def test_missing_key_is_regression_new_key_is_not(self):
        baseline = {"p99_ms": 4.0}
        candidate = {"extra_qps": 5.0}
        report = diff_metrics(
            flatten_metrics(baseline), flatten_metrics(candidate)
        )
        assert [e.key for e in report.regressions] == ["p99_ms"]
        assert [e.key for e in report.new_keys] == ["extra_qps"]

    def test_zero_baseline_uses_abs_floor(self):
        report = diff_metrics({"shed_rate": 0.0}, {"shed_rate": 0.5})
        assert not report.ok  # any growth from zero is a huge rel delta

    def test_nan_candidate_is_regression(self):
        report = diff_metrics({"p99_ms": 1.0}, {"p99_ms": math.nan})
        assert [e.key for e in report.regressions] == ["p99_ms"]
        assert report.exit_code == 1
        assert "+nan%" in report.render()

    def test_nan_candidate_passes_exempt_band_or_nan_baseline(self):
        assert diff_metrics({"seed": 1.0}, {"seed": math.nan}).ok
        assert diff_metrics({"p99_ms": math.nan}, {"p99_ms": math.nan}).ok

    def test_extra_tolerance_overrides_default(self):
        candidate = json.loads(json.dumps(BASE))
        candidate["trajectory"][0]["p99_ms"] *= 1.2
        loose = (Tolerance("*p99*", 0.5, HIGHER_IS_WORSE),)
        report = diff_metrics(
            flatten_metrics(BASE),
            flatten_metrics(candidate),
            tolerances=loose + tuple(),
        )
        assert report.ok


class TestToleranceSpec:
    def test_parse_full_spec(self):
        tolerance = parse_tolerance_spec("*p99*=0.25:higher_is_worse")
        assert tolerance.pattern == "*p99*"
        assert tolerance.rel_tol == 0.25
        assert tolerance.direction == HIGHER_IS_WORSE

    def test_parse_defaults_direction_to_both(self):
        assert parse_tolerance_spec("*x*=0.1").direction == BOTH

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_tolerance_spec("no-equals-sign")
        with pytest.raises(ConfigurationError):
            parse_tolerance_spec("*x*=notanumber")
        with pytest.raises(ConfigurationError):
            Tolerance("*", -0.1)
        with pytest.raises(ConfigurationError):
            Tolerance("*", 0.1, "sideways")

    def test_nan_band_is_rejected(self):
        # A NaN band would pass every delta, e.g. a 100x p99 rise.
        with pytest.raises(ConfigurationError):
            parse_tolerance_spec("*p99*=nan:higher_is_worse")
        with pytest.raises(ConfigurationError):
            Tolerance("*", math.nan)
        with pytest.raises(ConfigurationError):
            diff_metrics({"x": 1.0}, {"x": 1.0}, default_rel_tol=math.nan)


class TestFiles:
    def test_diff_files_round_trip(self, tmp_path):
        baseline = _write(tmp_path, "base.json", BASE)
        candidate = _write(tmp_path, "cand.json", BASE)
        assert diff_files(baseline, candidate).exit_code == 0

    def test_diff_files_extra_tolerances_win(self, tmp_path):
        regressed = json.loads(json.dumps(BASE))
        regressed["trajectory"][0]["p99_ms"] *= 1.2
        baseline = _write(tmp_path, "base.json", BASE)
        candidate = _write(tmp_path, "cand.json", regressed)
        assert diff_files(baseline, candidate).exit_code == 1
        report = diff_files(
            baseline, candidate,
            extra_tolerances=(Tolerance("*p99*", 0.5, HIGHER_IS_WORSE),),
        )
        assert report.exit_code == 0

    def test_bad_json_raises_configuration_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_metrics_file(str(bad))

    def test_render_names_the_verdict(self, tmp_path):
        regressed = json.loads(json.dumps(BASE))
        regressed["trajectory"][0]["p99_ms"] *= 1.2
        report = diff_files(
            _write(tmp_path, "a.json", BASE),
            _write(tmp_path, "b.json", regressed),
        )
        text = report.render()
        assert "REGRESSION" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["regressions"]


class TestCli:
    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        baseline = _write(tmp_path, "base.json", BASE)
        identical = _write(tmp_path, "same.json", BASE)
        regressed_payload = json.loads(json.dumps(BASE))
        for point in regressed_payload["trajectory"]:
            point["p99_ms"] *= 1.2
        regressed = _write(tmp_path, "bad.json", regressed_payload)

        assert main(["perf-diff", baseline, identical]) == 0
        assert main(["perf-diff", baseline, regressed]) == 1
        # A CLI tolerance override loosens the band back to passing.
        assert main([
            "perf-diff", baseline, regressed,
            "--tolerance", "*p99*=0.5:higher_is_worse",
        ]) == 0
        out = capsys.readouterr().out
        assert "perf-diff" in out

    def test_cli_writes_report_json(self, tmp_path, capsys):
        from repro.cli import main

        baseline = _write(tmp_path, "base.json", BASE)
        out_path = tmp_path / "diff.json"
        assert main([
            "perf-diff", baseline, baseline, "--out", str(out_path)
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True

    def test_lower_is_worse_direction_constant(self):
        # Direction names are part of the CLI contract; keep them stable.
        assert LOWER_IS_WORSE == "lower_is_worse"
