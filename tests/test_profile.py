"""Tests for the critical-path profiler (repro.obs.profile)."""

import json

import pytest

from repro import ECSSD, obs
from repro.errors import WorkloadError
from repro.obs import hooks
from repro.obs import FP32_TRACK, INT4_TRACK, PIPELINE_TRACK, Tracer
from repro.obs.profile import (
    merge_intervals,
    overlap_length,
    profile_trace,
    span_resource,
    total_length,
    transfer_interference,
)
from repro.obs.tracing import SpanRecord
from repro.workloads.synthetic import make_workload


@pytest.fixture(autouse=True)
def _restore_hooks():
    with hooks.installed():
        yield


def _run_instrumented(num_labels=1024, seed=7):
    """One instrumented inference; returns (session, device report)."""
    workload = make_workload(
        num_labels=num_labels, hidden_dim=128, num_queries=24, seed=seed
    )
    session = obs.configure(None)
    try:
        device = ECSSD()
        device.ecssd_enable()
        device.weight_deploy(
            workload.weights, train_features=workload.features[:16]
        )
        device.int4_input_send(workload.features[16:20])
        device.cfp32_input_send(device.pre_align(workload.features[16:20]))
        device.int4_screen()
    finally:
        session.uninstall()
    return session, device.last_report


# --- interval helpers --------------------------------------------------------------
class TestIntervals:
    def test_merge_unions_overlaps(self):
        merged = merge_intervals([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)])
        assert merged == [(0.0, 3.0), (5.0, 6.0)]
        assert total_length(merged) == 4.0

    def test_merge_drops_empty_intervals(self):
        assert merge_intervals([(1.0, 1.0), (2.0, 1.0)]) == []

    def test_overlap_length(self):
        a = [(0.0, 2.0), (4.0, 6.0)]
        b = [(1.0, 5.0)]
        assert overlap_length(a, b) == pytest.approx(2.0)
        assert overlap_length(a, []) == 0.0


# --- resource mapping --------------------------------------------------------------
class TestSpanResource:
    def test_explicit_attr_wins(self):
        span = SpanRecord(
            name="tile0/int4_fetch", sim_start=0.0, sim_end=1.0,
            attrs={"resource": "flash"},
        )
        assert span_resource(span) == "flash"

    def test_unknown_is_none(self):
        assert span_resource(SpanRecord(name="mystery")) is None


# --- synthetic-trace attribution ---------------------------------------------------
class TestAttribution:
    def _tracer_with_tile(self):
        """One overlap-mode tile: fp32_fetch binds the whole 10s window."""
        tracer = Tracer()
        tracer.add_span("tile0", 0.0, 10.0, track=PIPELINE_TRACK,
                        attrs={"index": 0})
        tracer.add_span("tile0/int4_fetch", 0.0, 2.0, track=INT4_TRACK,
                        attrs={"resource": "dram"})
        tracer.add_span("tile0/int4_compute", 0.0, 4.0, track=INT4_TRACK,
                        attrs={"resource": "int4-acc"})
        tracer.add_span("tile0/fp32_fetch", 0.0, 10.0, track=FP32_TRACK,
                        attrs={"resource": "flash"})
        tracer.add_span("tile0/fp32_compute", 0.0, 6.0, track=FP32_TRACK,
                        attrs={"resource": "fp32-acc"})
        return tracer

    def test_binding_span_takes_whole_window(self):
        report = profile_trace(self._tracer_with_tile().spans)
        tile = report.tiles[0]
        # fp32_fetch ends last everywhere, so it binds the full window.
        assert tile.seconds == {"flash": 10.0}
        assert [seg.span for seg in tile.critical_path] == ["tile0/fp32_fetch"]
        assert report.attribution_error == 0.0

    def test_serial_phases_chain_on_critical_path(self):
        tracer = Tracer()
        tracer.add_span("tile0", 0.0, 6.0, track=PIPELINE_TRACK)
        tracer.add_span("tile0/int4_fetch", 0.0, 2.0, track=INT4_TRACK,
                        attrs={"resource": "dram"})
        tracer.add_span("tile0/fp32_compute", 2.0, 6.0, track=FP32_TRACK,
                        attrs={"resource": "fp32-acc"})
        report = profile_trace(tracer.spans)
        tile = report.tiles[0]
        assert tile.seconds == {"dram": 2.0, "fp32-acc": 4.0}
        assert [seg.resource for seg in tile.critical_path] == [
            "dram", "fp32-acc"
        ]

    def test_uncovered_time_becomes_stall(self):
        tracer = Tracer()
        tracer.add_span("tile0", 0.0, 10.0, track=PIPELINE_TRACK)
        tracer.add_span("tile0/fp32_fetch", 0.0, 4.0, track=FP32_TRACK,
                        attrs={"resource": "flash"})
        report = profile_trace(tracer.spans)
        tile = report.tiles[0]
        assert tile.seconds["stall"] == pytest.approx(6.0)
        assert sum(tile.seconds.values()) == pytest.approx(tile.duration)

    def test_overhead_span_components_attributed(self):
        tracer = self._tracer_with_tile()
        tracer.add_span(
            "run_overhead", 10.0, 13.0, track=PIPELINE_TRACK,
            attrs={"sense_fill": 1.0, "pipeline_fill": 1.5,
                   "fill_resource": "dram", "host_time": 0.5},
        )
        report = profile_trace(tracer.spans)
        assert report.overhead == {
            "flash": 1.0, "dram": 1.5, "host": 0.5
        }
        # Whole run still sums to the window exactly.
        assert report.attribution_error < 1e-12

    def test_no_tile_spans_raises(self):
        tracer = Tracer()
        tracer.add_span("something_else", 0.0, 1.0, track="host")
        with pytest.raises(WorkloadError):
            profile_trace(tracer.spans)
        with pytest.raises(WorkloadError):
            profile_trace([])


# --- interference ------------------------------------------------------------------
class TestChannelAnalyses:
    def test_interference_overlap_and_penalty(self):
        tracer = Tracer()
        tracer.add_span("tile0", 0.0, 10.0, track=PIPELINE_TRACK,
                        attrs={"interference_penalty_s": 0.75})
        tracer.add_span("tile0/int4_fetch", 0.0, 4.0, track=INT4_TRACK)
        tracer.add_span("tile0/fp32_fetch", 2.0, 10.0, track=FP32_TRACK)
        stats = transfer_interference(tracer.spans)
        assert stats.int4_stream_s == 4.0
        assert stats.fp32_fetch_s == 8.0
        assert stats.overlap_s == pytest.approx(2.0)
        assert stats.overlap_fraction == pytest.approx(0.25)
        assert stats.penalty_s == pytest.approx(0.75)


# --- real instrumented runs --------------------------------------------------------
class TestEndToEnd:
    def test_attribution_sums_to_end_to_end_within_1pct(self):
        session, _report = _run_instrumented()
        profile = profile_trace(session.tracer.spans)
        assert profile.end_to_end_s > 0
        assert profile.attribution_error <= 0.01
        # The window is the device's model-level total time.
        assert profile.tiles, "expected at least one tile attribution"

    def test_report_carries_balance_and_interference(self):
        session, _report = _run_instrumented()
        profile = profile_trace(session.tracer.spans)
        # Heterogeneous layout: INT4 stream is DRAM traffic and the tile
        # windows overlap it with flash fetches.
        assert profile.interference.int4_stream_s > 0
        assert profile.interference.fp32_fetch_s > 0
        assert "dram" in profile.resources
        # Per-channel balance is page counts, kept by the metrics registry.
        pages = session.registry.get("ecssd_pages_fetched_total").samples()
        assert {dict(labels)["channel"] for labels, _value in pages}

    def test_report_json_is_deterministic(self):
        dumps = []
        for _ in range(2):
            session, _report = _run_instrumented()
            profile = profile_trace(session.tracer.spans)
            dumps.append(json.dumps(profile.to_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_render_mentions_headline_stats(self):
        session, _report = _run_instrumented()
        text = profile_trace(session.tracer.spans).render()
        assert "Attribution" in text
        assert "transfer interference" in text

    def test_timings_with_profiling_disabled_are_bit_identical(self):
        """Profiling is pure post-processing: it cannot perturb the run."""
        workload = make_workload(
            num_labels=512, hidden_dim=128, num_queries=24, seed=3
        )

        def run():
            device = ECSSD()
            device.ecssd_enable()
            device.weight_deploy(
                workload.weights, train_features=workload.features[:16]
            )
            device.int4_input_send(workload.features[16:20])
            device.cfp32_input_send(device.pre_align(workload.features[16:20]))
            device.int4_screen()
            return device.last_report

        baseline = run()  # recorders disabled: NULL singletons
        session = obs.configure(None)
        try:
            observed = run()
            profile_trace(session.tracer.spans)
        finally:
            session.uninstall()
        again = run()  # disabled again after uninstall
        assert observed.run.total_time == baseline.run.total_time
        assert again.run.total_time == baseline.run.total_time
        assert observed.run.overhead_time == baseline.run.overhead_time
        assert observed.run.fp32_busy == baseline.run.fp32_busy


# --- CLI ---------------------------------------------------------------------------
class TestProfileCli:
    def test_profile_cli_byte_identical_json(self, tmp_path, capsys):
        from repro.cli import main

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main([
                "profile", "--labels", "512", "--seed", "42",
                "--out", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report = json.loads(paths[0].read_text())
        assert report["attribution_error"] <= 0.01
        assert "overlap_fraction" in report["interference"]

    def test_profile_cli_resources_are_the_runs_own(self, tmp_path, capsys):
        """The CLI profiles exactly the spans the inference recorded.

        No span that the run did not produce (such as a replay of its page
        counts on a fresh device) may reach the per-resource rows.
        """
        from repro.cli import _screen_demo_queries, main

        path = tmp_path / "p.json"
        assert main([
            "profile", "--labels", "512", "--seed", "42", "--out", str(path),
        ]) == 0
        session = obs.configure(None)
        try:
            _screen_demo_queries(512, 42)
        finally:
            session.uninstall()
        expected = profile_trace(session.tracer.spans).to_dict()["resources"]
        assert json.loads(path.read_text())["resources"] == expected
