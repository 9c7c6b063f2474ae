"""Tests for the unified telemetry subsystem (repro.obs)."""

import importlib.util
import json
import logging
import pathlib

import numpy as np
import pytest

from repro import ECSSD, ObservabilityConfig, obs
from repro.errors import ConfigurationError
from repro.obs import hooks
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.workloads.synthetic import make_workload


@pytest.fixture(autouse=True)
def _restore_hooks():
    with hooks.installed():
        yield


# --- metrics -----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("pages_total", "pages")
        counter.inc(3, channel=0)
        counter.inc(2, channel=0)
        counter.inc(7, channel=1)
        assert counter.value(channel=0) == 5
        assert counter.value(channel=1) == 7
        assert counter.total() == 12

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4)
        gauge.inc(2)
        gauge.inc(-5)
        assert gauge.value() == 1

    def test_registry_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_histogram_percentiles_interpolate(self):
        hist = MetricsRegistry().histogram("lat", buckets=tuple(range(1, 11)))
        for value in range(1, 11):  # one observation per bucket
            hist.observe(value)
        assert hist.count() == 10
        assert 4.0 <= hist.percentile(50.0) <= 6.0
        assert hist.percentile(100.0) == 10.0
        p = hist.quantiles()
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_histogram_single_value_is_exact(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        hist.observe(2.5)
        for p in (0.0, 50.0, 99.0):
            assert hist.percentile(p) == 2.5

    def test_histogram_empty_raises(self):
        hist = MetricsRegistry().histogram("lat")
        with pytest.raises(ConfigurationError):
            hist.percentile(50.0)

    def test_quantiles_or_none_on_empty_histogram(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.quantiles_or_none() is None
        hist.observe(2.0, level=1)
        assert hist.quantiles_or_none() is None  # unlabeled set still empty
        assert hist.quantiles_or_none(level=1) == hist.quantiles(level=1)

    def test_quantiles_or_none_matches_quantiles(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 8.0):
            hist.observe(value)
        assert hist.quantiles_or_none() == hist.quantiles()


# --- tracing -----------------------------------------------------------------------
class TestTracing:
    def test_span_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # inner finishes first
        assert inner.name == "inner" and inner.parent == "outer"
        assert inner.depth == 1 and outer.depth == 0
        assert outer.parent is None

    def test_sim_and_wall_clocks_are_independent(self):
        tracer = Tracer()
        with tracer.span("run") as span:
            span.set_sim_window(0.0, 2.5)
        record = tracer.spans[0]
        assert record.sim_duration == 2.5
        assert record.wall_duration is not None and record.wall_duration >= 0.0
        pre_timed = tracer.add_span("tile0", 1.0, 3.0)
        assert pre_timed.sim_duration == 2.0 and pre_timed.wall_duration is None

    def test_instant_events(self):
        tracer = Tracer()
        tracer.instant("gc", sim_time=1.5, attrs={"plane": [0, 0, 0, 0]})
        record = tracer.spans[0]
        assert record.kind == "instant" and record.sim_start == 1.5

    def test_invalid_sim_window_raises(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.add_span("bad", 2.0, 1.0)

    def test_find_filters_by_prefix_and_track(self):
        tracer = Tracer()
        tracer.add_span("tile0/int4_fetch", 0.0, 1.0, track="int4-module")
        tracer.add_span("tile0/fp32_fetch", 0.0, 2.0, track="fp32-module")
        tracer.add_span("tile1/fp32_fetch", 2.0, 3.0, track="fp32-module")
        assert len(tracer.find("tile0/")) == 2
        fp32_only = tracer.find("tile0/", track="fp32-module")
        assert [s.name for s in fp32_only] == ["tile0/fp32_fetch"]
        assert tracer.find("tile0/", track="nope") == []
        # The disabled tracer accepts the same signature and finds nothing.
        assert NullTracer().find("tile0/", track="fp32-module") == []


# --- the observer slot -------------------------------------------------------------
_perfbench_loader = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py",
)
perfbench_tracing = importlib.util.module_from_spec(_perfbench_loader)
_perfbench_loader.loader.exec_module(perfbench_tracing)


class TestHooks:
    def test_every_field_is_off_by_default(self):
        current = hooks.current()
        assert current == hooks.Hooks()
        assert current.registry is obs.NULL_REGISTRY
        assert current.tracer is obs.NULL_TRACER
        for name in ("collector", "sanitizer", "injector"):
            assert getattr(current, name) is hooks.OFF
            assert not getattr(current, name).enabled

    def test_installed_replaces_only_the_named_fields(self):
        tracer = Tracer()
        with hooks.installed(tracer=tracer) as installed:
            assert installed is hooks.current()
            assert installed.tracer is tracer
            assert installed.registry is obs.NULL_REGISTRY

    def test_none_switches_a_field_off(self):
        with hooks.installed(registry=MetricsRegistry(), tracer=Tracer()):
            with hooks.installed(registry=None, tracer=None) as inner:
                assert inner == hooks.Hooks()

    def test_nested_blocks_restore_in_order(self):
        outer, inner = Tracer(), Tracer()
        registry = MetricsRegistry()
        with hooks.installed(tracer=outer):
            with hooks.installed(tracer=inner, registry=registry):
                assert hooks.current().tracer is inner
                assert hooks.current().registry is registry
            assert hooks.current().tracer is outer
            assert hooks.current().registry is obs.NULL_REGISTRY
        assert hooks.current() == hooks.Hooks()

    def test_a_block_that_raises_still_restores(self):
        with pytest.raises(RuntimeError, match="boom"):
            with hooks.installed(tracer=Tracer(), registry=MetricsRegistry()):
                raise RuntimeError("boom")
        assert hooks.current() == hooks.Hooks()

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            with hooks.installed(profiler=Tracer()):
                pass
        with pytest.raises(TypeError):
            hooks.swap(profiler=None)
        assert hooks.current() == hooks.Hooks()

    def test_session_keeps_the_empty_recorders_it_is_given(self):
        # Both recorders define ``__len__``, so an empty one is falsy; the
        # session must still use it rather than build its own.
        tracer, registry = Tracer(), MetricsRegistry()
        assert len(tracer) == 0
        session = obs.Observability(tracer=tracer, registry=registry)
        assert session.tracer is tracer and session.registry is registry

    def test_session_restores_the_whole_record(self):
        session = obs.configure()
        assert hooks.current().tracer is session.tracer
        session.install()  # idempotent: keeps the record saved first
        session.uninstall()
        assert hooks.current() == hooks.Hooks()

    @pytest.mark.parametrize("switch, fields", [
        ("_telemetry", ("registry", "tracer")),
        ("_causal", ("collector",)),
        ("_simsan", ("sanitizer",)),
    ])
    def test_perfbench_observer_switches_use_the_slot(self, switch, fields):
        # perfbench turns each observer on through these public switches
        # (obs.configure, set_collector, set_sanitizer).
        with getattr(perfbench_tracing, switch)():
            for name in fields:
                assert getattr(hooks.current(), name).enabled
        assert hooks.current() == hooks.Hooks()


# --- no-op mode --------------------------------------------------------------------
class TestNoOpMode:
    def test_defaults_are_null_singletons(self):
        assert isinstance(hooks.current().registry, NullMetricsRegistry)
        assert isinstance(hooks.current().tracer, NullTracer)
        assert not hooks.current().registry.enabled
        assert not hooks.current().tracer.enabled

    def test_null_instruments_record_nothing(self):
        registry = hooks.current().registry
        counter = registry.counter("anything")
        counter.inc(5, channel=1)
        assert counter.value(channel=1) == 0.0
        assert registry.counter("other") is counter  # one shared no-op
        tracer = hooks.current().tracer
        with tracer.span("nope") as span:
            span.set_sim_window(0.0, 1.0)
        assert len(tracer) == 0

    def test_instrumented_run_matches_uninstrumented_bit_for_bit(self):
        workload = make_workload(
            num_labels=1024, hidden_dim=128, num_queries=24, seed=7
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
            return device.get_results(), device.last_report

        baseline_labels, baseline_report = run()
        session = obs.configure(ObservabilityConfig())
        try:
            observed_labels, observed_report = run()
        finally:
            session.uninstall()
        assert len(session.tracer.spans) > 0  # telemetry actually recorded
        np.testing.assert_array_equal(baseline_labels, observed_labels)
        assert observed_report.scaled_total_time == baseline_report.scaled_total_time
        assert observed_report.run.total_time == baseline_report.run.total_time
        assert observed_report.run.fp32_busy == baseline_report.run.fp32_busy


# --- exporters ---------------------------------------------------------------------
class TestExporters:
    def _session(self):
        session = obs.Observability()
        registry, tracer = session.registry, session.tracer
        registry.counter("ecssd_pages_fetched_total").inc(10, channel=0)
        registry.histogram("ecssd_tile_latency_seconds").observe(2e-3)
        tracer.add_span("tile0", 0.0, 2e-3, attrs={"index": 0})
        tracer.instant("gc", sim_time=1e-3)
        return session

    def test_prometheus_text_format(self):
        session = self._session()
        text = obs.to_prometheus_text(session.registry)
        assert "# HELP ecssd_pages_fetched_total" in text
        assert "# TYPE ecssd_pages_fetched_total counter" in text
        assert 'ecssd_pages_fetched_total{channel="0"} 10' in text
        assert "ftl_gc_total 0" in text  # pre-registered, never hit
        assert 'ecssd_tile_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "ecssd_tile_latency_seconds_count 1" in text
        # bucket counts are cumulative, hence non-decreasing
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("ecssd_tile_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_labeled_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "flash_command_latency_seconds", buckets=(1e-4, 1e-3, 1e-2)
        )
        hist.observe(5e-4, channel=0, kind="read")
        hist.observe(2e-3, channel=0, kind="read")
        hist.observe(5e-4, channel=1, kind="program")
        text = obs.to_prometheus_text(registry)
        lines = [
            line for line in text.splitlines()
            if line.startswith("flash_command_latency_seconds_bucket")
            and 'channel="0"' in line
        ]
        # One bucket line per bound plus +Inf, cumulative and le-ordered.
        assert len(lines) == 4
        les = [line.split('le="')[1].split('"')[0] for line in lines]
        assert les == ["0.0001", "0.001", "0.01", "+Inf"]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts) and counts[-1] == 2
        # Per-label-set _sum and _count rows exist.
        assert 'flash_command_latency_seconds_count{channel="0",kind="read"} 2' in text
        assert 'flash_command_latency_seconds_count{channel="1",kind="program"} 1' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_labels_total").inc(
            1, note='quote " backslash \\ newline \n done'
        )
        text = obs.to_prometheus_text(registry)
        line = next(
            l for l in text.splitlines() if l.startswith("odd_labels_total{")
        )
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        assert "\n" not in line  # the raw newline must not split the sample

    def test_jsonl_round_trip(self):
        session = self._session()
        lines = obs.to_jsonl(session.tracer, session.registry).splitlines()
        rows = [json.loads(line) for line in lines]
        types = {row["type"] for row in rows}
        assert {"span", "instant", "metric"} <= types
        spans = [r for r in rows if r["type"] == "span"]
        assert any(r["name"] == "tile0" and r["sim_end"] == 2e-3 for r in spans)

    def test_chrome_trace_field_contract(self):
        session = self._session()
        doc = json.loads(obs.to_chrome_trace(session.tracer))
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert isinstance(event["ts"], float)
                assert isinstance(event["dur"], float) and event["dur"] >= 0
            elif event["ph"] == "i":
                assert "dur" not in event and event["s"] == "t"
        # sim seconds are exported as microseconds
        tile = next(e for e in events if e["name"] == "tile0")
        assert tile["ts"] == 0.0 and abs(tile["dur"] - 2000.0) < 1e-9
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert tracks == {"pipeline"}

    def test_flush_writes_configured_outputs(self, tmp_path):
        config = ObservabilityConfig(
            trace_out=str(tmp_path / "t.json"),
            metrics_out=str(tmp_path / "m.prom"),
            jsonl_out=str(tmp_path / "o.jsonl"),
        )
        with obs.configure(config) as session:
            session.tracer.add_span("tile0", 0.0, 1e-3)
        assert hooks.current().tracer is not session.tracer  # restored on exit
        trace = json.loads((tmp_path / "t.json").read_text())
        assert any(e["name"] == "tile0" for e in trace["traceEvents"])
        assert "# TYPE" in (tmp_path / "m.prom").read_text()
        assert (tmp_path / "o.jsonl").read_text().strip()


# --- satellites --------------------------------------------------------------------
class TestSatellites:
    def test_observability_config_validates(self):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(trace_out="")

    def test_package_root_logger_has_null_handler(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_configure_logging_is_idempotent(self):
        root = obs.configure_logging(1)
        before = len(root.handlers)
        obs.configure_logging(2)
        assert len(root.handlers) == before
        assert root.level == logging.DEBUG

    def test_default_buckets_cover_device_timescales(self):
        assert DEFAULT_BUCKETS[0] <= 1e-6 and DEFAULT_BUCKETS[-1] >= 10.0


# --- CLI ---------------------------------------------------------------------------
class TestCli:
    def test_quickstart_emits_valid_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "quickstart",
                "--labels", "512",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
                "-v",
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert any(name.startswith("tile") for name in names)
        tracks = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        # Every slice is the run's own: no invented per-channel flash track.
        assert "pipeline" in tracks
        assert not any(track.startswith("flash/ch") for track in tracks)
        metrics = metrics_path.read_text()
        assert "ecssd_pages_fetched_total{" in metrics
        assert "ftl_gc_total" in metrics
        assert "ecssd_tile_latency_seconds_bucket" in metrics
        # globals restored: later runs are uninstrumented again
        assert not hooks.current().tracer.enabled

    @pytest.mark.parametrize("flag", ["--trace-out", "--jsonl-out"])
    @pytest.mark.parametrize("command", [
        ["serve", "--duration", "0.05", "--seed", "7"],
        ["quickstart", "--labels", "512"],
    ])
    def test_stream_out_rejected_with_span_exports(
        self, command, flag, tmp_path, capsys
    ):
        """Streamed spans bypass the tracer, so the other span export would
        be empty: the CLI refuses the pair before any work runs."""
        from repro.cli import main

        stream = tmp_path / "s.jsonl"
        other = tmp_path / "other.out"
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, str(other), "--jsonl-stream-out", str(stream)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jsonl-stream-out" in err and flag in err
        assert not stream.exists() and not other.exists()

    def test_profile_rejects_stream_out(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "p.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--labels", "512", "--jsonl-stream-out", str(stream)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jsonl-stream-out" in err and "--spans" in err
        assert not stream.exists()
