"""Tests for streaming telemetry (repro.obs.streaming)."""

import json

import pytest

from repro import ObservabilityConfig, obs
from repro.errors import ConfigurationError, ObservabilityError
from repro.obs import hooks
from repro.obs import (
    JsonlSpanWriter,
    Tracer,
    read_jsonl_spans,
    spans_to_chrome_events,
    to_chrome_trace,
)
from repro.cluster import build_single_deployment, single_deployment_rate
from repro.serve import AffineServiceModel
from repro.workloads.streams import poisson_arrivals


@pytest.fixture(autouse=True)
def _restore_hooks():
    with hooks.installed():
        yield


def _spans(tracer, count, dt=0.01):
    for i in range(count):
        tracer.add_span(f"op{i}", i * dt, i * dt + dt / 2, track="t")


# --- JSONL writer ------------------------------------------------------------------
class TestJsonlSpanWriter:
    def test_flushes_on_threshold(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        writer = JsonlSpanWriter(path, flush_threshold=4)
        tracer = Tracer()
        _spans(tracer, 10)
        for span in tracer.spans:
            writer.write(span)
        assert writer.flushes == 2  # two full buffers of 4; 2 still buffered
        assert writer.lines_written == 8
        writer.close()
        assert writer.lines_written == 10
        assert len(read_jsonl_spans(path)) == 10

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlSpanWriter(str(tmp_path / "s.jsonl"))
        writer.close()
        tracer = Tracer()
        _spans(tracer, 1)
        with pytest.raises(ObservabilityError):
            writer.write(tracer.spans[0])
        writer.close()  # idempotent

    def test_file_byte_identical_to_in_memory_export(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        streamed = Tracer()
        streamed.attach_sink(JsonlSpanWriter(path, flush_threshold=3))
        _spans(streamed, 11)
        streamed.sink.close()

        in_memory = Tracer()
        _spans(in_memory, 11)
        expected = "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in in_memory.spans
        )
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == expected

    def test_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSpanWriter(str(tmp_path / "s.jsonl"), flush_threshold=0)


# --- the tracer's streaming sink ---------------------------------------------------
class TestStreamingSpanSink:
    def test_attach_none_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer().attach_sink(None)

    def test_config_wiring_and_flush(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        config = ObservabilityConfig(jsonl_stream_out=path)
        with obs.configure(config) as session:
            _spans(hooks.current().tracer, 40)
            written = session.flush()
        assert path in written
        assert len(read_jsonl_spans(path)) == 40
        assert session.sink.lines_written == 40
        assert session.tracer.spans == []  # nothing retained in memory

    def test_stream_excludes_the_in_memory_span_exports(self, tmp_path):
        stream = str(tmp_path / "stream.jsonl")
        with pytest.raises(ConfigurationError, match="trace_out"):
            ObservabilityConfig(jsonl_stream_out=stream, trace_out=str(tmp_path / "x"))


# --- exporter round-trips ----------------------------------------------------------
class TestExporterRoundTrip:
    def test_jsonl_round_trip_preserves_records(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        tracer = Tracer()
        _spans(tracer, 7)
        tracer.instant("checkpoint", sim_time=0.5, attrs={"tick": 3})
        writer = JsonlSpanWriter(path)
        for span in tracer.spans:
            writer.write(span)
        writer.close()
        assert read_jsonl_spans(path) == tracer.spans

    def test_chrome_trace_identical_via_stream(self, tmp_path):
        """Streamed spans re-export to the same Chrome trace document."""
        path = str(tmp_path / "s.jsonl")
        streamed = Tracer()
        streamed.attach_sink(JsonlSpanWriter(path))
        _spans(streamed, 25)
        streamed.sink.close()

        in_memory = Tracer()
        _spans(in_memory, 25)
        restored = spans_to_chrome_events(read_jsonl_spans(path))
        direct = json.loads(to_chrome_trace(in_memory))["traceEvents"]
        assert restored == direct


# --- bounded-memory serving run ----------------------------------------------------
class TestBoundedServingRun:
    def _simulator(self):
        service = AffineServiceModel(
            base=2.0e-4, per_query=2.0e-5, knee=32, candidate_fraction=0.7
        )
        rate = 1.2 * single_deployment_rate(service, 0.02, shards=2)
        return build_single_deployment(service, 0.02, shards=2), rate

    def test_100k_request_run_streams_the_in_memory_trace(self, tmp_path):
        """A 100k-request serve run streams every span to disk, keeps none
        in memory, and the file re-exports to the same Chrome trace as the
        in-memory run of the same arrivals."""
        num_requests = 100_000
        simulator, rate = self._simulator()
        arrivals = poisson_arrivals(rate, num_requests, seed=0)

        # Streaming leg: every span goes to the file, none to the list.
        path = str(tmp_path / "spans.jsonl")
        writer = JsonlSpanWriter(path)
        tracer = Tracer()
        tracer.attach_sink(writer)
        hooks.swap(tracer=tracer)
        report_streamed = simulator.run(arrivals)
        writer.close()

        assert report_streamed.arrived == num_requests
        assert len(tracer.spans) == 0

        # In-memory leg: same seeded run, unbounded retention.
        simulator2, _ = self._simulator()
        unbounded = Tracer()
        hooks.swap(tracer=unbounded)
        report_memory = simulator2.run(arrivals)

        assert len(unbounded.spans) == writer.lines_written
        assert report_memory.goodput == report_streamed.goodput
        restored = Tracer()
        restored.spans = read_jsonl_spans(path)
        assert to_chrome_trace(restored) == to_chrome_trace(unbounded)
