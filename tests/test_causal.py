"""Tests for per-request causal tracing + tail attribution (repro.obs.causal).

The two properties the module exists for:

* **Conservation** — every request's stage durations telescope exactly to
  its end-to-end latency (the collector itself raises on violation; the
  tests re-check the invariant from the emitted traces).
* **Zero overhead when disabled** — a run with the collector installed is
  bit-identical (latencies, report JSON, run ID, digest track) to the same
  run without it, including under the sim-sanitizer.
"""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.cluster import (
    ClusterConfig,
    build_cluster,
    build_single_deployment,
    cluster_saturating_rate,
    single_deployment_rate,
)
from repro.errors import WorkloadError
from repro.faults import ClusterFaultConfig
from repro.lint.simsan import SimSanitizer
from repro.lint.simsan import installed as simsan_installed
from repro.obs import DigestRecorder, RunManifest, Tracer, diverge_runs, hooks
from repro.obs.causal import (
    FAULT_CLASSES,
    STAGES,
    AttributionReport,
    CausalCollector,
    RequestTrace,
    TailExemplarStore,
    trace_spans,
    trace_to_chrome,
)
from repro.obs.profile import profile_trace
from repro.serve import AffineServiceModel
from repro.workloads.streams import poisson_arrivals

#: Fast pure-Python service model (same shape as tests/test_cluster.py).
SERVICE = AffineServiceModel(base=5e-4, per_query=2e-5, knee=16)
CONFIG = ClusterConfig(
    data_nodes=8,
    service_nodes=2,
    shards=4,
    replicas=12,
    racks=2,
    slots_per_node=2,
    slo=0.05,
)


@pytest.fixture(autouse=True)
def _restore_hooks():
    with hooks.installed():
        yield


def run_fleet(
    multiplier=0.8,
    seed=7,
    num_requests=4000,
    config=CONFIG,
    fault_config=None,
    collector=None,
    recorder=None,
):
    """Fresh fleet replaying a Poisson stream; optionally collected."""
    rate = multiplier * cluster_saturating_rate(SERVICE, config)
    arrivals = poisson_arrivals(rate, num_requests, seed=seed)
    if fault_config is None:
        fault_config = ClusterFaultConfig.disabled()
    simulator = build_cluster(
        SERVICE, config, seed=seed, fault_config=fault_config,
        digest_recorder=recorder,
    )
    with hooks.installed(collector=collector):
        return simulator.run(arrivals)


def faulted_config(seed=7, horizon=0.05):
    return ClusterFaultConfig.from_spec(
        "node-crash=2,partition=1,slow-node=2", seed=seed, horizon=horizon
    )


class TestCollectorGuard:
    def test_default_collector_is_null_and_disabled(self):
        collector = hooks.current().collector
        assert collector is hooks.OFF
        assert not collector.enabled

    def test_installed_restores_previous(self):
        live = CausalCollector()
        with hooks.installed(collector=live):
            assert hooks.current().collector is live
        assert not hooks.current().collector.enabled


class TestConservation:
    def test_stage_sums_equal_latency_under_faults(self):
        collector = CausalCollector(seed=7, keep_traces=True)
        report = run_fleet(
            multiplier=1.1, fault_config=faulted_config(), collector=collector
        )
        attribution = collector.report()
        assert attribution.completed == report.completed
        traces = list(collector.traces())
        assert len(traces) == report.completed
        for trace in traces:
            total = math.fsum(seconds for _, seconds in trace.stages)
            assert total == pytest.approx(trace.latency, rel=1e-9, abs=1e-12)

    def test_stage_names_are_from_taxonomy(self):
        collector = CausalCollector(seed=7, keep_traces=True)
        run_fleet(fault_config=faulted_config(), collector=collector)
        for trace in collector.traces():
            for name, seconds in trace.stages:
                assert name in STAGES
                assert seconds >= 0.0

    def test_fault_classes_partition_requests(self):
        collector = CausalCollector(seed=7)
        report = run_fleet(
            multiplier=1.1, fault_config=faulted_config(), collector=collector
        )
        attribution = collector.report()
        assert set(attribution.fault_classes) <= set(FAULT_CLASSES)
        assert (
            sum(b["count"] for b in attribution.fault_classes.values())
            == report.completed
        )

    def test_shares_sum_to_one(self):
        collector = CausalCollector(seed=7)
        run_fleet(fault_config=faulted_config(), collector=collector)
        attribution = collector.report()
        total_share = math.fsum(
            block["share"] for block in attribution.stages.values()
        )
        assert total_share == pytest.approx(1.0, rel=1e-9)


class TestBitIdentity:
    def test_traced_run_matches_untraced(self):
        plain = run_fleet(multiplier=1.1, fault_config=faulted_config())
        traced = run_fleet(
            multiplier=1.1,
            fault_config=faulted_config(),
            collector=CausalCollector(seed=7),
        )
        assert np.array_equal(plain.latencies, traced.latencies)
        a = json.dumps(plain.to_dict(), sort_keys=True)
        b = json.dumps(traced.to_dict(), sort_keys=True)
        assert a == b

    def test_digest_tracks_do_not_diverge(self):
        recorder_a = DigestRecorder(interval=64, label="fleet")
        recorder_b = DigestRecorder(interval=64, label="fleet")
        run_fleet(fault_config=faulted_config(), recorder=recorder_a)
        run_fleet(
            fault_config=faulted_config(),
            recorder=recorder_b,
            collector=CausalCollector(seed=7),
        )
        manifest_a = RunManifest.build(
            "plain", 7, {"mode": "cluster"}, {"requests": 4000},
            digests=recorder_a.entries,
        )
        manifest_b = RunManifest.build(
            "traced", 7, {"mode": "cluster"}, {"requests": 4000},
            digests=recorder_b.entries,
        )
        assert manifest_a.run_id == manifest_b.run_id
        divergence = diverge_runs(manifest_a, manifest_b)
        assert not divergence.diverged
        assert divergence.compared == len(recorder_a.entries)

    def test_bit_identity_holds_under_simsan(self):
        # A fresh sanitizer per run: each run restarts the sim clock at
        # zero, which a shared monotone-time check would flag.
        with simsan_installed(SimSanitizer()) as sanitizer_plain:
            plain = run_fleet(multiplier=1.1, fault_config=faulted_config())
        with simsan_installed(SimSanitizer()) as sanitizer_traced:
            traced = run_fleet(
                multiplier=1.1,
                fault_config=faulted_config(),
                collector=CausalCollector(seed=7),
            )
        assert np.array_equal(plain.latencies, traced.latencies)
        assert not sanitizer_plain.violations
        assert not sanitizer_traced.violations


class TestExemplars:
    def _trace(self, request_id, arrival, latency):
        return RequestTrace(
            trace_id=f"t{request_id}",
            request_id=request_id,
            kind="serve",
            arrival=arrival,
            completion=arrival + latency,
            fault_class="clean",
            stages=(("queue_wait", latency / 2), ("service", latency / 2)),
            boundaries=(
                ("arrival", arrival),
                ("dispatch", arrival + latency / 2),
                ("completion", arrival + latency),
            ),
        )

    def test_slowest_k_ordering(self):
        store = TailExemplarStore(slowest_k=3, sample_size=0, seed=0)
        for rid in range(10):
            store.offer(self._trace(rid, rid * 0.1, 1e-3 * (rid % 5 + 1)))
        slowest = store.slowest()
        assert len(slowest) == 3
        latencies = [t.latency for t in slowest]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] == pytest.approx(5e-3)

    def test_slowest_ties_break_deterministically(self):
        store = TailExemplarStore(slowest_k=2, sample_size=0, seed=0)
        for rid in (5, 1, 9):
            store.offer(self._trace(rid, 0.0, 2e-3))
        ids = [t.request_id for t in store.slowest()]
        assert ids == [1, 5]  # equal latency: smaller request id wins

    def test_reservoir_is_seed_deterministic(self):
        def fill(seed):
            store = TailExemplarStore(slowest_k=2, sample_size=4, seed=seed)
            for rid in range(100):
                store.offer(self._trace(rid, rid * 0.01, 1e-3))
            return [t.request_id for t in store.sampled()]

        assert fill(3) == fill(3)
        assert fill(3) != fill(4)

    def test_sampled_excludes_slowest(self):
        store = TailExemplarStore(slowest_k=4, sample_size=16, seed=0)
        for rid in range(20):
            store.offer(self._trace(rid, rid * 0.01, 1e-3 * (rid + 1)))
        slow_ids = {t.request_id for t in store.slowest()}
        assert not slow_ids & {t.request_id for t in store.sampled()}

    def test_report_is_byte_identical_per_seed(self):
        def attribution_json():
            collector = CausalCollector(slowest_k=4, sample_size=8, seed=7)
            run_fleet(fault_config=faulted_config(), collector=collector)
            return json.dumps(collector.report().to_dict(), sort_keys=True)

        assert attribution_json() == attribution_json()


class TestChromeExport:
    def test_trace_spans_link_causally(self):
        collector = CausalCollector(seed=7)
        run_fleet(
            multiplier=1.1, fault_config=faulted_config(), collector=collector
        )
        exemplar = collector.report().slowest[0]
        spans = trace_spans(exemplar)
        assert len(spans) == len(exemplar.stages)
        names = [s.attrs["stage"] for s in spans]
        assert names == [name for name, _ in exemplar.stages]
        # every span after the first is causally linked to its predecessor
        assert spans[0].attrs["after"] is None
        for prev, span in zip(spans, spans[1:]):
            assert span.attrs["after"] == prev.attrs["stage"]

    def test_chrome_document_shape(self):
        collector = CausalCollector(seed=7)
        run_fleet(fault_config=faulted_config(), collector=collector)
        exemplar = collector.report().slowest[0]
        document = trace_to_chrome(exemplar)
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ns"
        json.dumps(document)  # JSON-safe


class TestQuantileSurfaces:
    def test_histogram_quantiles_include_p999(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("latency")
        for value in range(1000):
            histogram.observe(value / 1000.0)
        quantiles = histogram.quantiles()
        assert "p99.9" in quantiles
        assert quantiles["p99.9"] >= quantiles["p99"]

    def test_cluster_report_exposes_p999(self):
        report = run_fleet()
        payload = report.to_dict()
        assert payload["p999_s"] is not None
        assert payload["p999_s"] >= payload["p99_s"]

    def test_serving_report_exposes_p999(self):
        rate = 0.5 * single_deployment_rate(SERVICE, 0.02, replicas=2)
        deployment = build_single_deployment(SERVICE, 0.02, replicas=2)
        report = deployment.run(poisson_arrivals(rate, 500, seed=3))
        payload = report.to_serving_dict()
        assert payload["p999_s"] is not None
        assert payload["p999_s"] >= payload["p99_s"]


class TestFleetProfile:
    def test_profile_trace_rejects_cluster_spans(self):
        """Fleet latency has one report: causal attribution, not spans."""
        tracer = Tracer()
        with hooks.installed(tracer=tracer):
            run_fleet()
        assert any(s.track == obs.CLUSTER_TRACK for s in tracer.spans)
        with pytest.raises(WorkloadError, match="trace attribute"):
            profile_trace(tracer.spans)


class TestAttributionReport:
    def test_stage_metrics_names_hit_scoring_patterns(self):
        collector = CausalCollector(seed=7)
        run_fleet(fault_config=faulted_config(), collector=collector)
        metrics = collector.report().stage_metrics()
        assert "stage_queue_wait_p99_ms" in metrics
        assert "latency_p999_ms" in metrics
        assert any(key.startswith("tail_") for key in metrics)

    def test_empty_run_reports_cleanly(self):
        attribution = CausalCollector(seed=0).report()
        assert isinstance(attribution, AttributionReport)
        assert attribution.completed == 0
        assert attribution.stages == {}
        json.dumps(attribution.to_dict())
        assert attribution.render()


class TestTraceAttributeCli:
    def test_small_run_produces_report_and_exemplar(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "attribution.json"
        exemplar = tmp_path / "exemplar.json"
        code = main([
            "trace", "attribute",
            "--requests", "800",
            "--seed", "3",
            "--out", str(out),
            "--exemplar-out", str(exemplar),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "p99.9" in captured
        payload = json.loads(out.read_text())
        assert payload["attribution"]["completed"] > 0
        stages = payload["attribution"]["stages"]
        assert set(stages) <= set(STAGES)
        chrome = json.loads(exemplar.read_text())
        assert chrome["traceEvents"]
