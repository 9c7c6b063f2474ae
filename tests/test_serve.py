"""Tests for the deterministic SLO-aware serving layer (repro.serve).

A single deployment runs as a one-node fleet
(:func:`repro.cluster.build_single_deployment`), so the run-level tests
here drive the fleet loop through that builder.
"""

from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cluster import (
    LATENCY_UNSET,
    REQUEST_BYTES,
    ClusterReport,
    build_latency_array,
    build_single_deployment,
    single_deployment_rate,
)
from repro.core.batching import BatchPoint
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.obs import CLUSTER_TRACK
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    DEFAULT_LADDER_STEPS,
    AffineServiceModel,
    DeadlineBatcher,
    DegradationLadder,
    DegradeStep,
    Request,
    ServiceNodeCore,
    TokenBucket,
    shard_hot_degrees,
)
from repro.serve.kernel import EventKernel
from repro.serve.sharding import MERGE_BANDWIDTH, MERGE_ENTRY_BYTES, TOP_K
from repro.workloads.streams import poisson_arrivals
from repro.workloads.traces import CandidateTraceGenerator, LabelHotnessModel

#: A fast, pure-Python service model: 0.2 ms base, 0.1 ms/query, knee at 8.
SERVICE = AffineServiceModel(
    base=2e-4, per_query=1e-4, knee=8, candidate_fraction=0.7
)
SLO = 0.02
SHARDS = 2
REPLICAS = 2


def build(slo=SLO, shards=SHARDS, replicas=REPLICAS, **kwargs):
    """A fresh one-node fleet for ``SERVICE`` (2 shards x 2 replicas)."""
    return build_single_deployment(SERVICE, slo, shards, replicas, **kwargs)


def run_at(multiplier, seed=0, num_queries=2000):
    """Fresh deployment replaying a Poisson stream at ``multiplier`` x saturation."""
    rate = multiplier * single_deployment_rate(SERVICE, SLO, SHARDS, REPLICAS)
    arrivals = poisson_arrivals(rate, num_queries, seed=seed)
    return build().run(arrivals)


def assert_same_report(a, b):
    """Two runs agree on every summary field and every request's latency."""
    assert a.to_dict() == b.to_dict()
    assert a.to_serving_dict() == b.to_serving_dict()
    np.testing.assert_array_equal(a.latencies, b.latencies)


@contextmanager
def batch_log():
    """Request ids of every batch a service node forms, in dispatch order.

    The fleet looks ``ServiceNodeCore.form_batch`` up on the class at call
    time, so a wrapper installed here sees every batch.
    """
    batches = []
    form_batch = ServiceNodeCore.form_batch

    def logged(core):
        batch = form_batch(core)
        batches.append([request.request_id for request in batch])
        return batch

    ServiceNodeCore.form_batch = logged
    try:
        yield batches
    finally:
        ServiceNodeCore.form_batch = form_batch


class TestRequestTypes:
    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            Request(request_id=0, arrival=1.0, deadline=0.5)

    def test_empty_report_percentile_raises(self):
        report = ClusterReport(
            config={}, slo=0.02, arrived=5, completed=0, shed=5, cache_hits=0,
            latencies=build_latency_array(5), tasks_done=0, steals=0,
            redispatches=0, parked_events=0, parked_time=0.0, batches=0,
            scale_ups=0, scale_downs=0, peak_active_service_nodes=1,
            node_busy=[0.0], makespan=0.0,
        )
        with pytest.raises(WorkloadError, match="percentiles"):
            report.percentile(99.0)
        assert report.goodput == 0.0
        assert report.slo_attainment == 0.0
        assert report.to_serving_dict()["p99_s"] is None

    def test_percentile_range_validated(self):
        report = run_at(0.5, num_queries=200)
        with pytest.raises(WorkloadError, match="percentile"):
            report.percentile(101.0)

    def test_to_dict_is_json_safe(self):
        import json

        payload = run_at(0.5, num_queries=200).to_serving_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestRequestQueue:
    """The service node's FIFO: admitted requests leave in arrival order."""

    @staticmethod
    def _core():
        return ServiceNodeCore(
            AdmissionController(AdmissionConfig()),
            DeadlineBatcher(SERVICE, close_margin=0.005),
            DegradationLadder(),
        )

    @staticmethod
    def _offer(core, rids):
        for rid in rids:
            request = Request(request_id=rid, arrival=float(rid), deadline=rid + 1.0)
            assert core.offer(request, inflight=0, now=float(rid)) is None

    def test_fifo_within_tenant(self):
        core = self._core()
        self._offer(core, range(3))
        assert [r.request_id for r in core.form_batch()] == [0, 1, 2]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError, match="empty queue"):
            self._core().form_batch()

    def test_pop_batch_limit(self):
        core = self._core()
        self._offer(core, range(SERVICE.knee + 2))
        batch = core.form_batch()
        assert [r.request_id for r in batch] == list(range(SERVICE.knee))
        assert len(core.queue) == 2
        core.form_batch()
        core.verify_drained()

    def test_peek_matches_pop(self):
        core = self._core()
        self._offer(core, (7, 8))
        assert core.queue[0].request_id == 7
        assert core.form_batch()[0].request_id == 7


class TestAdmission:
    def test_token_bucket_refills_on_sim_clock(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert bucket.try_take(0.1)  # one token back after 0.1 s

    def test_token_bucket_burst_cap(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        # Long idle: tokens capped at burst, so two takes succeed, not 100.
        assert bucket.try_take(100.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_token_bucket_time_backwards_raises(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.try_take(1.0)
        with pytest.raises(SimulationError):
            bucket.try_take(0.5)

    def test_for_slo_never_below_one_batch_per_replica(self):
        config = AdmissionConfig.for_slo(
            slo=0.001, worst_batch_time=0.0009, knee=8, replicas=2
        )
        assert config.max_pending == 16

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(token_rate=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_pending=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig.for_slo(slo=0.0, worst_batch_time=1.0, knee=8)
        # The deployment rejects what admission would, at build.
        for bad, message in (
            ({"token_rate": -1.0}, "token_rate must be positive"),
        ):
            with pytest.raises(ConfigurationError, match=message):
                build(**bad)

    def test_depth_gate_does_not_burn_tokens(self):
        controller = AdmissionController(
            AdmissionConfig(token_rate=1.0, token_burst=1.0, max_pending=1)
        )
        request = Request(request_id=0, arrival=0.0, deadline=1.0)
        assert controller.decide(request, pending=5, now=0.0) == "queue_depth"
        # The depth shed above must not have consumed the single token.
        assert controller.decide(request, pending=0, now=0.0) is None
        controller.verify_conservation()

    def test_conservation_violation_raises(self):
        controller = AdmissionController(AdmissionConfig())
        request = Request(request_id=0, arrival=0.0, deadline=1.0)
        controller.decide(request, pending=0, now=0.0)
        controller.admitted += 1  # tamper with the ledger
        with pytest.raises(SimulationError, match="conservation"):
            controller.verify_conservation()


class TestDegradationLadder:
    def test_hysteresis(self):
        ladder = DegradationLadder(high_watermark=0.6, low_watermark=0.25)
        assert ladder.update(0.7) == 1  # escalate at >= high
        assert ladder.update(0.4) == 1  # hold between watermarks
        assert ladder.update(0.1) == 0  # recover below low
        assert ladder.escalations == 1

    def test_escalation_is_one_step_per_dispatch(self):
        ladder = DegradationLadder()
        ladder.update(1.0)
        assert ladder.level == 1
        ladder.update(1.0)
        assert ladder.level == 2

    def test_step_zero_must_be_full_fidelity(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(steps=(DegradeStep("dim", candidate_scale=0.5),))

    def test_candidate_scales_must_not_increase(self):
        steps = (
            DegradeStep("full"),
            DegradeStep("low", candidate_scale=0.4),
            DegradeStep("back-up", candidate_scale=0.8),
        )
        with pytest.raises(ConfigurationError):
            DegradationLadder(steps=steps)

    def test_default_ladder_floor_respects_sensitivity_bound(self):
        ladder = DegradationLadder()
        assert ladder.steps[-1].candidate_scale >= 0.25


class TestRouter:
    """The §7.1 fan-out: every batch visits all shards, then the host merges."""

    def test_fanout_batch_time_is_slowest_shard_plus_merge(self):
        # Two equal shards each hold half the labels: the variable term
        # halves; the shard task ships its queries and top-k over the host
        # link, and the host merge adds its transfer on top.
        simulator = build(replicas=1)
        batch = 8
        shard_only = SERVICE.batch_time(batch, work_fraction=0.5)
        merge = batch * TOP_K * MERGE_ENTRY_BYTES * SHARDS / MERGE_BANDWIDTH
        transfers = batch * (REQUEST_BYTES + TOP_K * MERGE_ENTRY_BYTES) / MERGE_BANDWIDTH
        assert simulator.merge_time(batch, 1.0) == pytest.approx(merge)
        total = simulator.worst_task_time(batch) + simulator.merge_time(batch, 1.0)
        assert total == pytest.approx(shard_only + transfers + merge)

    def test_hot_shard_slows_its_group(self):
        cool = build(replicas=1, hot_degrees=[1.0, 1.0])
        skew = build(replicas=1, hot_degrees=[1.6, 0.4])
        assert skew.worst_batch > cool.worst_batch

    def test_shard_hot_degrees_normalized_and_deterministic(self):
        hotness = LabelHotnessModel(num_labels=32768, run_length=1, seed=3)
        generator = CandidateTraceGenerator(
            hotness, candidate_ratio=0.10, query_noise=0.05
        )
        degrees = shard_hot_degrees(generator, num_shards=4, tile_size=256)
        again = shard_hot_degrees(generator, num_shards=4, tile_size=256)
        assert degrees == again
        assert np.mean(degrees) == pytest.approx(1.0)
        assert all(d > 0 for d in degrees)


class TestScheduler:
    def test_affine_fit_recovers_parameters(self):
        base, per_query = 1e-3, 2e-4
        points = [
            BatchPoint(
                batch=b,
                batch_time=base + per_query * b,
                queries_per_second=b / (base + per_query * b),
                compute_bound_fraction=0.0,
                queue_wait=0.0,
            )
            for b in (1, 2, 4, 8, 16)
        ]
        model = AffineServiceModel.from_batch_points(points)
        assert model.base == pytest.approx(base)
        assert model.per_query == pytest.approx(per_query)

    def test_batch_time_scales(self):
        full = SERVICE.batch_time(8)
        degraded = SERVICE.batch_time(8, candidate_scale=0.25)
        half_shard = SERVICE.batch_time(8, work_fraction=0.5)
        assert degraded < full
        assert half_shard < full
        # Only the candidate-dependent share shrinks under degradation.
        variable = SERVICE.per_query * 8
        expected = SERVICE.base + variable * (0.3 + 0.7 * 0.25)
        assert degraded == pytest.approx(expected)

    def test_form_batch_never_exceeds_knee(self):
        batcher = DeadlineBatcher(SERVICE, close_margin=0.005)
        queue = deque(
            Request(request_id=rid, arrival=0.0, deadline=1.0)
            for rid in range(SERVICE.knee * 3)
        )
        batch = batcher.form_batch(queue)
        assert [r.request_id for r in batch] == list(range(SERVICE.knee))
        assert len(queue) == 2 * SERVICE.knee

    def test_should_close_on_knee_or_slack(self):
        batcher = DeadlineBatcher(SERVICE, close_margin=0.005)
        queue = deque()
        assert not batcher.should_close(queue, now=1.0)  # nothing to close
        queue.append(Request(request_id=0, arrival=0.0, deadline=0.02))
        assert not batcher.should_close(queue, now=0.0)
        assert batcher.should_close(queue, now=0.015)  # slack exhausted
        queue.extend(
            Request(request_id=rid, arrival=0.0, deadline=0.02)
            for rid in range(1, SERVICE.knee)
        )
        assert batcher.should_close(queue, now=0.0)  # knee reached


class TestServingProperties:
    def test_conservation_across_rates(self):
        for multiplier in (0.5, 1.0, 2.0, 4.0):
            report = run_at(multiplier, num_queries=1500)
            assert report.admitted + report.shed == report.arrived
            assert report.completed == report.admitted

    def test_determinism_bit_identical(self):
        with batch_log() as first_batches:
            first = run_at(2.0, seed=11)
        with batch_log() as second_batches:
            second = run_at(2.0, seed=11)
        np.testing.assert_array_equal(first.latencies, second.latencies)
        assert first.shed > 0  # the shed ids below are not all empty
        np.testing.assert_array_equal(
            np.flatnonzero(first.latencies == LATENCY_UNSET),
            np.flatnonzero(second.latencies == LATENCY_UNSET),
        )
        assert [len(b) for b in first_batches] == [
            len(b) for b in second_batches
        ]
        assert first.p99 == second.p99

    def test_shed_rate_monotone_in_offered_load(self):
        rates = (0.5, 1.0, 2.0, 4.0, 8.0)
        shed = [run_at(m, num_queries=1500).shed_rate for m in rates]
        assert all(a <= b + 1e-12 for a, b in zip(shed, shed[1:]))
        assert shed[0] == 0.0
        assert shed[-1] > 0.0

    def test_batches_never_exceed_knee(self):
        with batch_log() as batches:
            report = run_at(4.0)
        assert len(batches) == report.batches
        assert max(len(b) for b in batches) <= SERVICE.knee

    def test_overload_keeps_admitted_p99_within_slo(self):
        baseline = run_at(1.0)
        overload = run_at(2.0)
        assert overload.p99 <= SLO
        assert overload.slo_attainment == pytest.approx(1.0)
        # Degradation engaged, shedding explicit, goodput degrades
        # gracefully (no collapse below the saturated baseline).
        assert overload.max_degrade_level >= 1
        assert overload.shed_rate > 0.0
        assert overload.goodput >= 0.8 * baseline.goodput

    def test_light_load_dispatches_eagerly(self):
        report = run_at(0.1, num_queries=300)
        # An idle cluster should not hold requests for a full knee batch.
        assert report.p50 < 2.0 * SERVICE.batch_time(SERVICE.knee)
        assert report.shed_rate == 0.0

    def test_token_bucket_gate_sheds_with_reason(self):
        simulator = build(token_rate=1000.0)
        arrivals = poisson_arrivals(4000.0, 800, seed=5)
        report = simulator.run(arrivals)
        assert report.shed_by_reason.get("token_bucket", 0) > 0
        assert report.admitted + report.shed == report.arrived

    @pytest.mark.parametrize(
        "steps, high, low",
        [(DEFAULT_LADDER_STEPS, 0.6, 0.25), (DEFAULT_LADDER_STEPS[:2], 0.3, 0.1)],
        ids=["default-ladder", "custom-ladder"],
    )
    def test_run_is_reentrant(self, steps, high, low):
        # Admission (token bucket, counters), ladder level and replica state
        # are per run: a second run on one simulator equals the first and a
        # freshly built stack's, and each run walks the given ladder.
        service = AffineServiceModel(0.002, 0.0005, 8, 0.7)
        arrivals = poisson_arrivals(
            1.5 * single_deployment_rate(service, 0.02, 2, 2), 3000, seed=1
        )

        def stack():
            ladder = DegradationLadder(steps, high_watermark=high, low_watermark=low)
            return build_single_deployment(
                service, 0.02, 2, 2, token_rate=3000.0, ladder=ladder
            )

        simulator = stack()
        first = simulator.run(arrivals)
        assert first.shed > 0
        assert first.max_degrade_level == len(steps) - 1
        assert_same_report(simulator.run(arrivals), first)
        assert_same_report(stack().run(arrivals), first)

    def test_run_input_validation(self):
        simulator = build()
        with pytest.raises(WorkloadError):
            simulator.run([])
        with pytest.raises(WorkloadError):
            simulator.run([1.0, 0.5])

    @pytest.mark.parametrize("arrivals", [
        [0.0, float("nan"), 2.0],
        [0.0, 1.0, float("nan"), 0.5],  # the NaN hides the unsorted tail
        [0.0, float("inf")],
        [float("-inf"), 0.0],
        [-0.5, 0.0, 1.0],
    ])
    def test_run_rejects_bad_arrival_times_before_any_event(self, arrivals, monkeypatch):
        pushed = []
        monkeypatch.setattr(
            EventKernel, "push", lambda kernel, *event: pushed.append(event)
        )
        with pytest.raises(WorkloadError):
            build().run(arrivals)
        assert pushed == []

    def test_slo_too_tight_for_knee_batch_raises(self):
        with pytest.raises(ConfigurationError, match="SLO"):
            build_single_deployment(SERVICE, slo=1e-4)

    def test_hot_degrees_must_match_shards(self):
        with pytest.raises(ConfigurationError):
            build_single_deployment(SERVICE, 0.02, shards=2, hot_degrees=[1.0])

    def test_saturating_rate_scales_with_replicas(self):
        one = single_deployment_rate(SERVICE, 0.02, replicas=1)
        two = single_deployment_rate(SERVICE, 0.02, replicas=2)
        assert two == pytest.approx(2.0 * one)


class TestServingRunProperties:
    """Invariants of any serve run over any sorted arrival stream."""

    @given(
        arrivals=st.lists(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=1,
            max_size=300,
        ).map(sorted),
        slo=st.floats(min_value=0.005, max_value=0.05),
        shards=st.integers(min_value=1, max_value=4),
        replicas=st.integers(min_value=1, max_value=3),
        token_rate=st.one_of(st.none(), st.floats(min_value=100.0, max_value=20000.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_fifo_batches_and_replay(
        self, arrivals, slo, shards, replicas, token_rate
    ):
        simulator = build_single_deployment(
            SERVICE, slo, shards, replicas, token_rate=token_rate
        )
        with batch_log() as members:
            report = simulator.run(arrivals)
        assert report.completed + report.shed == report.arrived
        assert report.arrived == len(arrivals)
        # Batches are contiguous ascending runs of the admitted ids and leave
        # in id order: concatenated in dispatch order, they are the admitted
        # ids sorted.
        shed_ids = set(np.flatnonzero(report.latencies == LATENCY_UNSET).tolist())
        admitted = [rid for rid in range(len(arrivals)) if rid not in shed_ids]
        assert len(members) == report.batches
        assert [rid for batch in members for rid in batch] == admitted
        assert all(len(batch) <= SERVICE.knee for batch in members)
        assert_same_report(simulator.run(arrivals), report)


class TestServeObservability:
    def test_metrics_and_spans_recorded(self):
        with obs.configure() as session:
            report = run_at(1.0, num_queries=400)
            batches = session.registry.get("cluster_batches_total")
            requests = session.registry.get("cluster_requests_total")
            assert sum(v for _, v in batches.samples()) == report.batches
            assert sum(v for _, v in requests.samples()) == 400
            assert CLUSTER_TRACK in session.tracer.tracks()
            spans = [s for s in session.tracer.spans if s.track == CLUSTER_TRACK]
            assert len(spans) == report.batches

    def test_disabled_observability_is_bit_identical(self):
        quiet = run_at(2.0, seed=9)
        with obs.configure():
            traced = run_at(2.0, seed=9)
        np.testing.assert_array_equal(quiet.latencies, traced.latencies)
