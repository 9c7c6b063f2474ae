"""Tests for the fleet-scale cluster simulator (repro.cluster)."""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PLACEMENT_STRATEGIES,
    STEAL_POLICIES,
    Autoscaler,
    ClusterConfig,
    CrawlerSchedule,
    HotLabelCache,
    Interconnect,
    Placement,
    build_cluster,
    build_latency_array,
    cluster_saturating_rate,
    failover_timeline_digest,
    place_replicas,
    rack_of,
    shard_outage_seconds,
    zipf_keys,
)
from repro.cluster.autoscale import (
    BURN_THRESHOLD,
    ERROR_BUDGET,
    FAST_WINDOW_SLOS,
    SCALE_DOWN_FRACTION,
    SLOW_WINDOW_SLOS,
)
from repro.cluster.engine import FleetRun
from repro.cluster.nodes import DataNode
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.faults import ClusterFaultConfig, ClusterFaultPlan
from repro.lint.simsan import SimSanitizer, installed
from repro.obs import hooks
from repro.obs.digest import DigestRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.runs import derive_run_id
from repro.serve import AffineServiceModel, DegradationLadder, DegradeStep
from repro.serve.kernel import EventKernel
from repro.serve.request import Request
from repro.workloads.streams import poisson_arrivals

#: Fast pure-Python service model: 0.5 ms base, 20 us/query, knee at 16.
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


def run_fleet(
    multiplier=0.8,
    seed=7,
    num_requests=4000,
    config=CONFIG,
    fault_config=None,
    hot_degrees=None,
    ladder=None,
):
    """Fresh fleet replaying a Poisson stream at ``multiplier`` x saturation."""
    rate = multiplier * cluster_saturating_rate(SERVICE, config)
    arrivals = poisson_arrivals(rate, num_requests, seed=seed)
    if fault_config is None:
        fault_config = ClusterFaultConfig.disabled()
    simulator = build_cluster(
        SERVICE,
        config,
        seed=seed,
        fault_config=fault_config,
        hot_degrees=hot_degrees,
        ladder=ladder,
    )
    return simulator.run(arrivals)


class TestTopology:
    def test_rack_striping(self):
        assert [rack_of(n, 3) for n in range(6)] == [0, 1, 2, 0, 1, 2]
        with pytest.raises(ConfigurationError):
            rack_of(0, 0)
        with pytest.raises(ConfigurationError):
            rack_of(-1, 2)

    def test_cross_rack_costs_more(self):
        link = Interconnect()
        local = link.transfer_time(4096, cross_rack=False)
        remote = link.transfer_time(4096, cross_rack=True)
        assert remote > local
        # The bandwidth term is identical; only fixed latency scales.
        assert remote - local == pytest.approx(
            link.latency * (link.cross_rack_factor - 1.0)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(data_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(data_nodes=4, shards=4, replicas=3)
        with pytest.raises(ConfigurationError):
            ClusterConfig(data_nodes=4, service_nodes=2, autoscale_min=3)
        # A zero-delay cache hit would pop after the arrival that scheduled
        # it at the same instant, against the (time, kind, seq) order.
        with pytest.raises(ConfigurationError, match="cache_hit_time"):
            ClusterConfig(data_nodes=4, cache_hit_time=0.0)
        with pytest.raises(ConfigurationError, match="cache_hit_time"):
            ClusterConfig(data_nodes=4, cache_hit_time=float("nan"))
        config = ClusterConfig(data_nodes=4, slots_per_node=3)
        assert config.total_slots == 12
        with pytest.raises(ConfigurationError):
            config.node_rack(4)

    @pytest.mark.parametrize("owner, field, value", [
        *[(ClusterConfig, name, float("nan")) for name in (
            "slo", "cache_ttl", "cache_skew", "cache_hit_time",
            "autoscale_interval", "token_rate",
        )],
        *[(ClusterConfig, name, float("inf")) for name in (
            "slo", "cache_hit_time", "autoscale_interval", "token_rate",
        )],
        *[(Interconnect, name, float("nan")) for name in (
            "latency", "bandwidth", "cross_rack_factor",
        )],
        (Interconnect, "latency", float("inf")),
        *[(ClusterFaultConfig, name, float("nan")) for name in (
            "crash_duration", "partition_duration", "slow_duration",
            "slow_factor", "horizon",
        )],
        # An infinite window end cannot be scheduled, and an infinite
        # horizon overflows the window-start draw.
        *[(ClusterFaultConfig, name, float("inf")) for name in (
            "crash_duration", "partition_duration", "slow_factor", "horizon",
        )],
        # With latency 0, 0 x inf = NaN would crash build_cluster; with the
        # default latency an SLO check would fail without naming the field.
        (Interconnect, "cross_rack_factor", float("inf")),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_config_rejects_bad_floats(self, owner, field, value):
        # A bad float must fail here, not partway through a run or silently
        # in the reported results.
        kwargs = {"data_nodes": 4} if owner is ClusterConfig else {}
        with pytest.raises(ConfigurationError, match=field):
            owner(**kwargs, **{field: value})


class TestPlacement:
    def test_every_shard_covered_on_distinct_nodes(self):
        placement = place_replicas(CONFIG, [1.0] * CONFIG.shards)
        assert placement.total_replicas == CONFIG.replicas
        for shard in range(CONFIG.shards):
            nodes = placement.nodes_for(shard)
            assert len(nodes) >= 1
            assert len(set(nodes)) == len(nodes)

    def test_replicas_spread_across_racks(self):
        placement = place_replicas(CONFIG, [1.0] * CONFIG.shards)
        for shard in range(CONFIG.shards):
            nodes = placement.nodes_for(shard)
            if len(nodes) >= 2:
                racks = {CONFIG.node_rack(n) for n in nodes}
                assert len(racks) >= 2

    def test_extra_replicas_go_to_hottest_shards(self):
        degrees = [0.5, 0.5, 0.5, 2.5]
        placement = place_replicas(CONFIG, degrees)
        counts = [len(placement.nodes_for(s)) for s in range(CONFIG.shards)]
        assert counts[3] == max(counts)

    def test_more_replicas_than_nodes_rejected(self):
        config = ClusterConfig(
            data_nodes=2, shards=1, replicas=3, racks=2, service_nodes=1,
            autoscale_min=1,
        )
        with pytest.raises(ConfigurationError):
            place_replicas(config, [1.0])

    def test_deterministic(self):
        degrees = [1.3, 0.7, 1.1, 0.9]
        first = place_replicas(CONFIG, degrees)
        second = place_replicas(CONFIG, degrees)
        assert first == second

    def test_views_are_consistent(self):
        placement = place_replicas(CONFIG, [1.0] * CONFIG.shards)
        for node in range(CONFIG.data_nodes):
            for shard in placement.shards_on(node):
                assert node in placement.nodes_for(shard)


class TestHotLabelCache:
    def test_lru_eviction(self):
        cache = HotLabelCache(capacity=2, ttl=10.0)
        cache.insert(1, 0.0)
        cache.insert(2, 0.0)
        assert cache.lookup(1, 0.1)  # 1 is now most recent
        cache.insert(3, 0.2)  # evicts 2
        assert not cache.lookup(2, 0.3)
        assert cache.lookup(1, 0.3)
        assert cache.lookup(3, 0.3)

    def test_ttl_expiry_on_sim_clock(self):
        cache = HotLabelCache(capacity=4, ttl=1.0)
        cache.insert(1, 0.0)
        assert cache.lookup(1, 0.5)
        assert not cache.lookup(1, 1.5)

    def test_zero_capacity_disables(self):
        cache = HotLabelCache(capacity=0, ttl=1.0)
        cache.insert(1, 0.0)
        assert not cache.lookup(1, 0.1)

    def test_zipf_keys_deterministic_and_skewed(self):
        first = zipf_keys(5000, groups=64, skew=1.1, seed=3)
        second = zipf_keys(5000, groups=64, skew=1.1, seed=3)
        np.testing.assert_array_equal(first, second)
        counts = np.bincount(first, minlength=64)
        assert counts[0] > counts[32]
        assert first.min() >= 0 and first.max() < 64


class TestCrawlers:
    def test_slowdown_at_least_one_and_deterministic(self):
        schedule = CrawlerSchedule(seed=5)
        samples = [schedule.slowdown(n, t) for n in range(4)
                   for t in (0.0, 0.3, 1.7, 4.9)]
        assert all(s >= 1.0 for s in samples)
        again = [CrawlerSchedule(seed=5).slowdown(n, t) for n in range(4)
                 for t in (0.0, 0.3, 1.7, 4.9)]
        assert samples == again
        # Some window somewhere must actually be active.
        assert any(s > 1.0 for s in samples)

    def test_mean_overhead_bounds(self):
        overhead = CrawlerSchedule(seed=0).mean_overhead()
        assert 1.0 < overhead < 1.2


class ReferenceAutoscaler:
    """The window accounting ``Autoscaler`` replaced, kept as its oracle.

    One append-only ``(time, bad)`` tuple list with a running total and bad
    count per window; each evaluation walks both heads forward past every
    observation older than its window start, and compacts the consumed
    prefix past 65,536 entries.
    """

    def __init__(self, slo, min_nodes, max_nodes):
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.fast_window = FAST_WINDOW_SLOS * slo
        self.slow_window = SLOW_WINDOW_SLOS * slo
        self._events = []
        self._fast_head = 0
        self._slow_head = 0
        self._fast_total = 0
        self._fast_bad = 0
        self._slow_total = 0
        self._slow_bad = 0

    def observe(self, time, bad):
        self._events.append((time, bad))
        self._fast_total += 1
        self._slow_total += 1
        if bad:
            self._fast_bad += 1
            self._slow_bad += 1

    def _expire(self, now):
        events = self._events
        fast_start = now - self.fast_window
        head = self._fast_head
        while head < len(events) and events[head][0] < fast_start:
            self._fast_total -= 1
            if events[head][1]:
                self._fast_bad -= 1
            head += 1
        self._fast_head = head
        slow_start = now - self.slow_window
        head = self._slow_head
        while head < len(events) and events[head][0] < slow_start:
            self._slow_total -= 1
            if events[head][1]:
                self._slow_bad -= 1
            head += 1
        self._slow_head = head
        if self._slow_head > 65536:
            del self._events[: self._slow_head]
            self._fast_head -= self._slow_head
            self._slow_head = 0

    def _burn(self, bad, total):
        if total == 0:
            return 0.0
        return (bad / total) / ERROR_BUDGET

    def decide(self, now, active):
        self._expire(now)
        fast = self._burn(self._fast_bad, self._fast_total)
        slow = self._burn(self._slow_bad, self._slow_total)
        if fast > BURN_THRESHOLD and slow > BURN_THRESHOLD:
            return min(active + 1, self.max_nodes)
        down_bar = BURN_THRESHOLD * SCALE_DOWN_FRACTION
        if fast < down_bar and slow < down_bar:
            return max(active - 1, self.min_nodes)
        return active


def autoscaler_stream(seed, observations, slo):
    """A seeded, time-ordered mix of ``("observe", time, bad)`` and
    ``("decide", now)`` steps.

    Phases switch the bad fraction between quiet and burning so targets
    move both ways.  The stream holds runs of equal times, gaps longer than
    the slow window, and observations planted exactly at ``now - window``
    (with the window the autoscaler computes) just before a ``decide`` at
    ``now``.
    """
    rng = np.random.default_rng(seed)
    fast_window, slow_window = FAST_WINDOW_SLOS * slo, SLOW_WINDOW_SLOS * slo
    steps = []
    time = 0.0
    bad_fraction = 0.0
    count = 0
    while count < observations:
        draw = rng.random()
        if draw < 0.002:
            bad_fraction = float(rng.choice([0.0, 0.0002, 0.001, 0.01, 0.3]))
        if draw < 0.25:
            gap = 0.0
        elif draw < 0.2504:
            gap = slow_window * (1.0 + 3.0 * rng.random())
        else:
            gap = float(rng.exponential(slo / 100))
        time += gap
        for _ in range(int(rng.integers(1, 4)) if draw < 0.05 else 1):
            steps.append(("observe", time, bool(rng.random() < bad_fraction)))
            count += 1
        if rng.random() < 0.004:
            window = fast_window if rng.random() < 0.5 else slow_window
            now = time + window + float(rng.exponential(slo / 50))
            start = now - window
            if start >= time:  # plant a run at exactly the window start
                for _ in range(int(rng.integers(1, 4))):
                    steps.append(("observe", start, bool(rng.random() < 0.5)))
                    count += 1
            time = max(time, now)
            steps.append(("decide", now))
        elif rng.random() < 0.01:
            steps.append(("decide", time))
    return steps


class TestAutoscaler:
    @pytest.mark.parametrize("seed, observations", [(0, 150_000), (1, 20_000), (2, 20_000)])
    def test_matches_the_tuple_list_oracle(self, seed, observations):
        slo = 0.02
        scaler = Autoscaler(slo=slo, min_nodes=1, max_nodes=4)
        reference = ReferenceAutoscaler(slo=slo, min_nodes=1, max_nodes=4)
        active = 2
        decisions = compactions = 0
        for step in autoscaler_stream(seed, observations, slo):
            if step[0] == "observe":
                scaler.observe(step[1], step[2])
                reference.observe(step[1], step[2])
                continue
            before = len(scaler._times)
            target = scaler.decide(step[1], active)
            compactions += len(scaler._times) < before
            assert target == reference.decide(step[1], active)
            for head, total, bad in (
                (scaler._fast_head, reference._fast_total, reference._fast_bad),
                (scaler._slow_head, reference._slow_total, reference._slow_bad),
            ):
                assert scaler._window(head) == (bad, total)
            decisions += 1
            active = target
        assert decisions > 100
        if observations > 65536:
            assert compactions >= 1

    def test_observe_rejects_time_going_backwards_and_nan(self):
        scaler = Autoscaler(slo=0.02, min_nodes=1, max_nodes=4)
        with pytest.raises(SimulationError):
            scaler.observe(float("nan"), bad=False)
        scaler.observe(1.0, bad=False)
        scaler.observe(1.0, bad=True)  # an equal time is in order
        with pytest.raises(SimulationError):
            scaler.observe(0.5, bad=True)
        with pytest.raises(SimulationError):
            scaler.observe(float("nan"), bad=True)
        scaler.observe(1.25, bad=False)
        scaler.decide(1.25, active=2)
        assert scaler._window(scaler._slow_head) == (1, 3)  # rejects not kept

    def test_scales_up_under_sustained_burn(self):
        scaler = Autoscaler(slo=0.02, min_nodes=1, max_nodes=4)
        for step in range(200):
            scaler.observe(step * 0.01, bad=True)
        assert scaler.decide(2.0, active=2) == 3
        assert scaler.decide(2.0, active=4) == 4  # capped

    def test_scales_down_when_quiet(self):
        scaler = Autoscaler(slo=0.02, min_nodes=1, max_nodes=4)
        for step in range(200):
            scaler.observe(step * 0.01, bad=False)
        assert scaler.decide(2.0, active=3) == 2
        assert scaler.decide(2.0, active=1) == 1  # floored

    def test_window_expiry_forgets_old_burn(self):
        scaler = Autoscaler(slo=0.02, min_nodes=1, max_nodes=4)
        for step in range(50):
            scaler.observe(step * 0.001, bad=True)
        for step in range(400):
            scaler.observe(0.1 + step * 0.01, bad=False)
        # The bad burst has rolled out of both windows.
        assert scaler.decide(5.0, active=2) <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Autoscaler(slo=0.0, min_nodes=1, max_nodes=2)
        with pytest.raises(ConfigurationError):
            Autoscaler(slo=0.02, min_nodes=3, max_nodes=2)


class TestClusterFaultPlan:
    def test_seeded_replay_is_bit_identical(self):
        config = ClusterFaultConfig(
            seed=11, node_crashes=3, partitions=2, slow_nodes=2, horizon=5.0
        )
        first = ClusterFaultPlan.build(config, nodes=8, racks=2)
        second = ClusterFaultPlan.build(config, nodes=8, racks=2)
        assert first.to_dict() == second.to_dict()
        assert first.edges() == second.edges()

    def test_different_seeds_differ(self):
        base = ClusterFaultConfig(seed=1, node_crashes=4, horizon=5.0)
        other = ClusterFaultConfig(seed=2, node_crashes=4, horizon=5.0)
        plan_a = ClusterFaultPlan.build(base, nodes=8, racks=2)
        plan_b = ClusterFaultPlan.build(other, nodes=8, racks=2)
        assert plan_a.to_dict() != plan_b.to_dict()

    def test_point_queries_match_windows(self):
        config = ClusterFaultConfig(
            seed=3, node_crashes=2, partitions=1, slow_nodes=1,
            crash_duration=0.5, partition_duration=0.25, slow_duration=1.0,
            slow_factor=3.0, horizon=4.0,
        )
        plan = ClusterFaultPlan.build(config, nodes=8, racks=2)
        crash = plan.crashes[0]
        mid = (crash.start + crash.end) / 2.0
        assert not plan.node_alive(crash.node, mid)
        assert plan.node_alive(crash.node, crash.end)
        part = plan.partitions[0]
        pmid = (part.start + part.end) / 2.0
        assert not plan.reachable(part.rack_a, part.rack_b, pmid)
        assert plan.reachable(part.rack_a, part.rack_a, pmid)
        slow = plan.slow_windows[0]
        smid = (slow.start + slow.end) / 2.0
        assert plan.slowdown(slow.node, smid) == pytest.approx(3.0)
        assert plan.slowdown(slow.node, slow.end) == 1.0

    def test_partition_racks_are_distinct_and_ordered(self):
        config = ClusterFaultConfig(seed=9, partitions=8, horizon=2.0)
        plan = ClusterFaultPlan.build(config, nodes=8, racks=4)
        for window in plan.partitions:
            assert window.rack_a < window.rack_b

    def test_from_spec_parses_and_rejects(self):
        config = ClusterFaultConfig.from_spec(
            "node-crash=2, partition=1,slow-node=3", seed=4, horizon=6.0
        )
        assert config.node_crashes == 2
        assert config.partitions == 1
        assert config.slow_nodes == 3
        assert config.seed == 4
        with pytest.raises(ConfigurationError):
            ClusterFaultConfig.from_spec("meteor=1", seed=0, horizon=1.0)
        with pytest.raises(ConfigurationError):
            ClusterFaultConfig.from_spec("node-crash=two", seed=0, horizon=1.0)

    def test_disabled_plan_is_empty(self):
        plan = ClusterFaultPlan.build(
            ClusterFaultConfig.disabled(), nodes=4, racks=2
        )
        assert plan.edges() == []
        assert plan.node_alive(0, 1.0)
        assert plan.slowdown(0, 1.0) == 1.0

    def test_edges_sorted_recovery_before_failure(self):
        config = ClusterFaultConfig(
            seed=2, node_crashes=4, partitions=2, horizon=3.0
        )
        edges = ClusterFaultPlan.build(config, nodes=8, racks=2).edges()
        times = [e[0] for e in edges]
        assert times == sorted(times)


class TestFleetRuns:
    def test_conservation_across_rates(self):
        for multiplier in (0.5, 1.0, 2.0):
            report = run_fleet(multiplier, num_requests=2500)
            assert report.completed + report.shed == report.arrived

    def test_determinism_bit_identical(self):
        first = run_fleet(1.0, seed=13)
        second = run_fleet(1.0, seed=13)
        np.testing.assert_array_equal(first.latencies, second.latencies)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_repeated_runs_on_one_simulator_are_equal(self):
        # Every run starts from fresh nodes, caches and autoscaler: a second
        # run must not see the first run's cache entries or counters.
        rate = 1.5 * cluster_saturating_rate(SERVICE, CONFIG)
        arrivals = poisson_arrivals(rate, 3000, seed=5)
        for keys, fault in (
            (None, ClusterFaultConfig.disabled()),
            (np.arange(3000, dtype=np.int64), FAULTED),
        ):
            simulator = build_cluster(SERVICE, CONFIG, seed=5, fault_config=fault)
            first = simulator.run(arrivals, keys=keys)
            second = simulator.run(arrivals, keys=keys)
            np.testing.assert_array_equal(first.latencies, second.latencies)
            assert first.failover_timeline == second.failover_timeline
            assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
                second.to_dict(), sort_keys=True
            )
        assert first.cache_hits == 0  # distinct keys never hit

    def test_cache_serves_hot_keys(self):
        report = run_fleet(0.8)
        assert report.cache_hits > 0
        assert report.cache_hit_rate > 0.1

    def test_work_stealing_engages(self):
        # A hot shard concentrates load; idle replicas steal the backlog.
        report = run_fleet(1.5, hot_degrees=[3.0, 0.4, 0.3, 0.3])
        assert report.steals > 0

    def test_light_load_is_fast_and_lossless(self):
        report = run_fleet(0.2, num_requests=1500)
        assert report.shed == 0
        assert report.p50 < CONFIG.slo

    def test_overload_sheds_explicitly(self):
        # Cache off so the full offered load reaches admission control.
        config = ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=0.05, cache_capacity=0,
        )
        report = run_fleet(6.0, num_requests=9000, config=config)
        assert report.shed > 0
        assert report.shed_by_reason
        assert sum(report.shed_by_reason.values()) == report.shed

    def test_autoscaler_releases_idle_nodes(self):
        config = ClusterConfig(
            data_nodes=8, service_nodes=4, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=0.05,
        )
        report = run_fleet(0.2, num_requests=2500, config=config)
        assert report.scale_downs > 0

    def test_slo_too_tight_raises(self):
        config = ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=1e-5,
        )
        with pytest.raises(ConfigurationError):
            build_cluster(SERVICE, config)

    def test_cache_miss_keeps_the_request_deadline_check(self):
        # The fleet builds each cache-miss Request without ``Request.__new__``
        # and makes its deadline check inline, with the same message.
        run = FleetRun(
            build_cluster(SERVICE, CONFIG), np.array([0.0]), np.zeros(1, dtype=np.int64)
        )
        run.slo = -0.01
        with pytest.raises(WorkloadError) as fleet:
            run.run()
        with pytest.raises(WorkloadError) as direct:
            Request(0, 0.0, -0.01)
        assert str(fleet.value) == str(direct.value)

    def test_run_input_validation(self):
        simulator = build_cluster(SERVICE, CONFIG)
        with pytest.raises(WorkloadError):
            simulator.run(np.empty(0))
        with pytest.raises(WorkloadError):
            simulator.run(np.array([2.0, 1.0]))
        with pytest.raises(WorkloadError):
            simulator.run(np.array([0.0, 1.0]), keys=np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("arrivals", [
        [0.0, float("nan"), 2.0],
        [0.0, 1.0, float("nan"), 0.5],  # the NaN hides the unsorted tail
        [0.0, 1.0, float("inf")],
        [float("-inf"), 0.0],
        [-0.5, 0.0, 1.0],
    ])
    def test_run_rejects_bad_arrival_times_before_any_event(self, arrivals, monkeypatch):
        dispatched = []
        monkeypatch.setattr(
            EventKernel, "run", lambda *args: dispatched.append(args)
        )
        with pytest.raises(WorkloadError):
            build_cluster(SERVICE, CONFIG).run(np.array(arrivals))
        assert dispatched == []

    def test_heap_never_holds_an_arrival(self, monkeypatch):
        pushed_kinds = set()
        push = EventKernel.push

        def recording_push(kernel, time, kind, payload):
            pushed_kinds.add(kind)
            return push(kernel, time, kind, payload)

        monkeypatch.setattr(EventKernel, "push", recording_push)
        report = run_fleet(0.8, fault_config=FAULTED, num_requests=2000)
        assert report.completed + report.shed == 2000
        assert {0, 2, 3, 5} <= pushed_kinds  # edges, tasks, merges, deadlines
        assert 6 not in pushed_kinds  # arrivals come off the kernel's cursor

    def test_hot_degrees_must_match_shards(self):
        with pytest.raises(ConfigurationError):
            build_cluster(SERVICE, CONFIG, hot_degrees=[1.0, 1.0])

    def test_token_rate_sheds_with_its_reason(self):
        # Each of the two service nodes gets its own 1,000/s bucket, whose
        # burst (the admission depth limit, 1,711 here) the run outlasts.
        config = ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=0.05, cache_capacity=0,
            token_rate=1000.0,
        )
        report = run_fleet(1.0, num_requests=6000, config=config)
        assert report.shed_by_reason.get("token_bucket", 0) > 0
        assert report.completed + report.shed == report.arrived

    def test_one_step_ladder_never_degrades(self):
        config = ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=0.05, cache_capacity=0,
        )
        default = run_fleet(4.0, num_requests=6000, config=config)
        pinned = run_fleet(
            4.0, num_requests=6000, config=config,
            ladder=DegradationLadder(steps=(DegradeStep("full"),)),
        )
        assert default.max_degrade_level >= 1
        assert pinned.max_degrade_level == 0

    def test_saturating_rate_scales_with_slots(self):
        small = cluster_saturating_rate(SERVICE, CONFIG)
        bigger = cluster_saturating_rate(
            SERVICE,
            ClusterConfig(
                data_nodes=8, service_nodes=2, shards=4, replicas=12,
                racks=2, slots_per_node=4, slo=0.05,
            ),
        )
        assert bigger > small


# Horizon sized to the ~0.08 s span of a 6000-request run at 0.8x
# saturation, so the windows actually land inside the replay.
FAULTED = ClusterFaultConfig(
    seed=7, node_crashes=2, partitions=1, slow_nodes=2,
    crash_duration=0.02, partition_duration=0.01, slow_duration=0.03,
    horizon=0.06,
)


_perfbench_loader = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py",
)
perfbench_tracing = importlib.util.module_from_spec(_perfbench_loader)
_perfbench_loader.loader.exec_module(perfbench_tracing)


class TestWrappedFleetEntryPoints:
    """perfbench's traced run reports each fleet layer through the calls it
    wraps by name; a call the loop inlines or bypasses reads zero there."""

    def test_every_cluster_and_serve_row_is_called(self):
        config = ClusterConfig(
            data_nodes=4, service_nodes=3, shards=2, replicas=6, racks=2,
            slots_per_node=2, slo=0.05,
        )
        assert config.cache_capacity > 0 and config.autoscale
        arrivals = poisson_arrivals(
            1.5 * cluster_saturating_rate(SERVICE, config), 3000, seed=3
        )
        span = float(arrivals[-1])
        fault = ClusterFaultConfig(
            seed=3, node_crashes=1, crash_duration=0.25 * span, horizon=0.8 * span
        )
        recorder = perfbench_tracing.SpanRecorder()
        try:
            recorder.install()
            build_cluster(SERVICE, config, seed=3, fault_config=fault).run(arrivals)
        finally:
            recorder.uninstall()
        calls = recorder.snapshot()
        rows = {
            name: perfbench_tracing.sum_spans(calls, spans, "calls")
            for name, (_unit, spans, _kind) in perfbench_tracing.LAYER_METRICS.items()
            if name.startswith(("cluster.", "serve."))
        }
        assert len(rows) >= 13
        assert [name for name, count in rows.items() if count == 0] == []


class TestFleetProperties:
    """Invariants of any small fleet over any seeded Poisson stream."""

    @given(
        data_nodes=st.integers(min_value=2, max_value=6),
        service_nodes=st.integers(min_value=1, max_value=3),
        shards=st.integers(min_value=1, max_value=4),
        replication=st.integers(min_value=1, max_value=3),
        racks=st.integers(min_value=1, max_value=2),
        cache=st.booleans(),
        steal_policy=st.sampled_from(STEAL_POLICIES),
        crashes=st.integers(min_value=0, max_value=1),
        partitions=st.integers(min_value=0, max_value=1),
        multiplier=st.floats(min_value=0.2, max_value=6.0),
        slo=st.sampled_from([0.005, 0.01, 0.05]),
        interval=st.sampled_from([0.0005, 0.002, 0.01]),
        requests=st.integers(min_value=200, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_conservation_and_replay(
        self, data_nodes, service_nodes, shards, replication, racks, cache,
        steal_policy, crashes, partitions, multiplier, slo, interval, requests,
        seed,
    ):
        try:
            config = ClusterConfig(
                data_nodes=data_nodes, service_nodes=service_nodes,
                shards=shards, replicas=shards * replication, racks=racks,
                slots_per_node=2, slo=slo, cache_capacity=4096 if cache else 0,
                autoscale=True, autoscale_interval=interval,
                steal_policy=steal_policy,
            )
            rate = multiplier * cluster_saturating_rate(SERVICE, config)
            arrivals = poisson_arrivals(rate, requests, seed=seed)
            span = float(arrivals[-1])
            fault = ClusterFaultConfig(
                seed=seed, node_crashes=crashes, partitions=partitions,
                crash_duration=0.25 * span, partition_duration=0.1 * span,
                horizon=0.8 * span,
            ) if crashes or partitions else ClusterFaultConfig.disabled()
            simulator = build_cluster(SERVICE, config, seed=seed, fault_config=fault)
        except ConfigurationError:
            assume(False)
        first = simulator.run(arrivals)
        assert first.completed + first.shed == first.arrived == requests
        second = simulator.run(arrivals)
        assert second.latencies.tobytes() == first.latencies.tobytes()
        assert second.failover_timeline == first.failover_timeline
        assert (second.scale_ups, second.scale_downs) == (
            first.scale_ups, first.scale_downs
        )


class TestFailover:
    def test_crash_plan_survives_with_failover(self):
        report = run_fleet(0.8, fault_config=FAULTED, num_requests=6000)
        assert report.completed + report.shed == report.arrived
        assert report.redispatches > 0 or report.parked_events > 0
        # Rack-spread placement kept at least one replica per shard alive.
        assert report.failover_downtime == 0.0

    def test_failover_timeline_replays_bit_identically(self):
        first = run_fleet(0.8, fault_config=FAULTED, num_requests=6000)
        second = run_fleet(0.8, fault_config=FAULTED, num_requests=6000)
        assert first.failover_timeline == second.failover_timeline
        assert len(first.failover_timeline) > 0
        np.testing.assert_array_equal(first.latencies, second.latencies)

    def test_run_id_identical_across_replays(self):
        config = {"fleet": CONFIG.data_nodes, "fault_plan": "node-crash=2"}
        workload = {"kind": "poisson", "num_queries": 6000}
        first = derive_run_id(config, seed=7, workload=workload)
        second = derive_run_id(config, seed=7, workload=workload)
        assert first == second
        assert derive_run_id(config, seed=8, workload=workload) != first

    def test_simsan_run_is_clean_and_identical(self):
        baseline = run_fleet(0.8, fault_config=FAULTED, num_requests=4000)
        with installed(SimSanitizer()) as sanitizer:
            sanitized = run_fleet(0.8, fault_config=FAULTED, num_requests=4000)
        assert sanitizer.violations == []
        assert sanitizer.pops_observed > 0
        assert baseline.failover_timeline == sanitized.failover_timeline
        np.testing.assert_array_equal(
            baseline.latencies, sanitized.latencies
        )

    def test_failover_metric_counts_parks_and_redispatches(self):
        registry = MetricsRegistry()
        with hooks.installed(registry=registry):
            report = TestBitIdentityPin().replay("park-failover")
        failovers = registry.get("cluster_failovers_total")
        assert report.parked_events > 0 and report.redispatches > 0
        assert failovers.value(action="park") == report.parked_events
        assert failovers.value(action="redispatch") == report.redispatches
        assert failovers.total() == report.parked_events + report.redispatches

    def test_redispatched_task_never_finishes_early(self, monkeypatch):
        # A crash leaves the dead node's completion event in the heap; when
        # the task has restarted elsewhere before that event pops, it must
        # not finish the task at the dead node's end time.
        finishes = []
        finish = DataNode.finish

        def recording_finish(node, task_id, exec_spent):
            task = node.running[task_id]
            finishes.append((task_id, exec_spent, task.exec_time))
            return finish(node, task_id, exec_spent)

        monkeypatch.setattr(DataNode, "finish", recording_finish)
        fault = ClusterFaultConfig(
            seed=3, node_crashes=2, partitions=1, slow_nodes=2,
            crash_duration=0.02, partition_duration=0.01, slow_duration=0.03,
            horizon=0.06,
        )
        report = run_fleet(0.8, seed=3, fault_config=fault, num_requests=6000)
        assert report.redispatches > 0
        assert len(finishes) == report.tasks_done
        early = [
            (task_id, spent, exec_time)
            for task_id, spent, exec_time in finishes
            if spent < exec_time * (1.0 - 1e-9)
        ]
        assert early == []

    def test_unreachable_everything_parks_then_recovers(self):
        # One shard, all replicas on one node: crashing it must park work,
        # and recovery must drain the park list (the run finishes clean).
        config = ClusterConfig(
            data_nodes=1, service_nodes=1, shards=1, replicas=1, racks=1,
            slots_per_node=2, slo=0.05, autoscale=False, cache_capacity=0,
        )
        fault = ClusterFaultConfig(
            seed=1, node_crashes=1, crash_duration=0.02, horizon=0.03
        )
        rate = 0.5 * cluster_saturating_rate(SERVICE, config)
        arrivals = poisson_arrivals(rate, 800, seed=1)
        simulator = build_cluster(SERVICE, config, seed=1, fault_config=fault)
        report = simulator.run(arrivals)
        assert report.completed + report.shed == report.arrived
        assert report.parked_events > 0
        actions = [event.action for event in report.failover_timeline]
        assert "park" in actions and "unpark" in actions
        assert report.parked_time > 0.0
        # With a single replica, the crash window is an analytic outage.
        assert report.failover_downtime > 0.0

    def test_shard_outage_analytic_matches_plan(self):
        config = ClusterFaultConfig(
            seed=1, node_crashes=1, crash_duration=0.02, horizon=0.03
        )
        plan = ClusterFaultPlan.build(config, nodes=1, racks=1)
        placement = Placement(
            assignments=((0,),), hosted=((0,),), hot_degrees=(1.0,)
        )
        outages = shard_outage_seconds(plan, placement)
        assert outages[0] == pytest.approx(0.02)


class TestReport:
    def test_conservation_enforced_in_report(self):
        with pytest.raises(SimulationError):
            run_report = run_fleet(0.5, num_requests=1000)
            run_report.completed += 1
            run_report.__post_init__()

    def test_latency_array_masks_shed(self):
        array = build_latency_array(4)
        array[0] = 0.01
        array[2] = 0.03
        report = run_fleet(0.5, num_requests=1000)
        assert report.p50 >= 0.0
        with pytest.raises(WorkloadError):
            report.percentile(123.0)

    def test_to_dict_round_trips_json(self):
        report = run_fleet(0.8, fault_config=FAULTED, num_requests=2000)
        payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert payload["arrived"] == 2000
        assert payload["completed"] + payload["shed"] == 2000
        assert isinstance(payload["failover_events"], list)
        assert payload["utilization_skew"] >= 1.0 or (
            payload["utilization_skew"] == 0.0
        )


class TestPolicyAxes:
    """Placement / steal / autoscale as first-class, sweepable policies."""

    PACKED_SHAPE = dict(
        data_nodes=4, service_nodes=2, shards=2, replicas=6,
        racks=3, slots_per_node=2, slo=0.05,
    )

    def test_unknown_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(data_nodes=8, placement_strategy="bogus")
        with pytest.raises(ConfigurationError):
            ClusterConfig(data_nodes=8, steal_policy="bogus")

    def test_strategies_are_exported_and_defaulted(self):
        assert ClusterConfig(data_nodes=8).placement_strategy == PLACEMENT_STRATEGIES[0]
        assert ClusterConfig(data_nodes=8).steal_policy == STEAL_POLICIES[0]

    def test_strategies_place_distinctly(self):
        placements = {
            strategy: place_replicas(
                ClusterConfig(**self.PACKED_SHAPE, placement_strategy=strategy),
                [1.0, 1.0],
            ).assignments
            for strategy in PLACEMENT_STRATEGIES
        }
        assert len(set(placements.values())) == len(PLACEMENT_STRATEGIES)

    def test_locality_packed_fills_racks_first(self):
        config = ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=8,
            racks=2, slots_per_node=2, slo=0.05,
            placement_strategy="locality-packed",
        )
        placement = place_replicas(config, [1.0] * config.shards)
        for nodes in placement.assignments:
            assert len({config.node_rack(n) for n in nodes}) == 1

    def test_rack_spread_crosses_racks(self):
        placement = place_replicas(CONFIG, [1.0] * CONFIG.shards)
        for nodes in placement.assignments:
            assert len({CONFIG.node_rack(n) for n in nodes}) >= 2

    def test_each_strategy_deterministic(self):
        for strategy in PLACEMENT_STRATEGIES:
            config = ClusterConfig(**self.PACKED_SHAPE, placement_strategy=strategy)
            first = place_replicas(config, [2.0, 1.0])
            second = place_replicas(config, [2.0, 1.0])
            assert first.assignments == second.assignments

    def _steal_config(self, policy):
        return ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=0.05, steal_policy=policy,
        )

    def test_steal_policy_none_never_steals(self):
        report = run_fleet(
            1.5,
            config=self._steal_config("none"),
            hot_degrees=[3.0, 0.4, 0.3, 0.3],
        )
        assert report.steals == 0

    def test_steal_policies_engage_and_stay_deterministic(self):
        for policy in ("newest", "oldest"):
            config = self._steal_config(policy)
            first = run_fleet(1.5, config=config, hot_degrees=[3.0, 0.4, 0.3, 0.3])
            second = run_fleet(1.5, config=config, hot_degrees=[3.0, 0.4, 0.3, 0.3])
            assert first.steals > 0
            assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
                second.to_dict(), sort_keys=True
            )

    def test_explicit_defaults_byte_identical_to_seed_behavior(self):
        explicit = ClusterConfig(
            data_nodes=8, service_nodes=2, shards=4, replicas=12,
            racks=2, slots_per_node=2, slo=0.05,
            placement_strategy="rack-spread", steal_policy="newest",
        )
        base = run_fleet(1.2, config=CONFIG)
        same = run_fleet(1.2, config=explicit)
        assert json.dumps(base.to_dict(), sort_keys=True) == json.dumps(
            same.to_dict(), sort_keys=True
        )

    def test_policies_participate_in_run_identity(self):
        ids = {
            derive_run_id(
                {"placement": strategy, "steal": policy}, 7, {"kind": "x"}
            )
            for strategy in PLACEMENT_STRATEGIES
            for policy in STEAL_POLICIES
        }
        assert len(ids) == len(PLACEMENT_STRATEGIES) * len(STEAL_POLICIES)


class TestBitIdentityPin:
    """Fleet simulated outputs, pinned bit-for-bit.

    Replays seeded Poisson streams through the perfbench fleet shape (8 data
    nodes, 4 service nodes, 4 shards x 24 replicas over 2 racks, 2 slots per
    node, 50 ms SLO) on the calibrated GNMT-E32K service model, plus one
    small 4-node shape whose crashes and partitions park, unpark and
    redispatch tasks.  The digest covers every latency's ``float.hex``, the
    full failover timeline, per-node busy time, makespan, parked time and
    the shed reasons; any change to event order or timing moves it.
    """

    SERVICE = AffineServiceModel(
        base=0.0016113548959203984, per_query=7.736464102345414e-05, knee=16
    )
    # name -> (multiplier, faulted, seed, steal policy, requests, small shape)
    CASES = {
        "fleet-zipf": (0.9, False, 11, "newest", 10_000, False),
        "fleet-faulted": (2.0, True, 11, "newest", 10_000, False),
        "steal-oldest": (1.5, False, 11, "oldest", 10_000, False),
        "park-failover": (0.8, True, 4, "newest", 4000, True),
    }
    # name -> (digest, failover_timeline_digest, (steals, redispatches,
    #          parked_events, batches, cache_hits, shed), makespan hex)
    EXPECTED = {
        "fleet-zipf": (
            "ecf0ccf73334f6391b0c9affcf64c38e76f5a6576e477dc2a90c56a48aeccc36",
            (0, 0, 0), (1058, 0, 0, 779, 6681, 0), "0x1.724e4614babbap-2",
        ),
        "fleet-faulted": (
            "a882d96da1ecde5733c7cb77d3966bafb27b22c5b7c42f25500247edb5385f53",
            (61, 0, 0), (16, 61, 0, 359, 0, 4355), "0x1.87a042b9f1e75p-3",
        ),
        "steal-oldest": (
            "dd2671538a40cc4172dc998a2226a87d9274d91f1ba38aa860375dcbb112c7db",
            (0, 0, 0), (631, 0, 0, 455, 6599, 0), "0x1.c06011aa4710dp-3",
        ),
        "park-failover": (
            "f8dc0913515df5498e7aaaf24f31601881b287276753f0d5181dacf8e475acab",
            (180, 473, 473), (174, 180, 473, 331, 1908, 877), "0x1.b2d604cd4b4f5p-2",
        ),
    }

    # name -> (sha256 over every per-event digest, sanitizer pops observed)
    EXPECTED_DIGESTS = {
        "fleet-zipf": (
            "d752d58008466b68dee74c7372232a43d577aa7407a7b7f6f53daf2e3ae1f95a", 23902,
        ),
        "fleet-faulted": (
            "1c9021096ff6c12632662221e6a36ea7be43f27657f2666ff36b9267c986187d", 17453,
        ),
    }

    def replay(self, name, digest_recorder=None):
        multiplier, faulted, seed, policy, requests, small = self.CASES[name]
        if small:
            config = ClusterConfig(
                data_nodes=4, service_nodes=2, shards=4, replicas=5, racks=2,
                slots_per_node=2, slo=0.05, steal_policy=policy,
            )
        else:
            config = ClusterConfig(
                data_nodes=8, service_nodes=4, shards=4, replicas=24, racks=2,
                slots_per_node=2, slo=0.05, steal_policy=policy,
            )
        rate = multiplier * cluster_saturating_rate(self.SERVICE, config)
        arrivals = poisson_arrivals(rate, requests, seed=seed)
        keys = None
        fault = ClusterFaultConfig.disabled()
        if faulted:
            span = float(arrivals[-1])
            crashes, partitions, crash_share = (3, 2, 0.15) if small else (2, 1, 0.25)
            fault = ClusterFaultConfig(
                seed=seed, node_crashes=crashes, crash_duration=crash_share * span,
                partitions=partitions, partition_duration=0.10 * span,
                slow_nodes=2, slow_duration=0.30 * span, horizon=0.80 * span,
            )
            if not small:
                keys = np.arange(requests, dtype=np.int64)
        simulator = build_cluster(
            self.SERVICE, config, seed=seed, fault_config=fault,
            digest_recorder=digest_recorder,
        )
        return simulator.run(arrivals, keys=keys)

    @staticmethod
    def digest(report):
        sha = hashlib.sha256()
        for latency in report.latencies.tolist():
            sha.update(latency.hex().encode())
        sha.update(repr(failover_timeline_digest(report.failover_timeline)).encode())
        for e in report.failover_timeline:
            sha.update(
                f"{e.time.hex()}|{e.action}|{e.shard}|{e.task_id}|"
                f"{e.from_node}|{e.to_node}".encode()
            )
        for busy in report.node_busy:
            sha.update(busy.hex().encode())
        sha.update(report.makespan.hex().encode())
        sha.update(report.parked_time.hex().encode())
        sha.update(repr(sorted(report.shed_by_reason.items())).encode())
        return sha.hexdigest()

    @pytest.mark.parametrize("name", list(CASES))
    def test_replay_is_bit_identical(self, name):
        report = self.replay(name)
        observed = (
            self.digest(report),
            failover_timeline_digest(report.failover_timeline),
            (
                report.steals, report.redispatches, report.parked_events,
                report.batches, report.cache_hits, report.shed,
            ),
            report.makespan.hex(),
        )
        assert observed == self.EXPECTED[name]

    @pytest.mark.parametrize("name", list(EXPECTED_DIGESTS))
    def test_digests_and_sanitizer_pops_are_pinned(self, name):
        # A digest per event captures ``seq=kernel.seq`` and the loop's
        # counters at every tick, so it pins the event order and the seq
        # numbering that run manifests store; the sanitizer sees every pop.
        recorder = DigestRecorder(interval=1, label=name)
        with installed(SimSanitizer()) as sanitizer:
            self.replay(name, digest_recorder=recorder)
        sha = hashlib.sha256()
        for entry in recorder.entries:
            sha.update(entry.digest.encode())
        assert sanitizer.violations == []
        assert (sha.hexdigest(), sanitizer.pops_observed) == self.EXPECTED_DIGESTS[name]
