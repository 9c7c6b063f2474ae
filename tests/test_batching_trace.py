"""Tests for the batching analyzer and the flash command trace."""

import pytest

from repro.core.batching import BatchingAnalyzer, BatchPoint, optimal_batch
from repro.config import FlashConfig
from repro.errors import ConfigurationError, SimulationError
from repro.ssd.channel import Channel
from repro.ssd.controller import CommandKind, FlashCommand, FlashController
from repro.ssd.geometry import FlashGeometry, PhysicalAddress
from repro.ssd.trace import CommandTrace, TraceEvent, TracingController
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.traces import CandidateTraceGenerator, LabelHotnessModel


@pytest.fixture(scope="module")
def analyzer():
    spec = get_benchmark("GNMT-E32K")
    hotness = LabelHotnessModel(num_labels=spec.num_labels, run_length=1, seed=3)
    generator = CandidateTraceGenerator(hotness, candidate_ratio=0.1, query_noise=0.05)
    return BatchingAnalyzer(spec, generator, sample_tiles=4)


class TestBatching:
    def test_throughput_rises_with_batch_until_compute_bound(self, analyzer):
        points = analyzer.sweep([1, 4, 16, 64])
        qps = [p.queries_per_second for p in points]
        assert qps[1] > qps[0]
        assert qps[2] > qps[1]
        # Throughput saturates once compute dominates.
        assert points[-1].compute_bound_fraction == 1.0
        assert qps[3] < qps[2] * 4  # sub-linear growth past the corner

    def test_small_batches_memory_bound(self, analyzer):
        point = analyzer.evaluate(1)
        assert point.compute_bound_fraction == 0.0

    def test_queue_wait_scales_with_batch(self, analyzer):
        slow = analyzer.evaluate(16, arrival_rate=100.0)
        fast = analyzer.evaluate(4, arrival_rate=100.0)
        assert slow.queue_wait > fast.queue_wait
        assert slow.mean_latency == pytest.approx(
            slow.queue_wait + slow.batch_time
        )

    def test_validation(self, analyzer):
        with pytest.raises(ConfigurationError):
            analyzer.evaluate(0)
        with pytest.raises(ConfigurationError):
            analyzer.evaluate(4, arrival_rate=-1)

    def test_optimal_batch_prefers_small_near_peak(self):
        points = [
            BatchPoint(4, 1.0, 100.0, 0.0, 0.0),
            BatchPoint(8, 1.0, 199.0, 0.5, 0.0),
            BatchPoint(16, 1.0, 200.0, 1.0, 0.0),
            BatchPoint(32, 1.0, 200.5, 1.0, 0.0),
        ]
        # 199 q/s is within 2% of the 200.5 peak, so batch 8 wins the tie.
        assert optimal_batch(points).batch == 8
        with pytest.raises(ConfigurationError):
            optimal_batch([])


def tiny_flash() -> FlashConfig:
    return FlashConfig(
        channels=1, packages_per_channel=2, dies_per_package=2,
        planes_per_die=1, blocks_per_plane=4, pages_per_block=8,
    )


def make_tracer():
    cfg = tiny_flash()
    trace = CommandTrace()
    controller = FlashController(Channel(0, cfg), FlashGeometry(cfg))
    return TracingController(controller, trace), trace


def read(pkg, die, page=0):
    return FlashCommand(CommandKind.READ, PhysicalAddress(0, pkg, die, 0, 0, page))


class TestCommandTrace:
    def test_events_recorded(self):
        tracer, trace = make_tracer()
        tracer.submit(0.0, [read(0, 0), read(1, 1)])
        assert len(trace) == 2
        assert trace.per_channel_counts() == {0: 2}
        assert trace.per_die_counts() == {(0, 0, 0): 1, (0, 1, 1): 1}

    def test_makespan_and_latency(self):
        tracer, trace = make_tracer()
        result = tracer.submit(0.0, [read(0, 0), read(0, 1)])
        assert trace.makespan() == pytest.approx(result.finish)
        assert trace.mean_latency(CommandKind.READ) > 0
        with pytest.raises(SimulationError):
            trace.mean_latency(CommandKind.ERASE)

    def test_queue_depth(self):
        tracer, trace = make_tracer()
        tracer.submit(0.0, [read(p, d) for p in range(2) for d in range(2)])
        # All four senses overlap -> depth reaches 4.
        assert trace.max_queue_depth() == 4

    def test_empty_trace(self):
        trace = CommandTrace()
        assert trace.makespan() == 0.0
        assert trace.max_queue_depth() == 0

    def test_event_fields(self):
        event = TraceEvent(0, 1, 2, 3, CommandKind.READ, 1.0, 2.5)
        assert event.latency == 1.5
        assert event.die_key == (1, 2, 3)
