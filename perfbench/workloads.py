"""The four benchmark workloads: seeded inputs, one timed rep, and its checks.

Every workload follows the same shape:

* ``setup(seed, span)`` generates the inputs from the seed and builds the
  state the first rep runs on (calibration, construction, deployment,
  preconditioning).  ``run.py`` times it as set-up.
* ``rep(check)`` runs one fixed amount of work on fresh state and returns a
  :class:`RepResult`: host seconds per chunk of work, the simulated outcome,
  and the number of operations whose output check failed.  Fresh state for a
  later rep is built outside the timed chunks.
* the simulated outcome of a rep is a pure function of the seed, so every
  rep of one run must produce the same ``fingerprint``.

``repro`` is imported inside the methods, never at module import time, so
``run.py`` can time the first import of the package itself.
"""

from __future__ import annotations

import heapq
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

perf = time.perf_counter

#: Context-manager factory for the benchmark's own spans (``nullcontext``
#: when untraced; the span recorder's ``span`` in the traced run).
SpanFactory = Callable[[str], object]


def no_span(_name: str) -> object:
    return nullcontext()


@dataclass
class RepResult:
    """Outcome of one rep of a workload."""

    ops: int = 0
    failed: int = 0
    #: (ops, host seconds, reference-loop seconds measured just before)
    chunks: List[Tuple[int, float, float]] = field(default_factory=list)
    op_host_s: List[float] = field(default_factory=list)  # per timed call
    sim: Dict[str, float] = field(default_factory=dict)
    fingerprint: Tuple = ()
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def host_s(self) -> float:
        return sum(chunk[1] for chunk in self.chunks)


#: Pushes (and pops) of the reference loop run before every timed chunk.
REF_LOOP_OPS = 20_000


def ref_loop(ops: int = REF_LOOP_OPS) -> float:
    """Host seconds of a fixed pure-Python heap/dict loop.

    The loop never changes with the simulator, so its time tracks how fast
    the host runs Python at the moment; ``run.py`` uses it to express host
    times at a fixed nominal speed.
    """
    start = perf()
    heap: List[int] = []
    table: Dict[int, int] = {}
    for i in range(ops):
        heapq.heappush(heap, (i * 7919) % 100_003)
        table[i & 4095] = i
    while heap:
        heapq.heappop(heap)
    return perf() - start


def derived_seeds(seed: int, salt: int, count: int) -> List[int]:
    """``count`` independent 31-bit seeds drawn from (seed, salt)."""
    state = np.random.SeedSequence([seed, salt]).generate_state(count)
    return [int(value) & 0x7FFFFFFF for value in state]


def percentile_ms(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


class Workload:
    """Base class; see the module docstring."""

    #: ``repro`` modules the workload uses; their first import is timed.
    modules: Tuple[str, ...] = ()
    #: Simulated latency limit per latency sample (request, call or burst).
    slo_s = 0.0
    #: Traced run: tally exact per-layer counts that cost extra host time.
    detail = False

    def setup(self, seed: int, span: SpanFactory = no_span) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work that lets lazy set-up and caches settle."""
        raise NotImplementedError

    def rep(self, check: bool = True) -> RepResult:
        raise NotImplementedError

    _fresh: object = None

    def fresh_state(self) -> object:
        """The state one rep starts from; built outside the timed chunks."""
        return None

    def prepare(self) -> None:
        """Build the next rep's starting state unless it is ready."""
        if self._fresh is None:
            self._fresh = self.fresh_state()

    def take_state(self) -> object:
        self.prepare()
        state, self._fresh = self._fresh, None
        return state


# --- fleet ------------------------------------------------------------------------


class Fleet(Workload):
    """The calibrated GNMT-E32K fleet of ``benchmarks/test_cluster.py``.

    One rep replays ``SEGMENTS`` independent open-loop arrival streams of
    ``REQUESTS`` Poisson arrivals each, every segment on a freshly built
    fleet with its own derived seed (arrivals, cache keys, crawlers and
    fault plan).  Counts and rates pool the segments.  The latency
    percentiles are the median over segments of each segment's percentile:
    segment tails are heavy (on ``fleet-zipf`` about one segment in eight has
    an autoscaler that scales down too far, and a p99 two or three times
    the others), so a pooled p99 moves by 10-18% between workload seeds
    with how many such segments a seed draws, and the median segment's p99
    by about 6%.
    """

    modules = (
        "repro",
        "repro.cluster",
        "repro.cluster.cache",
        "repro.cluster.report",
        "repro.core.batching",
        "repro.faults",
        "repro.serve",
        "repro.workloads.benchmarks",
        "repro.workloads.streams",
        "repro.workloads.traces",
    )
    slo_s = 0.05
    SEGMENTS = 48
    REQUESTS = 10_000
    SEED_SALT = 0xF1EE7

    def __init__(self, multiplier: float, faulted: bool) -> None:
        self.multiplier = multiplier
        self.faulted = faulted

    @staticmethod
    def cluster_config():
        from repro.cluster import ClusterConfig

        return ClusterConfig(
            data_nodes=8,
            service_nodes=4,
            shards=4,
            replicas=24,
            racks=2,
            slots_per_node=2,
            slo=Fleet.slo_s,
        )

    @staticmethod
    def calibrated_service():
        """Affine service model fitted to a batch sweep (as the fleet bench)."""
        from repro.core.batching import BatchingAnalyzer
        from repro.serve import AffineServiceModel
        from repro.workloads.benchmarks import get_benchmark
        from repro.workloads.traces import CandidateTraceGenerator, LabelHotnessModel

        spec = get_benchmark("GNMT-E32K")
        hotness = LabelHotnessModel(num_labels=spec.num_labels, run_length=1, seed=3)
        generator = CandidateTraceGenerator(
            hotness, candidate_ratio=0.10, query_noise=0.05
        )
        analyzer = BatchingAnalyzer(spec, generator, sample_tiles=4)
        return AffineServiceModel.from_batch_points(
            analyzer.sweep((1, 2, 4, 8, 16, 32))
        )

    def fault_config(self, seed: int, span_s: float):
        from repro.faults import ClusterFaultConfig

        if not self.faulted:
            return ClusterFaultConfig.disabled()
        return ClusterFaultConfig(
            seed=seed,
            node_crashes=2,
            crash_duration=0.25 * span_s,
            partitions=1,
            partition_duration=0.10 * span_s,
            slow_nodes=2,
            slow_duration=0.30 * span_s,
            horizon=0.80 * span_s,
        )

    def setup(self, seed: int, span: SpanFactory = no_span) -> None:
        from repro import cluster
        from repro.cluster.cache import zipf_keys
        from repro.workloads.streams import poisson_arrivals

        self.config = self.cluster_config()
        self.service = self.calibrated_service()
        rate = self.multiplier * cluster.cluster_saturating_rate(
            self.service, self.config
        )
        self.segments = []
        with span("workloads.gen"):
            for sub in derived_seeds(seed, self.SEED_SALT, self.SEGMENTS):
                arrivals = poisson_arrivals(rate, self.REQUESTS, seed=sub)
                if self.faulted:
                    keys = np.arange(self.REQUESTS, dtype=np.int64)
                else:
                    keys = zipf_keys(
                        self.REQUESTS,
                        self.config.cache_groups,
                        self.config.cache_skew,
                        sub,
                    )
                fault = self.fault_config(sub, float(arrivals[-1]))
                self.segments.append((sub, arrivals, keys, fault))
        self._fresh = None
        self.prepare()

    def fresh_state(self) -> list:
        return [self.build(index) for index in range(len(self.segments))]

    def build(self, index: int, digest_recorder=None):
        """A freshly built fleet for segment ``index``."""
        from repro import cluster

        sub, _arrivals, _keys, fault = self.segments[index]
        return cluster.build_cluster(
            self.service,
            self.config,
            seed=sub,
            fault_config=fault,
            digest_recorder=digest_recorder,
        )

    def run_segment(self, index: int, digest_recorder=None):
        """(host seconds, report) of segment ``index`` on a fresh fleet."""
        simulator = self.build(index, digest_recorder)
        _sub, arrivals, keys, _fault = self.segments[index]
        start = perf()
        report = simulator.run(arrivals, keys=keys)
        return perf() - start, report

    def warmup(self) -> None:
        self.run_segment(0)

    def rep(self, check: bool = True) -> RepResult:
        simulators = self.take_state()
        result = RepResult()
        reports = []
        for simulator, (_sub, arrivals, keys, _fault) in zip(
            simulators, self.segments
        ):
            result.ops += len(arrivals)
            reference = ref_loop()
            start = perf()
            try:
                report = simulator.run(arrivals, keys=keys)
            except Exception:  # a broken run is a failed segment, not a crash
                result.chunks.append((len(arrivals), perf() - start, reference))
                result.failed += len(arrivals)
                continue
            result.chunks.append((len(arrivals), perf() - start, reference))
            if check and not self.segment_ok(report):
                result.failed += len(arrivals)
            reports.append(report)
        if reports:
            result.sim, result.fingerprint = self.outcome(reports)
            result.counts = self.counts(reports)
        return result

    def segment_ok(self, report) -> bool:
        """Conservation, and cache hits at exactly the configured hit time."""
        if report.completed + report.shed != report.arrived:
            return False
        hits = self.split_latencies(report)[0]
        return bool(np.all(np.abs(hits - self.config.cache_hit_time) < 1e-9))

    @staticmethod
    def split_latencies(report) -> Tuple[np.ndarray, np.ndarray]:
        """(cache-hit latencies, data-plane latencies) of completed requests.

        A cache hit completes after the fixed ``cache_hit_time``; every
        other completed request went through admission, batching, the data
        nodes and the merge, and takes far longer.  The report counts the
        hits, so the shortest ``cache_hits`` latencies are the hits.
        """
        from repro.cluster.report import LATENCY_UNSET

        done = np.sort(report.latencies[report.latencies > LATENCY_UNSET])
        return done[: report.cache_hits], done[report.cache_hits:]

    def outcome(self, reports: Sequence) -> Tuple[Dict[str, float], Tuple]:
        """Pooled simulated metrics and the rep's fingerprint."""
        from repro.cluster.report import LATENCY_UNSET, failover_timeline_digest

        arrived = sum(r.arrived for r in reports)
        good = sum(
            int(np.sum(r.latencies[r.latencies > LATENCY_UNSET] <= r.slo))
            for r in reports
        )
        makespan = sum(r.makespan for r in reports)
        planes = [self.split_latencies(r)[1] for r in reports]
        sim = {
            "sim_goodput_per_s": good / makespan,
            "sim_p50_ms": float(np.median([percentile_ms(p, 50.0) for p in planes])),
            "sim_p99_ms": float(np.median([percentile_ms(p, 99.0) for p in planes])),
            "sim_slo_attainment": good / arrived,
            "recall_at_5": 1.0,
        }
        fingerprint = tuple(sorted(sim.items())) + tuple(
            (r.completed, r.shed, r.cache_hits, r.batches, r.steals,
             failover_timeline_digest(r.failover_timeline))
            for r in reports
        )
        return sim, fingerprint

    @staticmethod
    def counts(reports: Sequence) -> Dict[str, float]:
        arrived = sum(r.arrived for r in reports)
        hits = sum(r.cache_hits for r in reports)
        shed = sum(r.shed for r in reports)
        tasks = sum(r.tasks_done for r in reports)
        steals = sum(r.steals for r in reports)
        return {
            "cluster.requests": arrived,
            "cluster.batches": sum(r.batches for r in reports),
            "cluster.tasks": tasks,
            "cluster.steals": steals,
            "cluster.redispatches": sum(r.redispatches for r in reports),
            "cluster.parked": sum(r.parked_events for r in reports),
            "cluster.scale_events": sum(r.scale_ups + r.scale_downs for r in reports),
            "cluster.cache_hit_ratio": hits / arrived,
            "cluster.steal_ratio": steals / tasks if tasks else 0.0,
            "serve.shed": shed,
            "serve.admit_ratio": (arrived - hits - shed) / arrived,
        }


# --- device queries -----------------------------------------------------------------


class DeviceQuery(Workload):
    """A closed loop of one caller over the Table-1 API.

    Set-up materializes a clustered 4096-label x 256-dim classifier and runs
    ``weight_deploy`` with calibration features held apart from the query
    features.  A rep makes ``CALLS`` calls, each on its own 8-query batch:
    ``pre_align`` -> ``cfp32_input_send`` -> ``int4_input_send`` ->
    ``int4_screen`` -> ``cfp32_classify`` -> ``get_results``.

    Screening keeps ``TARGET_RATIO`` = 5% of the labels per query.  At the
    default 10%, the candidates of one 8-query batch cover nearly every FP32
    page of this small label space, so every call fetches the whole matrix
    and the simulated latency sits at its ceiling whatever the model does.
    """

    modules = ("repro", "repro.core.api", "repro.workloads.synthetic")
    slo_s = 1e-3  # per 8-query call
    LABELS = 4096
    HIDDEN = 256
    BATCH = 8
    CALLS = 1200
    CALIBRATION = 64
    CHUNK = 100  # calls per timed chunk
    TOP_K = 5
    TARGET_RATIO = 0.05
    RECALL_FLOOR = 0.5
    SEED_SALT = 0xDE71CE

    def __init__(self) -> None:
        self._exact: Optional[np.ndarray] = None

    def setup(self, seed: int, span: SpanFactory = no_span) -> None:
        from repro.core.api import ECSSD
        from repro.workloads import synthetic

        weight_seed, feature_seed = derived_seeds(seed, self.SEED_SALT, 2)
        with span("workloads.gen"):
            weights, cluster_of_label = synthetic.generate_weights(
                self.LABELS, self.HIDDEN, seed=weight_seed
            )
            features, _ = synthetic.generate_features(
                self.CALIBRATION + self.CALLS * self.BATCH,
                self.HIDDEN,
                weights,
                cluster_of_label,
                seed=feature_seed,
            )
        self.weights = weights
        self.queries = features[self.CALIBRATION:].reshape(
            self.CALLS, self.BATCH, self.HIDDEN
        )
        self.api = ECSSD()
        self.api.ecssd_enable()
        self.api.weight_deploy(
            weights,
            train_features=features[: self.CALIBRATION],
            target_ratio=self.TARGET_RATIO,
        )
        self._exact = None

    def exact_top_k(self) -> np.ndarray:
        """Exact FP32 top-k labels of every query, computed once."""
        if self._exact is None:
            exact = np.empty((self.CALLS, self.BATCH, self.TOP_K), dtype=np.int64)
            for first in range(0, self.CALLS, self.CHUNK):
                scores = self.queries[first: first + self.CHUNK] @ self.weights.T
                exact[first: first + self.CHUNK] = np.argpartition(
                    -scores, self.TOP_K, axis=-1
                )[..., : self.TOP_K]
            self._exact = exact
        return self._exact

    def call(self, batch: np.ndarray):
        api = self.api
        api.cfp32_input_send(api.pre_align(batch))
        api.int4_input_send(batch)
        screen = api.int4_screen()
        api.cfp32_classify()
        return screen, api.get_results()

    def warmup(self) -> None:
        for index in range(self.CHUNK):
            self.call(self.queries[index])

    def rep(self, check: bool = True) -> RepResult:
        result = RepResult()
        latencies = np.empty(self.CALLS)
        labels = np.full((self.CALLS, self.BATCH, self.TOP_K), -1, dtype=np.int64)
        candidates = 0
        channel_pages = None
        placement = self.api.device.deployment.placement
        for first in range(0, self.CALLS, self.CHUNK):
            chunk_s = 0.0
            reference = ref_loop()
            calls = range(first, min(first + self.CHUNK, self.CALLS))
            for index in calls:
                batch = self.queries[index]
                start = perf()
                try:
                    screen, top = self.call(batch)
                except Exception:  # a failed call fails its queries
                    chunk_s += perf() - start
                    result.failed += self.BATCH
                    latencies[index] = np.nan
                    continue
                elapsed = perf() - start
                chunk_s += elapsed
                result.op_host_s.append(elapsed)
                latencies[index] = self.api.last_report.scaled_total_time
                if top.shape == (self.BATCH, self.TOP_K):
                    labels[index] = top
                elif check:
                    result.failed += self.BATCH
                if self.detail:
                    candidates += sum(len(c) for c in screen.candidates)
                    union = np.unique(np.concatenate(screen.candidates))
                    pages = placement.pages_per_channel(union)
                    channel_pages = pages if channel_pages is None else channel_pages + pages
            result.ops += len(calls) * self.BATCH
            result.chunks.append((len(calls) * self.BATCH, chunk_s, reference))
        recall = self.recall(labels)
        if check and recall < self.RECALL_FLOOR:
            result.failed = result.ops
        queries = self.CALLS * self.BATCH
        good_calls = latencies <= self.slo_s
        result.sim = {
            "sim_goodput_per_s": float(np.sum(good_calls)) * self.BATCH
            / float(np.sum(latencies)),
            "sim_p50_ms": percentile_ms(latencies, 50.0),
            "sim_p99_ms": percentile_ms(latencies, 99.0),
            "sim_slo_attainment": float(np.sum(good_calls)) * self.BATCH / queries,
            "recall_at_5": recall,
        }
        result.fingerprint = (
            tuple(sorted(result.sim.items())),
            latencies.tobytes(),
            labels.tobytes(),
        )
        if self.detail:
            result.counts = {
                "screening.candidate_ratio": candidates / (queries * self.LABELS),
                "screening.useful_ratio": queries * self.TOP_K / candidates,
                "layout.channel_imbalance": float(
                    np.max(channel_pages) / np.mean(channel_pages)
                ),
            }
        return result

    def recall(self, labels: np.ndarray) -> float:
        """Mean overlap of the returned top-k with the exact FP32 top-k."""
        exact = self.exact_top_k()
        hits = (labels[..., :, None] == exact[..., None, :]).any(axis=-1)
        return float(hits.sum()) / float(labels.size)


# --- SSD-mode mixed I/O -------------------------------------------------------------


class SsdMixed(Workload):
    """A closed loop of SSD-mode ``host_write`` / ``host_read`` bursts.

    The device has a small geometry (8 channels x 2 dies x 64 blocks x 16
    pages) so that GC works hard.  Set-up fills ``FILL`` of every channel's
    user pages once, which triggers no GC; the timed bursts then overwrite
    and read random LPAs of that filled set, so GC and erases fire only
    there.  Burst sizes are random, so simulated latencies spread.
    """

    modules = ("repro", "repro.config", "repro.ssd.device", "repro.ssd.geometry")
    slo_s = 2e-3  # per burst
    FLASH = dict(
        channels=8,
        packages_per_channel=1,
        dies_per_package=2,
        planes_per_die=1,
        blocks_per_plane=64,
        pages_per_block=16,
    )
    FILL = 0.8
    FILL_BURST = 64
    BURSTS = 8000
    MIN_PAGES = 4
    MAX_PAGES = 28
    WRITE_SHARE = 0.3
    CHUNK = 500  # bursts per timed chunk
    SEED_SALT = 0x55D

    def __init__(self) -> None:
        self.setup_failures = 0

    def setup(self, seed: int, span: SpanFactory = no_span) -> None:
        (burst_seed,) = derived_seeds(seed, self.SEED_SALT, 1)
        self._fresh = None
        device = self.empty_device()
        per_channel = device.ftl.user_pages_per_channel
        filled = int(per_channel * self.FILL)
        with span("workloads.gen"):
            self.filled = np.concatenate(
                [np.arange(c * per_channel, c * per_channel + filled)
                 for c in range(device.config.flash.channels)]
            )
            rng = np.random.default_rng(burst_seed)
            self.writes = rng.random(self.BURSTS) < self.WRITE_SHARE
            sizes = rng.integers(self.MIN_PAGES, self.MAX_PAGES + 1, size=self.BURSTS)
            picks = rng.integers(0, len(self.filled), size=int(sizes.sum()))
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            self.bursts = [
                self.filled[picks[lo:hi]].tolist()
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        self.precondition(device)
        self._fresh = device

    def fresh_state(self):
        device = self.empty_device()
        self.precondition(device)
        return device

    def empty_device(self):
        from repro.config import ECSSDConfig, FlashConfig
        from repro.ssd.device import SSDDevice

        return SSDDevice(ECSSDConfig(flash=FlashConfig(**self.FLASH)))

    def precondition(self, device) -> None:
        """Write every filled LPA once, then start the clocks from zero."""
        lpas = self.filled.tolist()
        for lo in range(0, len(lpas), self.FILL_BURST):
            device.host_write(lpas[lo: lo + self.FILL_BURST])
        if device.ftl.gc_events:  # the fill must leave GC to the timed bursts
            self.setup_failures += len(lpas)
        device.reset_timing()

    def warmup(self) -> None:
        device = self.fresh_state()
        for write, lpas in zip(self.writes[: self.CHUNK], self.bursts[: self.CHUNK]):
            (device.host_write if write else device.host_read)(lpas)

    def rep(self, check: bool = True) -> RepResult:
        device = self.take_state()
        ftl = device.ftl
        geometry = device.geometry
        result = RepResult()
        tracker = MappingTracker(ftl, geometry, self.filled) if check else None
        written0, relocated0 = ftl.pages_written, ftl.pages_relocated
        latencies = np.empty(self.BURSTS)
        sizes = np.array([len(b) for b in self.bursts])
        for first in range(0, self.BURSTS, self.CHUNK):
            chunk_s = 0.0
            reference = ref_loop()
            last = min(first + self.CHUNK, self.BURSTS)
            for index in range(first, last):
                lpas = self.bursts[index]
                write = self.writes[index]
                if tracker is not None and not write:
                    result.failed += tracker.check_reads(lpas)
                before = device.clock
                start = perf()
                try:
                    finish = (device.host_write if write else device.host_read)(lpas)
                except Exception:  # the device state is now unknown
                    chunk_s += perf() - start
                    result.failed += int(sizes[index:].sum())
                    result.ops += int(sizes[first:].sum())
                    result.chunks.append(
                        (int(sizes[first:index + 1].sum()), chunk_s, reference)
                    )
                    return result
                chunk_s += perf() - start
                latencies[index] = finish - before
                if tracker is not None and write:
                    tracker.record_writes(lpas)
            pages = int(sizes[first:last].sum())
            result.ops += pages
            result.chunks.append((pages, chunk_s, reference))
        if tracker is not None:
            result.failed += tracker.check_injective()
        result.failed += self.setup_failures
        good = latencies <= self.slo_s
        good_pages = float(np.sum(sizes[good]))
        gc_events = len(ftl.gc_events)
        result.sim = {
            "sim_goodput_per_s": good_pages / device.clock,
            "sim_p50_ms": percentile_ms(latencies, 50.0),
            "sim_p99_ms": percentile_ms(latencies, 99.0),
            "sim_slo_attainment": good_pages / float(sizes.sum()),
            "recall_at_5": 1.0,
        }
        host_writes = ftl.pages_written - written0
        relocated = ftl.pages_relocated - relocated0
        result.counts = {
            "ssd.gc_events": gc_events,
            "ssd.erases": self.erases(device),
            "ssd.write_amplification": (host_writes + relocated) / host_writes,
            "ssd.channel_utilization": float(
                np.mean(device.channel_bus_utilizations(device.clock))
            ),
        }
        result.fingerprint = (
            tuple(sorted(result.sim.items())),
            latencies.tobytes(),
            gc_events,
            relocated,
        )
        return result

    @staticmethod
    def erases(device) -> int:
        """Block erases summed over every block of the device."""
        from repro.ssd.geometry import PhysicalAddress

        flash = device.config.flash
        return sum(
            device.ftl.block_erase_count(
                PhysicalAddress(channel, package, die, plane, block, 0)
            )
            for channel in range(flash.channels)
            for package in range(flash.packages_per_channel)
            for die in range(flash.dies_per_package)
            for plane in range(flash.planes_per_die)
            for block in range(flash.blocks_per_plane)
        )


class MappingTracker:
    """Checks that every read LPA maps to the page of its latest write.

    After a write burst the tracker records each written LPA's physical page.
    A later read must find the LPA still on that page, or on a page of the
    same plane after GC collected the recorded page's block (GC relocates a
    valid page within its plane).  A mapping that moved any other way, or
    two LPAs sharing a page, is a failed page.
    """

    def __init__(self, ftl, geometry, filled: np.ndarray) -> None:
        self.ftl = ftl
        self.geometry = geometry
        self.filled = filled
        self.latest: Dict[int, Tuple[int, int]] = {}
        self.collected: Dict[Tuple, int] = {}  # (plane, block) -> last GC index
        self.seen = 0
        self.record_writes(filled.tolist())

    def _sync(self) -> int:
        events = self.ftl.gc_events
        for index in range(self.seen, len(events)):
            event = events[index]
            self.collected[(tuple(event.plane), event.victim_block)] = index
        self.seen = len(events)
        return self.seen

    def record_writes(self, lpas: Sequence[int]) -> None:
        stamp = self._sync()
        for lpa in lpas:
            self.latest[lpa] = (self.geometry.to_flat(self.ftl.lookup(lpa)), stamp)

    def check_reads(self, lpas: Sequence[int]) -> int:
        stamp = self._sync()
        failed = 0
        for lpa in lpas:
            address = self.ftl.lookup(lpa)
            flat = self.geometry.to_flat(address)
            recorded, since = self.latest[lpa]
            if flat == recorded:
                continue
            old = self.geometry.to_physical(recorded)
            plane = (old.channel, old.package, old.die, old.plane)
            moved_by_gc = self.collected.get((plane, old.block), -1) >= since
            same_plane = plane == (
                address.channel, address.package, address.die, address.plane
            )
            if moved_by_gc and same_plane:
                self.latest[lpa] = (flat, stamp)
            else:
                failed += 1
        return failed

    def check_injective(self) -> int:
        """Pages lost to a shared or missing mapping at the end of a rep."""
        flats = {self.geometry.to_flat(self.ftl.lookup(l)) for l in self.filled.tolist()}
        lost = len(self.filled) - len(flats)
        return lost + abs(self.ftl.mapped_pages - len(self.filled))


WORKLOADS = {
    "fleet-zipf": lambda: Fleet(multiplier=0.9, faulted=False),
    "fleet-faulted": lambda: Fleet(multiplier=2.0, faulted=True),
    "device-query": DeviceQuery,
    "ssd-mixed": SsdMixed,
}
