"""Microbenchmarks of the library's hot kernels.

Unlike the per-figure benches (which run once and record reproduction
tables), these exercise the computational kernels repeatedly so regressions
in the simulator's own performance show up.
"""

import numpy as np
import pytest

from repro.cfp32.format import prealign
from repro.cfp32.mac import AlignmentFreeMac
from repro.config import ECSSDConfig, FlashConfig
from repro.core.event_backend import EventBackedTiming
from repro.core.pipeline import PipelineFeatures, TilePipelineModel, TileWorkload
from repro.layout.learned import HotnessPredictor, LearnedInterleaving
from repro.layout.placement import build_placement
from repro.layout.uniform import UniformInterleaving
from repro.screening.model import ApproximateScreeningModel
from repro.screening.quantization import Int4Quantizer
from repro.screening.screener import Int4Screener
from repro.serve import (
    AffineServiceModel,
    ServingConfig,
    build_serving_stack,
    saturating_rate,
)
from repro.ssd.device import SSDDevice
from repro.ssd.ftl import FlashTranslationLayer
from repro.workloads.streams import poisson_arrivals
from repro.workloads.synthetic import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload(num_labels=4096, hidden_dim=256, num_queries=64, seed=0)


@pytest.fixture(scope="module")
def model(workload):
    m = ApproximateScreeningModel(workload.weights, seed=1)
    m.calibrate(workload.features[:32], target_ratio=0.10)
    return m


def test_screening_inference_throughput(benchmark, model, workload):
    """Full screen+classify of an 8-query batch over 4096 labels."""
    batch = workload.features[32:40]
    stats = benchmark(model.infer, batch)
    assert stats.candidate_ratio < 0.2


def test_int4_screener_scores(benchmark):
    """INT4 scores of an 8-query, 64-dim batch against 4096 labels (§2.1)."""
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(4096, 64)).astype(np.float32)
    screener = Int4Screener(Int4Quantizer().quantize(weights))
    features = rng.normal(size=(8, 64)).astype(np.float32)
    scores = benchmark(screener.scores, features)
    assert scores.shape == (8, 4096)


def test_prealign_throughput(benchmark):
    """Host-side CFP32 pre-alignment of a 1024-dim vector (§4.2)."""
    rng = np.random.default_rng(0)
    vector = rng.normal(size=1024).astype(np.float32)
    encoded = benchmark(prealign, vector)
    assert len(encoded) == 1024


def test_alignment_free_mac_dot(benchmark):
    """Bit-accurate 256-element CFP32 dot product."""
    rng = np.random.default_rng(1)
    x = prealign(rng.normal(size=256).astype(np.float32))
    w = prealign(rng.normal(size=256).astype(np.float32))
    mac = AlignmentFreeMac()
    trace = benchmark(mac.dot, x, w)
    assert trace.products == 256


def test_ftl_write_throughput(benchmark):
    """Sustained page-mapping writes with GC churn on a small device."""
    config = FlashConfig(
        channels=2, packages_per_channel=1, dies_per_package=1,
        planes_per_die=1, blocks_per_plane=32, pages_per_block=32,
    )

    def churn():
        ftl = FlashTranslationLayer(config, gc_threshold=2)
        for i in range(4000):
            ftl.write(i % 97)
        return ftl

    ftl = benchmark(churn)
    assert ftl.mapped_pages == 97


def test_ftl_lookup_throughput(benchmark):
    """10k logical-to-physical lookups on a filled small device."""
    ftl = FlashTranslationLayer(FlashConfig(
        channels=2, packages_per_channel=1, dies_per_package=1,
        planes_per_die=1, blocks_per_plane=32, pages_per_block=32,
    ))
    for lpa in range(ftl.user_pages):
        ftl.write(lpa)
    lpas = [(i * 7919) % ftl.user_pages for i in range(10_000)]

    def lookups():
        return [ftl.lookup(lpa) for lpa in lpas]

    addresses = benchmark(lookups)
    assert len(addresses) == 10_000


def test_fetch_pages_throughput(benchmark):
    """4,096 page reads spread over 8 channels through ``fetch_pages``."""
    device = SSDDevice(ECSSDConfig(flash=FlashConfig(
        channels=8, packages_per_channel=1, dies_per_package=2,
        planes_per_die=1, blocks_per_plane=64, pages_per_block=16,
    )))
    per_channel = device.geometry.pages_per_channel
    addresses = [
        device.geometry.to_physical((i % 8) * per_channel + (i * 7919) % per_channel)
        for i in range(4096)
    ]
    result = benchmark(device.fetch_pages, addresses, 0.0)
    assert result.total_pages == 4096
    assert result.pages_per_channel == [512] * 8


def test_event_backed_tile_timing(benchmark):
    """Four 2,048-vector tiles replayed as flash reads by ``EventBackedTiming.run``."""
    rng = np.random.default_rng(4)
    placement = build_placement(
        UniformInterleaving(), 2048, 8, 4096, 4096, tile_vectors=2048
    )
    candidates = [
        np.sort(rng.choice(2048, size=205, replace=False)) for _ in range(4)
    ]
    backend = EventBackedTiming()
    args = ([placement] * 4, candidates, 8, 256, 1024, 2048 * 128)
    deployed = backend.run(*args)  # writes the pages; timed runs only read
    result = benchmark(backend.run, *args)
    assert result.total_time == deployed.total_time


def test_serving_loop_throughput(benchmark):
    """20k Poisson requests at 1.5x saturation through ``ServingSimulator``."""
    service = AffineServiceModel(
        base=2.0e-4, per_query=2.0e-5, knee=32, candidate_fraction=0.7
    )
    config = ServingConfig(slo=0.02, shards=2, replicas=1)
    arrivals = poisson_arrivals(
        1.5 * saturating_rate(service, config), 20_000, seed=0
    )
    report = benchmark(lambda: build_serving_stack(service, config).run(arrivals))
    assert report.shed_rate > 0  # past saturation, admission must shed


def test_learned_placement_build(benchmark):
    """LPT balancing of 32k vectors into 8 channels, 1k-vector tiles."""
    rng = np.random.default_rng(2)
    predictor = HotnessPredictor(rng.lognormal(0, 1, size=32768))
    strategy = LearnedInterleaving(predictor)
    placement = benchmark(
        build_placement, strategy, 32768, 8, 4096, 4096, 1024
    )
    assert placement.num_vectors == 32768


def test_pipeline_tile_timing(benchmark):
    """Analytic timing of 64 tiles through the full-feature pipeline."""
    model = TilePipelineModel(features=PipelineFeatures.full())
    tiles = [
        TileWorkload(
            tile_vectors=1024,
            shrunk_dim=256,
            hidden_dim=1024,
            batch=8,
            candidates=100,
            fp32_pages_per_channel=np.array([13, 12, 14, 13, 13, 12, 13, 13]),
            int4_bytes=128 * 1024,
        )
        for _ in range(64)
    ]
    result = benchmark(model.simulate, tiles)
    assert result.tiles == 64
