"""Tests for the accelerator latency model and the tile pipeline."""

import numpy as np
import pytest

from repro.cfp32.circuits import MacDesign
from repro.core.accelerator import AcceleratorModel
from repro.core.pipeline import (
    PipelineFeatures,
    TilePipelineModel,
    TileWorkload,
)
from repro.errors import ConfigurationError, SimulationError


def tile(fp32_pages, int4_pages=None, **overrides):
    params = dict(
        tile_vectors=1024,
        shrunk_dim=256,
        hidden_dim=1024,
        batch=8,
        candidates=100,
        fp32_pages_per_channel=np.asarray(fp32_pages),
        int4_pages_per_channel=None if int4_pages is None else np.asarray(int4_pages),
        int4_bytes=1024 * 128,
    )
    params.update(overrides)
    return TileWorkload(**params)


class TestAcceleratorModel:
    def test_designs_set_throughput(self):
        assert AcceleratorModel(fp32_design=MacDesign.ALIGNMENT_FREE).fp32_throughput == 50e9
        assert AcceleratorModel(fp32_design=MacDesign.NAIVE).fp32_throughput == 29.2e9
        skh = AcceleratorModel(fp32_design=MacDesign.SK_HYNIX).fp32_throughput
        assert 29.2e9 < skh < 50e9

    def test_int4_screen_time_scales(self):
        acc = AcceleratorModel()
        t1 = acc.int4_screen_time(1024, 256, batch=8)
        t2 = acc.int4_screen_time(1024, 256, batch=16)
        assert t2 == pytest.approx(2 * t1, rel=0.05)

    def test_fp32_classify_time_design_dependent(self):
        af = AcceleratorModel(fp32_design=MacDesign.ALIGNMENT_FREE)
        naive = AcceleratorModel(fp32_design=MacDesign.NAIVE)
        assert naive.fp32_classify_time(100, 1024, 8) > af.fp32_classify_time(100, 1024, 8)

    def test_zero_candidates_is_free(self):
        assert AcceleratorModel().fp32_classify_time(0, 1024, 8) == 0.0

    def test_negative_rejected(self):
        acc = AcceleratorModel()
        with pytest.raises(ConfigurationError):
            acc.fp32_classify_time(-1, 1024, 8)
        with pytest.raises(ConfigurationError):
            acc.int4_screen_time(0, 256, 8)

    def test_tile_vectors_for(self):
        acc = AcceleratorModel()
        # 128 KiB buffer / 128 B per packed K=256 vector = 1024 vectors.
        assert acc.tile_vectors_for(256) == 1024
        assert acc.tile_vectors_for(128) == 2048


class TestPipelineFeatures:
    def test_baseline_flags(self):
        base = PipelineFeatures.baseline()
        assert base.mac_design is MacDesign.NAIVE
        assert not base.heterogeneous
        assert not base.overlap

    def test_full_flags(self):
        full = PipelineFeatures.full()
        assert full.mac_design is MacDesign.ALIGNMENT_FREE
        assert full.heterogeneous and full.overlap

    def test_design_mismatch_rejected(self):
        acc = AcceleratorModel(fp32_design=MacDesign.NAIVE)
        with pytest.raises(ConfigurationError):
            TilePipelineModel(accelerator=acc, features=PipelineFeatures.full())


class TestTileTiming:
    def test_balanced_faster_than_skewed(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        balanced = model.tile_timing(tile([13, 13, 13, 13, 13, 13, 13, 13]))
        skewed = model.tile_timing(tile([104, 0, 0, 0, 0, 0, 0, 0]))
        assert skewed.cost > 4 * balanced.cost

    def test_fetch_time_is_max_channel(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        timing = model.tile_timing(tile([5, 9, 2, 0, 0, 0, 0, 0]))
        assert timing.fp32_fetch == pytest.approx(9 * model.effective_page_time)
        assert timing.fp32_max_pages == 9
        assert timing.fp32_total_pages == 16

    def test_homogeneous_interference_slows_fetch(self):
        hetero = TilePipelineModel(features=PipelineFeatures.full())
        homo = TilePipelineModel(
            features=PipelineFeatures(
                mac_design=MacDesign.ALIGNMENT_FREE, heterogeneous=False, overlap=True
            )
        )
        pages = [13] * 8
        t_het = hetero.tile_timing(tile(pages)).fp32_fetch
        t_hom = homo.tile_timing(tile(pages, int4_pages=[4] * 8)).fp32_fetch
        # Extra INT4 pages plus the stream-mixing die-conflict penalty.
        expected = t_het * 17 / 13 * homo.interference_penalty
        assert t_hom == pytest.approx(expected)

    def test_homogeneous_requires_int4_pages(self):
        homo = TilePipelineModel(
            features=PipelineFeatures(
                mac_design=MacDesign.ALIGNMENT_FREE, heterogeneous=False, overlap=True
            )
        )
        with pytest.raises(ConfigurationError):
            homo.tile_timing(tile([1] * 8))

    def test_overlap_hides_compute_under_fetch(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        timing = model.tile_timing(tile([13] * 8))
        assert timing.fp32_compute < timing.fp32_fetch
        assert timing.cost == pytest.approx(timing.fp32_fetch)

    def test_serial_phases_add_up(self):
        model = TilePipelineModel(features=PipelineFeatures.baseline())
        timing = model.tile_timing(tile([13] * 8, int4_pages=[4] * 8))
        expected = (
            timing.int4_fetch
            + timing.int4_compute
            + timing.fp32_fetch
            + timing.fp32_compute
        )
        assert timing.cost == pytest.approx(expected)

    def test_naive_mac_can_be_compute_bound(self):
        naive = TilePipelineModel(
            features=PipelineFeatures(
                mac_design=MacDesign.NAIVE, heterogeneous=True, overlap=True
            ),
            accelerator=AcceleratorModel(fp32_design=MacDesign.NAIVE),
        )
        heavy = tile([13] * 8, candidates=104, batch=16)
        timing = naive.tile_timing(heavy)
        assert timing.fp32_compute > timing.fp32_fetch
        assert timing.cost == pytest.approx(timing.fp32_compute)

    def test_channel_count_checked(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        with pytest.raises(ConfigurationError):
            model.tile_timing(tile([1, 2, 3]))  # 3 channels vs 8


class TestSimulate:
    def test_aggregates_tiles(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        tiles = [tile([13] * 8) for _ in range(4)]
        result = model.simulate(tiles, keep_timings=True)
        assert result.tiles == 4
        assert len(result.tile_timings) == 4
        assert result.tile_time_total == pytest.approx(
            sum(t.cost for t in result.tile_timings)
        )
        assert result.total_time == pytest.approx(
            result.tile_time_total + result.overhead_time
        )

    def test_empty_rejected(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        with pytest.raises(SimulationError):
            model.simulate([])

    def test_host_bytes_add_overhead(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        quiet = model.simulate([tile([13] * 8)])
        chatty = model.simulate([tile([13] * 8)], host_bytes_in=3_200_000)
        assert chatty.total_time == pytest.approx(quiet.total_time + 1e-3)
        assert chatty.host_time == pytest.approx(1e-3)

    def test_utilization_in_bounds(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        result = model.simulate([tile([13] * 8) for _ in range(3)])
        assert 0 < result.fp32_channel_utilization <= 1.0

    def test_perfectly_balanced_utilization_near_one(self):
        model = TilePipelineModel(features=PipelineFeatures.full())
        result = model.simulate([tile([50] * 8, candidates=400)])
        assert result.fp32_channel_utilization > 0.95
