"""Tests for the assembled ECSSD device (functional and trace paths)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cfp32.circuits import MacDesign
from repro.config import ECSSDConfig
from repro.core.ecssd import ECSSDevice, make_strategy
from repro.core.pipeline import PipelineFeatures
from repro.errors import ConfigurationError
from repro.layout.heterogeneous import DataLocation
from repro.layout.learned import HotnessPredictor
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.synthetic import make_workload
from repro.workloads.traces import CandidateTraceGenerator, LabelHotnessModel


@pytest.fixture(scope="module")
def workload():
    return make_workload(num_labels=4096, hidden_dim=256, num_queries=64, seed=0)


def trace_generator(spec, ratio=0.10):
    hotness = LabelHotnessModel(
        num_labels=spec.num_labels, zipf_exponent=1.1, run_length=1, seed=3
    )
    return CandidateTraceGenerator(hotness, candidate_ratio=ratio, query_noise=0.05)


class TestMakeStrategy:
    def test_by_name(self):
        assert make_strategy("sequential").name == "sequential"
        assert make_strategy("uniform").name == "uniform"
        pred = HotnessPredictor(np.ones(4))
        assert make_strategy("learned", pred).name == "learned"

    def test_learned_needs_predictor(self):
        with pytest.raises(ConfigurationError):
            make_strategy("learned")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_strategy("random")


class TestFunctionalPath:
    def test_deploy_and_infer(self, workload):
        dev = ECSSDevice(interleaving="learned")
        info = dev.deploy_model(workload.weights, train_features=workload.features[:32])
        assert info.num_labels == 4096
        assert info.placement is not None
        assert info.layout.int4_location is DataLocation.DRAM
        stats, report = dev.run_inference(workload.features[32:40])
        assert stats.result.batch_size == 8
        assert report.scaled_total_time > 0
        assert 0 < report.fp32_channel_utilization <= 1

    def test_predictions_independent_of_interleaving(self, workload):
        """Layout changes timing, never predictions."""
        results = []
        for strategy in ("sequential", "uniform", "learned"):
            dev = ECSSDevice(interleaving=strategy)
            dev.deploy_model(workload.weights, train_features=workload.features[:32])
            stats, _ = dev.run_inference(workload.features[32:40])
            results.append(stats.result.top_labels)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[1], results[2])

    def test_fetch_accounting_matches_candidates(self, workload):
        """Bytes fetched from flash equal the batch candidate-union pages.

        (Strategy *ordering* needs L >> channels x tile and is exercised in
        the trace-path tests; a 4096-label matrix fits one tile, where every
        placement is equivalent by construction.)
        """
        dev = ECSSDevice(interleaving="learned")
        dev.deploy_model(workload.weights, train_features=workload.features[:32])
        stats, report = dev.run_inference(workload.features[32:40])
        union = np.unique(np.concatenate(stats.screen.candidates))
        pages = dev.deployment.placement.pages_per_channel(union).sum()
        assert report.run.fp32_bytes == pages * dev.config.flash.page_size

    def test_inference_before_deploy_rejected(self):
        dev = ECSSDevice()
        with pytest.raises(ConfigurationError):
            dev.run_inference(np.zeros((1, 16), dtype=np.float32))

    def test_deploy_without_calibration(self, workload):
        dev = ECSSDevice(interleaving="uniform")
        dev.deploy_model(workload.weights)
        # No threshold: fixed-ratio inference still works through the model.
        stats = dev.model.infer(workload.features[:4], candidate_ratio=0.1)
        assert stats.candidate_ratio == pytest.approx(0.1, abs=0.01)


class TestTracePath:
    def test_deploy_spec_geometry(self):
        dev = ECSSDevice()
        spec = get_benchmark("GNMT-E32K")
        info = dev.deploy_spec(spec)
        assert info.num_labels == spec.num_labels
        assert info.tile_vectors == 1024  # 128 KiB / (256/2 B)
        assert info.num_tiles == -(-spec.num_labels // 1024)

    def test_run_trace_produces_report(self):
        dev = ECSSDevice(interleaving="learned")
        spec = get_benchmark("GNMT-E32K")
        dev.deploy_spec(spec)
        report = dev.run_trace(trace_generator(spec), queries=16, sample_tiles=4)
        assert report.sampled_tiles == 4
        assert report.total_tiles == dev.deployment.num_tiles
        assert report.scaled_total_time > report.run.tile_time_total

    def test_run_trace_before_deploy_rejected(self):
        dev = ECSSDevice()
        spec = get_benchmark("GNMT-E32K")
        with pytest.raises(ConfigurationError):
            dev.run_trace(trace_generator(spec), queries=4)

    def test_strategy_ordering_at_scale(self):
        spec = get_benchmark("GNMT-E32K")
        times = {}
        for strategy in ("sequential", "uniform", "learned"):
            dev = ECSSDevice(interleaving=strategy)
            dev.deploy_spec(spec)
            report = dev.run_trace(trace_generator(spec), queries=16, sample_tiles=6)
            times[strategy] = report.scaled_total_time
        assert times["learned"] < times["uniform"] < times["sequential"]

    def test_sequential_pins_tiles_to_slab_channels(self):
        spec = get_benchmark("GNMT-E32K")
        dev = ECSSDevice(interleaving="sequential")
        dev.deploy_spec(spec)
        report = dev.run_trace(trace_generator(spec), queries=8, sample_tiles=4)
        # Sequential utilization collapses toward 1/channels.
        assert report.fp32_channel_utilization < 0.2

    def test_s100m_dram_capacity_enforced(self):
        spec = get_benchmark("XMLCNN-S100M")
        ok = ECSSDevice(features=PipelineFeatures.full())
        ok.deploy_spec(spec)  # 12.8 GB int4 fits 16 GiB DRAM
        small = ECSSDevice(config=replace(ECSSDConfig(), dram_capacity=8 * 2**30))
        with pytest.raises(Exception):
            small.deploy_spec(spec)

    def test_flash_capacity_enforced(self):
        spec = get_benchmark("XMLCNN-S100M").scaled(3_000_000_000, "huge")
        dev = ECSSDevice()
        with pytest.raises(ConfigurationError):
            dev.deploy_spec(spec)


class TestFeatureAblation:
    def test_each_feature_helps(self):
        """Cumulative Fig. 8 ordering on one benchmark."""
        spec = get_benchmark("GNMT-E32K")
        gen = trace_generator(spec)
        configs = [
            (PipelineFeatures(mac_design=MacDesign.NAIVE, heterogeneous=False,
                              overlap=False, label="base"), "sequential"),
            (PipelineFeatures(mac_design=MacDesign.NAIVE, heterogeneous=False,
                              overlap=False, label="uni"), "uniform"),
            (PipelineFeatures(mac_design=MacDesign.ALIGNMENT_FREE, heterogeneous=False,
                              overlap=True, label="af"), "uniform"),
            (PipelineFeatures(mac_design=MacDesign.ALIGNMENT_FREE, heterogeneous=True,
                              overlap=True, label="hetero"), "uniform"),
            (PipelineFeatures(mac_design=MacDesign.ALIGNMENT_FREE, heterogeneous=True,
                              overlap=True, label="learned"), "learned"),
        ]
        times = []
        for features, strategy in configs:
            dev = ECSSDevice(features=features, interleaving=strategy)
            dev.deploy_spec(spec)
            times.append(
                dev.run_trace(gen, queries=16, sample_tiles=6).scaled_total_time
            )
        assert times == sorted(times, reverse=True)
        assert times[0] / times[-1] > 5  # big end-to-end win
