"""Tests for multi-device scale-out (repro.core.scaleout)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import ECSSDConfig
from repro.core.scaleout import (
    LabelShard,
    ScaleOutCluster,
    max_labels_per_device,
    merge_topk,
    partition_labels,
)
from repro.errors import CapacityError, ConfigurationError
from repro.units import GiB
from repro.workloads.benchmarks import get_benchmark

S100M = get_benchmark("XMLCNN-S100M")
S500M = S100M.scaled(500_000_000, "S500M")


class TestShards:
    def test_shard_validation(self):
        with pytest.raises(ConfigurationError):
            LabelShard(0, 10, 10)
        with pytest.raises(ConfigurationError):
            LabelShard(0, -1, 5)

    def test_max_labels_per_device(self):
        limit = max_labels_per_device(S100M)
        # 16 GiB minus reserve over 128 B/label: ~132M.
        assert 120e6 < limit < 140e6

    def test_small_dram_lowers_limit(self):
        small = replace(ECSSDConfig(), dram_capacity=8 * GiB)
        assert max_labels_per_device(S100M, small) < max_labels_per_device(S100M)


class TestPartition:
    def test_covers_label_space_exactly(self):
        shards = partition_labels(S500M)
        assert shards[0].start == 0
        assert shards[-1].stop == S500M.num_labels
        for a, b in zip(shards, shards[1:]):
            assert a.stop == b.start

    def test_shards_nearly_equal(self):
        shards = partition_labels(S500M)
        sizes = [s.num_labels for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_minimum_feasible_count(self):
        shards = partition_labels(S500M)
        limit = max_labels_per_device(S500M)
        assert len(shards) == -(-S500M.num_labels // limit)
        assert all(s.num_labels <= limit for s in shards)

    def test_explicit_count_honored(self):
        shards = partition_labels(S500M, devices=5)  # paper's plan
        assert len(shards) == 5

    def test_insufficient_count_rejected(self):
        with pytest.raises(CapacityError):
            partition_labels(S500M, devices=2)

    def test_single_device_for_small_models(self):
        shards = partition_labels(get_benchmark("GNMT-E32K"))
        assert len(shards) == 1


class TestCluster:
    def test_cluster_runs_and_reports(self):
        cluster = ScaleOutCluster(S500M, devices=5)
        report = cluster.run_trace(queries=8, sample_tiles=3)
        assert report.devices == 5
        assert report.total_time > 0
        assert report.merge_time < 1e-3

    def test_total_is_parallel_max_plus_merge(self):
        cluster = ScaleOutCluster(S500M, devices=5)
        report = cluster.run_trace(queries=8, sample_tiles=3)
        slowest = max(r.scaled_total_time for r in report.shard_reports)
        assert report.total_time == pytest.approx(slowest + report.merge_time)

    def test_scale_out_faster_than_hypothetical_serial(self):
        cluster = ScaleOutCluster(S500M, devices=5)
        report = cluster.run_trace(queries=8, sample_tiles=3)
        serial = sum(r.scaled_total_time for r in report.shard_reports)
        assert report.total_time < serial / 2


class TestMergeTopk:
    def test_exact_global_topk(self):
        rng = np.random.default_rng(0)
        # Two shards of 100 labels each; per-shard local top-3.
        full_scores = rng.normal(size=(4, 200)).astype(np.float32)
        shard_scores, shard_labels, offsets = [], [], [0, 100]
        for start in (0, 100):
            local = full_scores[:, start : start + 100]
            top = np.argsort(local, axis=1)[:, ::-1][:, :3]
            shard_labels.append(top)
            shard_scores.append(np.take_along_axis(local, top, axis=1))
        labels, scores = merge_topk(shard_labels, shard_scores, offsets, top_k=3)
        expected = np.argsort(full_scores, axis=1)[:, ::-1][:, :3]
        np.testing.assert_array_equal(labels, expected)

    def test_scores_descending(self):
        labels = [np.array([[0, 1]]), np.array([[0, 1]])]
        scores = [np.array([[5.0, 1.0]]), np.array([[3.0, 2.0]])]
        merged_labels, merged_scores = merge_topk(labels, scores, [0, 10], top_k=3)
        assert list(merged_scores[0]) == sorted(merged_scores[0], reverse=True)
        np.testing.assert_array_equal(merged_labels[0], [0, 10, 11])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            merge_topk([], [], [], top_k=1)
        with pytest.raises(ConfigurationError):
            merge_topk([np.zeros((1, 1))], [], [0], top_k=1)

    def test_ties_break_on_label_id(self):
        # Equal scores across shards: the lower *global* label id must win,
        # regardless of which shard contributed it.
        labels = [np.array([[4, 2]]), np.array([[1, 3]])]
        scores = [np.array([[7.0, 7.0]]), np.array([[7.0, 7.0]])]
        merged_labels, merged_scores = merge_topk(labels, scores, [0, 10], top_k=3)
        np.testing.assert_array_equal(merged_labels[0], [2, 4, 11])
        np.testing.assert_array_equal(merged_scores[0], [7.0, 7.0, 7.0])

    def test_merge_is_shard_order_independent(self):
        rng = np.random.default_rng(1)
        # Quantized scores force plenty of exact ties across shards.
        a_scores = np.round(rng.normal(size=(3, 5)) * 2) / 2
        b_scores = np.round(rng.normal(size=(3, 5)) * 2) / 2
        a_labels = np.tile(np.arange(5), (3, 1))
        b_labels = np.tile(np.arange(5), (3, 1))
        fwd = merge_topk([a_labels, b_labels], [a_scores, b_scores], [0, 5], top_k=4)
        rev = merge_topk([b_labels, a_labels], [b_scores, a_scores], [5, 0], top_k=4)
        np.testing.assert_array_equal(fwd[0], rev[0])
        np.testing.assert_array_equal(fwd[1], rev[1])
