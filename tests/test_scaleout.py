"""Tests for multi-device scale-out (repro.core.scaleout)."""

from dataclasses import replace

import pytest

from repro.config import ECSSDConfig
from repro.core.scaleout import (
    LabelShard,
    ScaleOutCluster,
    max_labels_per_device,
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
