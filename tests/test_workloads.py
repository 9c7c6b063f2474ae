"""Tests for the workload layer: Table 3 registry, synthetic data, traces."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads import synthetic
from repro.units import GB
from repro.workloads.benchmarks import (
    BENCHMARKS,
    INTERLEAVING_SET,
    LARGE_SCALE,
    BenchmarkSpec,
    get_benchmark,
    list_benchmarks,
)
from repro.workloads.synthetic import generate_features, generate_weights, make_workload
from repro.workloads.traces import (
    CandidateTraceGenerator,
    LabelHotnessModel,
)


class TestBenchmarkRegistry:
    def test_all_seven_table3_rows(self):
        assert len(list_benchmarks()) == 7
        assert set(LARGE_SCALE) <= set(BENCHMARKS)
        assert set(INTERLEAVING_SET) <= set(BENCHMARKS)

    @pytest.mark.parametrize(
        "name,labels,hidden",
        [
            ("GNMT-E32K", 32_317, 1024),
            ("LSTM-W33K", 33_278, 1500),
            ("Transformer-W268K", 267_744, 512),
            ("XMLCNN-A670K", 670_091, 512),
            ("XMLCNN-S10M", 10_000_000, 1024),
            ("XMLCNN-S50M", 50_000_000, 1024),
            ("XMLCNN-S100M", 100_000_000, 1024),
        ],
    )
    def test_table3_dimensions(self, name, labels, hidden):
        spec = get_benchmark(name)
        assert spec.num_labels == labels
        assert spec.hidden_dim == hidden

    def test_s100m_matrix_sizes_match_section_6_1(self):
        """§6.1: S100M 4/32-bit matrices are 12.8 GB / 400 GB."""
        spec = get_benchmark("XMLCNN-S100M")
        assert spec.shrunk_dim == 256
        assert spec.int4_matrix_bytes == pytest.approx(12.8 * GB, rel=0.01)
        assert spec.fp32_matrix_bytes == pytest.approx(400 * GB, rel=0.03)

    def test_projection_scale(self):
        assert get_benchmark("LSTM-W33K").shrunk_dim == 375

    def test_flop_accounting(self):
        spec = get_benchmark("GNMT-E32K")
        assert spec.fp32_flops_full(2) == 2 * 2 * 32_317 * 1024
        assert spec.fp32_flops_screened(2) < spec.fp32_flops_full(2)
        assert spec.int4_ops(1) == 2 * 32_317 * 256

    def test_expected_candidates(self):
        spec = get_benchmark("GNMT-E32K")
        assert spec.expected_candidates == round(32_317 * 0.10)

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            get_benchmark("nope")

    def test_scaled_copy(self):
        spec = get_benchmark("XMLCNN-S100M").scaled(5, "tiny")
        assert spec.num_labels == 5
        assert spec.name.endswith("tiny")

    def test_invalid_spec(self):
        with pytest.raises(WorkloadError):
            BenchmarkSpec("x", "m", "d", 0, 10)
        with pytest.raises(WorkloadError):
            BenchmarkSpec("x", "m", "d", 10, 10, candidate_ratio=0)


class TestSyntheticWeights:
    def test_shapes_and_determinism(self):
        w1, c1 = generate_weights(256, 64, seed=3)
        w2, c2 = generate_weights(256, 64, seed=3)
        assert w1.shape == (256, 64)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(c1, c2)

    def test_cluster_runs_are_contiguous(self):
        _, clusters = generate_weights(256, 32, cluster_run=16, seed=0)
        for start in range(0, 256, 16):
            run = clusters[start : start + 16]
            assert len(set(run.tolist())) == 1

    def test_custom_cluster_map(self):
        custom = np.zeros(64, dtype=np.int64)
        w, c = generate_weights(64, 32, cluster_of_label=custom)
        np.testing.assert_array_equal(c, custom)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            generate_weights(0, 8)
        with pytest.raises(WorkloadError):
            generate_weights(8, 8, cluster_of_label=np.zeros(3, dtype=np.int64))

    def test_weights_have_value_locality(self):
        from repro.cfp32.format import lossless_fraction

        weights, _ = generate_weights(128, 64, seed=1)
        assert lossless_fraction(weights) > 0.95


class TestSyntheticFeatures:
    def test_queries_align_with_targets(self):
        wl = make_workload(num_labels=512, hidden_dim=128, num_queries=32, seed=4)
        exact = wl.features @ wl.weights.T
        top1 = exact.argmax(axis=1)
        # The top-1 label's cluster matches the query's cluster mostly.
        agree = (wl.cluster_of_label[top1] == wl.cluster_of_query).mean()
        assert agree > 0.8

    def test_cluster_skew(self):
        wl = make_workload(num_labels=512, hidden_dim=64, num_queries=400, seed=0)
        counts = np.bincount(wl.cluster_of_query, minlength=16)
        assert counts.max() > 3 * max(1, counts[counts > 0].min())

    def test_validation(self):
        weights, clusters = generate_weights(64, 32)
        with pytest.raises(WorkloadError):
            generate_features(0, 32, weights, clusters)


def _forbid_draws(monkeypatch):
    """Make any construction of a random generator fail the test."""

    def no_rng(*args, **kwargs):
        raise AssertionError("drew random numbers before validating inputs")

    monkeypatch.setattr(synthetic.np.random, "default_rng", no_rng)


class TestSyntheticInputValidation:
    """Bad generator inputs raise WorkloadError before any random draw."""

    def test_features_reject_hidden_dim_mismatch(self, monkeypatch):
        weights, clusters = generate_weights(64, 32)
        _forbid_draws(monkeypatch)
        with pytest.raises(WorkloadError, match="hidden_dim"):
            generate_features(4, 16, weights, clusters)

    def test_features_reject_short_cluster_map(self, monkeypatch):
        weights, clusters = generate_weights(64, 32)
        _forbid_draws(monkeypatch)
        with pytest.raises(WorkloadError, match="one entry per weight row"):
            generate_features(4, 32, weights, clusters[:10])

    def test_features_reject_empty_cluster_map(self, monkeypatch):
        weights, clusters = generate_weights(64, 32)
        _forbid_draws(monkeypatch)
        with pytest.raises(WorkloadError, match="one entry per weight row"):
            generate_features(4, 32, weights[:0], clusters[:0])

    def test_float_cluster_ids_rejected(self, monkeypatch):
        weights, clusters = generate_weights(64, 32)
        _forbid_draws(monkeypatch)
        with pytest.raises(WorkloadError, match="integers"):
            generate_weights(4, 8, cluster_of_label=np.array([0.7, 1.9, 0, 0]))
        with pytest.raises(WorkloadError, match="integers"):
            generate_features(4, 32, weights, clusters.astype(np.float64))

    def test_weights_reject_negative_cluster_id(self, monkeypatch):
        _forbid_draws(monkeypatch)
        with pytest.raises(WorkloadError, match="num_clusters"):
            generate_weights(64, 32, cluster_of_label=np.full(64, -1))

    def test_weights_reject_cluster_id_past_num_clusters(self, monkeypatch):
        _forbid_draws(monkeypatch)
        with pytest.raises(WorkloadError, match="num_clusters"):
            generate_weights(
                64, 32, num_clusters=4, cluster_of_label=np.full(64, 4)
            )


def _traced_peak(build) -> int:
    """Peak traced bytes while ``build()`` runs, its result included."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSyntheticMemory:
    """Generator peak memory, as a multiple of the output it builds.

    Building the outputs in place measures 2.10x the float32 output for
    weights and 1.79x the (Q, D) float64 size for features; the bounds add
    under 10% headroom.  A whole-matrix, out-of-place build measures about
    6.1x and 6.0x.
    """

    def test_weights_peak(self):
        peak = _traced_peak(lambda: generate_weights(1024, 256))
        assert peak <= 2.3 * (1024 * 256 * 4)

    def test_features_peak(self):
        weights, clusters = generate_weights(1024, 256)
        peak = _traced_peak(
            lambda: generate_features(2048, 256, weights, clusters)
        )
        assert peak <= 1.95 * (2048 * 256 * 8)


def _digest(array: np.ndarray) -> str:
    """sha256 of an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


class TestSyntheticPin:
    """The generators' outputs, pinned bit for bit.

    Cases: the perfbench device-query shape (4096 x 256, 9,664 queries), a
    small shape, a 64-label space where only 2 of 14 clusters have labels
    (so the any-label fallback runs), and a caller-supplied cluster map.
    Any change to the order of the random draws or of the float operations
    moves a digest.
    """

    CASES = {
        "perfbench": (4096, 256, 9664, 11, 12, False),
        "small": (256, 64, 40, 3, 4, False),
        "sparse": (64, 32, 200, 5, 6, False),
        "custom": (96, 48, 120, 7, 8, True),
    }
    EXPECTED = {
        "perfbench": (
            "b864d055dad037c6b52529f0091442d9d1617a06d47ce33d3647eae5c7623893",
            "1b9c06ec2d7621e7bb236c51fc5137c1402e4c77abf43fc302c5a7201d207238",
            "9b9219fd340a7d2c3bc8479826698a421dcb8749317dbf24186f2d5291b1ed27",
            "16ca2dfda1ecf9130738432475d1bc1879053cf525788dbfeaa3b662297dc97d",
        ),
        "small": (
            "fcc923caab72d6659c3854f612100c0cdd136729b22f1d92501ce8ef49c0cb53",
            "0c1be81c6987fa44317d0a33b2122804f26c552e4ec4670391ef3137bb81bcb3",
            "f80dfd8ae2daa2c1fb0b00880bb5ee5dc27362935f08d19cce9e199a14888799",
            "1d99b101991e822a2cbc1dfaf7f5e654da766eac79831311dac938f6dee9e23b",
        ),
        "sparse": (
            "ca7a5244632d8f72865d152923daaf2e6d33acbad29a845bf674e3d9eb8fc233",
            "cface4b1c878083e4286fa0ea9dd9940519e779e5d07ce4468c20ab820e7dbb2",
            "8808f18cd23a757092b998c9248c2e2d6c84821c197507971a04082375003c6a",
            "15aa13a5dedf885e70997ac1ef4bc34b40fc4e30c91ee39b62a3a07e3b66cc5d",
        ),
        "custom": (
            "bf7437b828010438413613a782f51971e5e0dbded708264ff2ad9497d7dedeaf",
            "b2ab73b865d83d279920f41a405bb99c03ce1459a6908df7facd34364d3f67a3",
            "6f2008f782045e3e35f2835a4975a7de7b9fea199f3ed485d2f22064f4a2412a",
            "f15aa98b4e6fb524d00d895f947e515fc2c87f82649e576581220a3c7bbdc48b",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_are_pinned(self, case):
        labels, hidden, queries, weight_seed, feature_seed, custom = self.CASES[case]
        cluster_map = np.arange(labels) % 5 if custom else None
        weights, cluster_of_label = generate_weights(
            labels, hidden, seed=weight_seed, cluster_of_label=cluster_map
        )
        features, cluster_of_query = generate_features(
            queries, hidden, weights, cluster_of_label, seed=feature_seed
        )
        digests = tuple(
            _digest(a)
            for a in (weights, cluster_of_label, features, cluster_of_query)
        )
        assert digests == self.EXPECTED[case]

    def test_sparse_case_leaves_most_clusters_empty(self):
        _, cluster_of_label = generate_weights(64, 32, seed=5)
        realized = np.unique(cluster_of_label)
        assert realized.size < (cluster_of_label.max() + 1) // 2


class TestHotnessModel:
    def test_deterministic_per_tile(self):
        model = LabelHotnessModel(num_labels=4096, seed=1)
        a = model.tile_weights(3, 512)
        b = model.tile_weights(3, 512)
        np.testing.assert_array_equal(a, b)

    def test_different_tiles_differ(self):
        model = LabelHotnessModel(num_labels=4096, seed=1)
        assert not np.array_equal(model.tile_weights(0, 512), model.tile_weights(1, 512))

    def test_run_structure(self):
        model = LabelHotnessModel(num_labels=4096, run_length=8, seed=1)
        w = model.tile_weights(0, 64)
        assert w.shape == (64,)
        assert (w > 0).all()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            LabelHotnessModel(num_labels=0)
        model = LabelHotnessModel(num_labels=16)
        with pytest.raises(WorkloadError):
            model.tile_weights(0, 0)


class TestTraceGenerator:
    def make(self, ratio=0.1, noise=0.3):
        model = LabelHotnessModel(num_labels=8192, seed=2)
        return CandidateTraceGenerator(model, candidate_ratio=ratio, query_noise=noise)

    def test_candidate_count_matches_ratio(self):
        gen = self.make(ratio=0.1)
        trace = gen.tile_trace(0, 1000, num_queries=5)
        assert all(len(c) == 100 for c in trace.candidates)

    def test_candidates_sorted_in_range(self):
        gen = self.make()
        trace = gen.tile_trace(2, 512, num_queries=4)
        for c in trace.candidates:
            assert (np.diff(c) > 0).all()
            assert 0 <= c.min() and c.max() < 512

    def test_global_candidates_offset(self):
        gen = self.make()
        trace = gen.tile_trace(2, 512, num_queries=1)
        np.testing.assert_array_equal(
            trace.global_candidates()[0], trace.candidates[0] + 1024
        )

    def test_low_noise_queries_agree(self):
        quiet = self.make(noise=0.01).tile_trace(0, 512, num_queries=4)
        loud = self.make(noise=5.0).tile_trace(0, 512, num_queries=4)

        def overlap(trace):
            a, b = trace.candidates[0], trace.candidates[1]
            return len(np.intersect1d(a, b)) / len(a)

        assert overlap(quiet) > 0.9
        assert overlap(loud) < overlap(quiet)

    def test_selection_frequency(self):
        gen = self.make(noise=0.01)
        trace = gen.tile_trace(0, 512, num_queries=10)
        freq = trace.selection_frequency()
        assert freq.shape == (512,)
        assert freq.max() == 1.0  # hottest labels always selected

    def test_predictor_abs_sums_fidelity(self):
        gen = self.make()
        perfect = gen.predictor_abs_sums(0, 512, fidelity=1.0)
        useless = gen.predictor_abs_sums(0, 512, fidelity=0.0)
        truth = np.log(gen.hotness.tile_weights(0, 512))
        assert np.corrcoef(perfect, truth)[0, 1] > 0.95
        assert abs(np.corrcoef(useless, truth)[0, 1]) < 0.35

    def test_validation(self):
        model = LabelHotnessModel(num_labels=16)
        with pytest.raises(WorkloadError):
            CandidateTraceGenerator(model, candidate_ratio=0.0)
        gen = CandidateTraceGenerator(model)
        with pytest.raises(WorkloadError):
            gen.tile_trace(0, 16, num_queries=0)
        with pytest.raises(WorkloadError):
            gen.predictor_abs_sums(0, 16, fidelity=2.0)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_tiles_reproducible_property(self, tile_index):
        gen = self.make()
        a = gen.tile_trace(tile_index, 256, num_queries=3, seed=9)
        b = gen.tile_trace(tile_index, 256, num_queries=3, seed=9)
        for x, y in zip(a.candidates, b.candidates):
            np.testing.assert_array_equal(x, y)
