"""Tests for the energy model and the ablation drivers."""

import pytest

from repro.analysis import ablations as A
from repro.analysis.energy import (
    DEVICE_POWER_W,
    EnergyPoint,
    baseline_energy,
    ecssd_energy,
    efficiency_table,
)
from repro.baselines import CPU_N
from repro.errors import ConfigurationError
from repro.workloads.benchmarks import get_benchmark

SPEC = get_benchmark("XMLCNN-S10M")


class TestEnergyModel:
    def test_energy_is_power_times_time(self):
        point = EnergyPoint("x", "b", time_seconds=2.0, power_watts=10.0)
        assert point.energy_joules == 20.0

    def test_ratio(self):
        a = EnergyPoint("a", "b", 1.0, 10.0)
        b = EnergyPoint("b", "b", 1.0, 20.0)
        assert b.energy_ratio_vs(a) == 2.0
        with pytest.raises(ConfigurationError):
            a.energy_ratio_vs(EnergyPoint("z", "b", 0.0, 10.0))

    def test_baseline_energy_uses_device_power(self):
        point = baseline_energy(CPU_N, SPEC, queries=8)
        assert point.power_watts == DEVICE_POWER_W["CPU-N"]
        assert point.energy_joules > 0

    def test_ecssd_energy(self):
        point = ecssd_energy(SPEC, total_time=1.0)
        assert point.power_watts == pytest.approx(8.05293)

    def test_every_baseline_has_a_power_entry(self):
        for name in (
            "CPU-N", "CPU-AP", "GenStore-N", "GenStore-AP",
            "SmartSSD-N", "SmartSSD-AP", "SmartSSD-H-N", "SmartSSD-H-AP",
        ):
            assert DEVICE_POWER_W[name] > 0

    def test_efficiency_table(self):
        points = [
            EnergyPoint("a", "b", 1.0, 10.0),
            EnergyPoint("b", "b", 2.0, 10.0),
        ]
        rows = efficiency_table(points)
        assert rows[0][3] == 1.0
        assert rows[1][3] == 2.0
        with pytest.raises(ConfigurationError):
            efficiency_table([])

    def test_ecssd_wins_energy_by_orders_of_magnitude(self):
        """ECSSD beats a CPU host on energy more than on time: it is both
        faster and ~10x lower power."""
        points = A.energy_study(benchmark="XMLCNN-S10M", sample_tiles=4)
        by_arch = {p.architecture: p for p in points}
        ratio = by_arch["CPU-N"].energy_ratio_vs(by_arch["ECSSD"])
        time_ratio = by_arch["CPU-N"].time_seconds / by_arch["ECSSD"].time_seconds
        assert ratio > time_ratio * 5


class TestInterleavingVariants:
    @pytest.fixture(scope="class")
    def variants(self):
        return {r.strategy: r.balance for r in A.interleaving_variants(tiles=4)}

    def test_all_four_present(self, variants):
        assert set(variants) == {"sequential", "uniform", "graded", "learned"}

    def test_ordering(self, variants):
        assert variants["sequential"] < variants["uniform"]
        assert variants["uniform"] < variants["graded"]
        assert variants["learned"] >= variants["graded"] - 0.03

    def test_sequential_is_one_over_channels(self, variants):
        assert variants["sequential"] == pytest.approx(1 / 8, abs=0.02)


class TestSweeps:
    def test_fidelity_sweep_fine_tuning_rescues_bad_predictors(self):
        points = A.predictor_fidelity_sweep(fidelities=(0.0, 1.0), tiles=3)
        by_key = {(p.fidelity, p.fine_tuned): p.balance for p in points}
        # A useless predictor without fine-tuning is no better than uniform.
        assert by_key[(0.0, False)] < 0.85
        # Fine-tuning recovers nearly everything even from a useless prior.
        assert by_key[(0.0, True)] > 0.88
        # A perfect predictor doesn't need fine-tuning.
        assert by_key[(1.0, False)] > 0.88

    def test_training_sweep_saturates_quickly(self):
        points = A.training_queries_sweep(counts=(0, 16, 256), tiles=3)
        by_count = {p.train_queries: p.balance for p in points}
        assert by_count[16] > by_count[0]
        assert by_count[256] == pytest.approx(by_count[16], abs=0.05)

    def test_channel_sweep_monotone_time(self):
        points = A.channel_count_sweep(channel_counts=(4, 8, 16), sample_tiles=4)
        times = [p.time for p in points]
        assert times == sorted(times, reverse=True)
        # Doubling channels roughly halves time while utilization dips.
        assert times[0] / times[1] > 1.5

    def test_drift_study_shape(self):
        points = A.drift_study(drifts=(0.0, 1.0))
        assert points[0].stale_balance > 0.85
        assert points[1].stale_balance < points[0].stale_balance - 0.1
        # Re-tuning restores balance regardless of drift.
        assert points[1].retuned_balance > 0.85
