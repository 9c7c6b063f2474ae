"""Chaos tests for the fault-injection subsystem (repro.faults).

Pins the subsystem's four contracts:

* **replayability** — plans and injectors are pure functions of the seed;
* **zero overhead when disabled** — a run with no injector (or a
  ``FaultConfig.disabled()`` injector) is bit-identical to the seed;
* **monotonicity** — more injected RBER never makes reads faster or
  accuracy better;
* **conservation / no-hang** — every attempted read lands in exactly one
  ECC tier, and bounded retries mean every fault class terminates.
"""

import numpy as np
import pytest

from repro.config import ECSSDConfig, FlashConfig
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.faults import (
    EccConfig,
    EccModel,
    EccTier,
    FaultConfig,
    FaultInjector,
    FaultPlan,
    RberModel,
    ScrubConfig,
    ScrubPolicy,
    hash_uniform,
)
from repro.faults.harness import FAULT_CLASSES, config_for_class, run_fault_matrix
from repro.obs import hooks
from repro.ssd.device import SSDDevice


def tiny_config(**overrides) -> ECSSDConfig:
    flash = dict(
        channels=2,
        packages_per_channel=1,
        dies_per_package=2,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=8,
    )
    flash.update(overrides)
    return ECSSDConfig(flash=FlashConfig(**flash))


def aged_config(**overrides) -> FaultConfig:
    """An operating point with real wear so the ECC ladder is exercised."""
    params = dict(
        mean_pe_cycles=3000.0,
        deployment_age=180.0 * 24.0 * 3600.0,
        horizon=0.05,
    )
    params.update(overrides)
    return FaultConfig(**params)


class TestHashUniform:
    def test_range_and_determinism(self):
        values = [hash_uniform(i, seed=7, salt=3) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [hash_uniform(i, seed=7, salt=3) for i in range(1000)]

    def test_seed_and_salt_decorrelate(self):
        base = [hash_uniform(i, seed=0) for i in range(100)]
        assert base != [hash_uniform(i, seed=1) for i in range(100)]
        assert base != [hash_uniform(i, seed=0, salt=5) for i in range(100)]


class TestConfigValidation:
    def test_disabled_is_inert_and_valid(self):
        config = FaultConfig.disabled()
        assert not config.enabled
        assert FaultInjector(config, channels=4).enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rber_base=0.0),
            dict(rber_scale=-1.0),
            dict(timeout_rate=1.0),
            dict(offline_windows=-1),
            dict(dram_flips=-2),
            dict(max_command_retries=-1),
            dict(horizon=0.0),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(**kwargs)

    def test_ecc_config_validated(self):
        with pytest.raises(ConfigurationError):
            EccConfig(fast_limit_bits=100, soft_limit_bits=72)
        with pytest.raises(ConfigurationError):
            EccConfig(retry_gain=1.5)


class TestEccLadder:
    def test_tier_boundaries(self):
        model = EccModel(EccConfig())
        bits = model.config.codeword_bits
        assert model.outcome_for(1.0 / bits).tier is EccTier.FAST
        assert model.outcome_for(16.0 / bits).tier is EccTier.FAST
        assert model.outcome_for(40.0 / bits).tier is EccTier.SOFT
        retried = model.outcome_for(100.0 / bits)
        assert retried.tier is EccTier.RETRY
        assert retried.retries >= 1
        dead = model.outcome_for(10000.0 / bits)
        assert dead.tier is EccTier.UNCORRECTABLE
        assert not dead.correctable
        assert dead.extra_latency == pytest.approx(model.ladder_latency)

    def test_latency_monotone_in_rber(self):
        model = EccModel(EccConfig())
        rbers = np.logspace(-7, -1, 60)
        latencies = [model.outcome_for(r).extra_latency for r in rbers]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_uncorrectable_fraction_monotone(self):
        model = EccModel(EccConfig())
        rbers = np.logspace(-7, -1, 60)
        tails = [model.uncorrectable_fraction(r) for r in rbers]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(b >= a for a, b in zip(tails, tails[1:]))
        assert tails[-1] > tails[0]

    def test_rber_surface_monotone(self):
        model = RberModel()
        assert model.rber(0, 0) == pytest.approx(model.base)
        assert model.rber(6000, 0) > model.rber(3000, 0)
        assert model.rber(0, 1e7) > model.rber(0, 1e6)


class TestPlanReplay:
    def test_two_builds_are_identical(self):
        config = FaultConfig(
            seed=11, offline_windows=6, dram_flips=5, timeout_rate=0.1
        )
        a = FaultPlan.build(config, channels=8)
        b = FaultPlan.build(config, channels=8)
        assert a.to_dict() == b.to_dict()
        assert a.windows == b.windows
        np.testing.assert_array_equal(a.dram_flip_fractions, b.dram_flip_fractions)

    def test_seeds_differ(self):
        base = dict(offline_windows=6, dram_flips=5)
        a = FaultPlan.build(FaultConfig(seed=0, **base), channels=8)
        b = FaultPlan.build(FaultConfig(seed=1, **base), channels=8)
        assert a.to_dict() != b.to_dict()

    def test_offline_release_skips_windows(self):
        config = FaultConfig(offline_windows=3, offline_duration=1e-3, seed=2)
        plan = FaultPlan.build(config, channels=4)
        window = plan.windows[0]
        inside = (window.start + window.end) / 2
        assert plan.offline_release(window.channel, inside) >= window.end
        assert plan.offline_release(window.channel, window.end) == window.end
        # A channel with no windows never stalls.
        quiet = next(
            c for c in range(4) if c not in {w.channel for w in plan.windows}
        ) if len({w.channel for w in plan.windows}) < 4 else None
        if quiet is not None:
            assert plan.offline_release(quiet, inside) == inside

    def test_flipped_labels_sorted_unique_in_range(self):
        plan = FaultPlan.build(FaultConfig(dram_flips=16, seed=3), channels=2)
        labels = plan.flipped_labels(100)
        assert labels.size > 0
        assert np.all(labels == np.unique(labels))
        assert labels.min() >= 0 and labels.max() < 100


class TestInjector:
    def test_conservation_ledger(self):
        injector = FaultInjector(aged_config(rber_scale=20.0), channels=2)
        for page in range(500):
            injector.read_outcome(0.0, page_id=page)
        injector.check_conservation()
        assert injector.reads_attempted == 500
        assert sum(injector.tier_counts.values()) == 500

    def test_ledger_imbalance_detected(self):
        injector = FaultInjector(aged_config(), channels=2)
        injector.reads_attempted = 1
        with pytest.raises(SimulationError):
            injector.check_conservation()

    def test_unreadable_labels_nest_across_rber_sweep(self):
        previous: set = set()
        for scale in (1.0, 3.0, 10.0, 30.0):
            injector = FaultInjector(aged_config(rber_scale=scale), channels=2)
            dropped = set(injector.unreadable_labels(4096).tolist())
            assert previous <= dropped
            previous = dropped
        assert previous  # the harshest point drops something

    def test_surcharge_monotone_in_rber(self):
        surcharges = [
            FaultInjector(
                aged_config(rber_scale=s), channels=2
            ).page_read_surcharge()
            for s in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
        ]
        assert all(b >= a for a, b in zip(surcharges, surcharges[1:]))
        assert surcharges[-1] > surcharges[0]

    def test_timeout_ordinals_bounded_rate(self):
        injector = FaultInjector(aged_config(timeout_rate=0.2, seed=1), channels=2)
        hits = sum(injector.next_command_times_out() for _ in range(2000))
        assert 0.1 < hits / 2000 < 0.3

    def test_installed_restores_previous(self):
        assert hooks.current().injector is hooks.OFF
        live = FaultInjector(aged_config(), channels=2)
        with hooks.installed(injector=live):
            assert hooks.current().injector is live
        assert hooks.current().injector is hooks.OFF


class TestZeroOverheadWhenDisabled:
    """Satellite: a disabled run is bit-identical to the seed (no injector)."""

    def _storm(self):
        device = SSDDevice(tiny_config())
        lpas = list(range(12))
        write = device.host_write(lpas)
        read = device.host_read(lpas)
        addresses = [device.ftl.lookup(lpa) for lpa in lpas]
        fetch = device.fetch_pages(addresses, start=read)
        return (write, read, fetch.makespan, tuple(fetch.channel_finish))

    def test_disabled_injector_is_bit_identical_to_no_injector(self):
        baseline = self._storm()
        with hooks.installed(
            injector=FaultInjector(FaultConfig.disabled(), channels=2)
        ):
            disabled = self._storm()
        assert disabled == baseline

    def test_zero_rber_injector_adds_no_latency(self):
        baseline = self._storm()
        config = FaultConfig(rber_scale=0.0)
        injector = FaultInjector(config, channels=2)
        with hooks.installed(injector=injector):
            live = self._storm()
            injector.check_conservation()
        assert live == baseline
        assert injector.tier_counts["fast"] == injector.reads_attempted


class TestEventPathInjection:
    def _run(self, config: FaultConfig):
        device_config = tiny_config()
        injector = FaultInjector(config, channels=device_config.flash.channels)
        with hooks.installed(injector=injector):
            device = SSDDevice(device_config)
            lpas = list(range(16))
            device.host_write(lpas)
            read_done = device.host_read(lpas)
            addresses = [device.ftl.lookup(lpa) for lpa in lpas]
            fetch = device.fetch_pages(addresses, start=read_done)
            injector.check_conservation()
        return injector, fetch

    def test_ecc_latency_lands_on_reads(self):
        clean_fetch = self._run(FaultConfig(rber_scale=0.0))[1]
        worn, worn_fetch = self._run(aged_config(rber_scale=5.0))
        assert worn_fetch.makespan > clean_fetch.makespan
        slow = (
            worn.tier_counts["soft"]
            + worn.tier_counts["retry"]
            + worn.tier_counts["uncorrectable"]
        )
        assert slow > 0

    def test_timeouts_retry_and_terminate(self):
        injector, _fetch = self._run(aged_config(timeout_rate=0.4, seed=9))
        assert injector.timeouts_injected > 0
        # Bounded attempts: no command consumed more than retries+1 ordinals.
        commands = injector.reads_attempted + 16  # reads twice + programs
        budget = injector.config.max_command_retries + 1
        assert injector._command_ordinal <= commands * budget

    def test_offline_windows_stall_reads(self):
        config = aged_config(
            rber_scale=0.0,
            offline_windows=4,
            offline_duration=5e-3,
            horizon=1e-3,
            seed=4,
        )
        injector, _fetch = self._run(config)
        assert injector.offline_stalls > 0

    def test_storm_class_survives(self):
        config = config_for_class("storm", rber_scale=10.0, seed=0)
        injector, fetch = self._run(config)
        assert fetch.makespan > 0.0
        injector.check_conservation()

    def test_wear_binding_uses_ftl_erase_counts(self):
        device_config = tiny_config()
        injector = FaultInjector(aged_config(), channels=2)
        with hooks.installed(injector=injector):
            device = SSDDevice(device_config)
            assert injector._wear_source is not None
            lpas = list(range(8))
            device.host_write(lpas)
            address = device.ftl.lookup(lpas[0])
            assert injector._wear_source(address) == device.ftl.block_erase_count(
                address
            )


class TestScrub:
    def test_refresh_migrates_and_rewinds_retention(self):
        config = tiny_config()
        fault_config = FaultConfig(
            rber_scale=50.0,
            mean_pe_cycles=0.0,
            deployment_age=365.0 * 24.0 * 3600.0,
        )
        injector = FaultInjector(fault_config, channels=2)
        with hooks.installed(injector=injector):
            device = SSDDevice(config)
            lpas = list(range(24))
            device.host_write(lpas)
            policy = ScrubPolicy(device.ftl, injector, ScrubConfig())
            report = policy.scan_and_refresh(now=1.0)
            assert report.scanned > 0
            assert report.refreshed > 0
            assert report.pages_migrated > 0
            # Mapping survives the migration.
            for lpa in lpas:
                device.ftl.lookup(lpa)
            # Refreshed blocks re-entered the wear heap with bumped wear.
            _lo, hi, _mean = device.ftl.wear_stats()
            assert hi >= 1

    def test_budget_bounds_one_pass(self):
        config = tiny_config()
        fault_config = FaultConfig(
            rber_scale=50.0, deployment_age=365.0 * 24.0 * 3600.0
        )
        injector = FaultInjector(fault_config, channels=2)
        with hooks.installed(injector=injector):
            device = SSDDevice(config)
            device.host_write(list(range(24)))
            policy = ScrubPolicy(
                device.ftl, injector, ScrubConfig(max_refreshes=1)
            )
            report = policy.scan_and_refresh(now=1.0)
            assert report.refreshed <= 1
            if report.scanned > 1:
                assert report.skipped_budget >= 0

    def test_scrub_config_validated(self):
        with pytest.raises(ConfigurationError):
            ScrubConfig(refresh_margin=0.0)
        with pytest.raises(ConfigurationError):
            ScrubConfig(max_refreshes=-1)


class TestFaultMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_fault_matrix(
            num_labels=256,
            num_queries=4,
            seed=0,
            rber_scales=(1.0, 5.0, 10.0),
            fault_classes=("rber", "storm"),
            storm_pages=16,
        )

    def test_replayable(self, matrix):
        again = run_fault_matrix(
            num_labels=256,
            num_queries=4,
            seed=0,
            rber_scales=(1.0, 5.0, 10.0),
            fault_classes=("rber", "storm"),
            storm_pages=16,
        )
        assert again.to_dict() == matrix.to_dict()

    def test_latency_monotone_retention_nonincreasing(self, matrix):
        for fault_class in ("rber", "storm"):
            cells = [matrix.cell(fault_class, s) for s in (1.0, 5.0, 10.0)]
            latencies = [c["latency_s"] for c in cells]
            retentions = [c["retention"] for c in cells]
            assert all(b >= a for a, b in zip(latencies, latencies[1:]))
            assert all(b <= a for a, b in zip(retentions, retentions[1:]))

    def test_every_configured_class_builds(self):
        for fault_class in FAULT_CLASSES:
            config = config_for_class(fault_class, rber_scale=2.0, seed=1)
            assert config.rber_scale == 2.0
        with pytest.raises(WorkloadError):
            config_for_class("meteor", rber_scale=1.0, seed=0)

    def test_unknown_class_rejected_up_front(self):
        with pytest.raises(WorkloadError):
            run_fault_matrix(num_labels=64, fault_classes=("meteor",))
