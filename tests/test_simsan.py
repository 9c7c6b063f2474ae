"""Tests for the runtime sim-sanitizer (repro.lint.simsan).

The contract under test: (1) a disabled sanitizer is a no-op and an enabled
one only *observes* — a sanitized run is bit-identical to a plain run at the
same seed; (2) each check catches its planted violation — non-monotone pops,
ambiguous tie-breaking keys, non-finite times, and RNG calls outside
registered seeded streams — with a span-contextualized report.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main as repro_main
from repro.errors import SimulationError
from repro.lint.simsan import (
    NULL_SANITIZER,
    SimSanitizer,
    env_enabled,
    get_sanitizer,
    installed,
    set_sanitizer,
)
from repro.obs.tracing import Tracer
from repro.serve.kernel import EventKernel


@pytest.fixture(autouse=True)
def _restore_global_sanitizer():
    yield
    set_sanitizer(None)


class TestGuardPattern:
    def test_disabled_by_default(self):
        sanitizer = get_sanitizer()
        assert sanitizer is NULL_SANITIZER
        assert sanitizer.enabled is False
        # The null object's observers are no-ops, never raising.
        sanitizer.observe_pop("events", float("nan"))
        sanitizer.check_time("x", float("inf"))
        assert sanitizer.report() == "simsan: disabled"
        assert sanitizer.summary() == {"enabled": False}

    def test_installed_restores_previous(self):
        live = SimSanitizer()
        with installed(live, hook_rng=False) as active:
            assert active is live
            assert get_sanitizer() is live
        assert get_sanitizer() is NULL_SANITIZER

    def test_env_enabled(self):
        assert env_enabled({"REPRO_SIMSAN": "1"})
        assert env_enabled({"REPRO_SIMSAN": "true"})
        assert not env_enabled({"REPRO_SIMSAN": "0"})
        assert not env_enabled({})


class TestChecks:
    def test_monotone_pop_violation(self):
        sanitizer = SimSanitizer()
        sanitizer.observe_pop("events", 1.0)
        sanitizer.observe_pop("events", 0.5)
        assert [v.check for v in sanitizer.violations] == ["monotone-pop"]
        assert "backwards" in sanitizer.violations[0].message

    def test_tracks_are_independent(self):
        sanitizer = SimSanitizer()
        sanitizer.observe_pop("events", 1.0)
        sanitizer.observe_pop("serve", 0.5)  # different clock, fine
        assert sanitizer.violations == []

    def test_duplicate_tiebreak_key_violation(self):
        sanitizer = SimSanitizer()
        sanitizer.observe_pop("serve", 1.0, key=(1.0, 0, 7))
        sanitizer.observe_pop("serve", 1.0, key=(1.0, 0, 7))
        assert [v.check for v in sanitizer.violations] == [
            "deterministic-tiebreak"
        ]

    def test_strictly_increasing_keys_are_clean(self):
        sanitizer = SimSanitizer()
        sanitizer.observe_pop("serve", 1.0, key=(1.0, 0, 1))
        sanitizer.observe_pop("serve", 1.0, key=(1.0, 0, 2))
        sanitizer.observe_pop("serve", 1.0, key=(1.0, 1, 0))
        assert sanitizer.violations == []

    def test_nan_and_inf_timestamps(self):
        sanitizer = SimSanitizer()
        sanitizer.observe_pop("events", float("nan"))
        sanitizer.observe_pop("events", float("inf"))
        assert [v.check for v in sanitizer.violations] == [
            "finite-timestamp",
            "finite-timestamp",
        ]

    def test_check_time_catches_nan_and_negative(self):
        sanitizer = SimSanitizer()
        sanitizer.check_time("makespan", float("nan"))
        sanitizer.check_time("makespan", -1.0)
        sanitizer.check_time("makespan", 0.0)
        assert [v.check for v in sanitizer.violations] == [
            "finite-time",
            "negative-time",
        ]

    def test_strict_mode_raises(self):
        sanitizer = SimSanitizer(strict=True)
        sanitizer.observe_pop("events", 1.0)
        with pytest.raises(SimulationError, match="monotone-pop"):
            sanitizer.observe_pop("events", 0.5)

    def test_violations_are_capped(self):
        sanitizer = SimSanitizer(max_violations=3)
        for _ in range(10):
            sanitizer.check_time("x", float("nan"))
        assert len(sanitizer.violations) == 3
        assert sanitizer.checks_performed == 10


class TestRngDiscipline:
    def test_unseeded_default_rng_detected(self):
        with installed(SimSanitizer()) as sanitizer:
            np.random.default_rng()
        assert [v.check for v in sanitizer.violations] == ["unseeded-rng"]
        assert "unseeded-rng" in sanitizer.report()

    def test_seeded_default_rng_registers_a_stream(self):
        with installed(SimSanitizer()) as sanitizer:
            rng = np.random.default_rng((42, 0xEC55D, 3))
        assert sanitizer.violations == []
        assert len(sanitizer.streams) == 1
        # and the wrapped constructor still returns a working generator
        assert rng.random() == np.random.default_rng((42, 0xEC55D, 3)).random()

    def test_global_state_rng_detected_and_delegates(self):
        with installed(SimSanitizer()) as sanitizer:
            values = np.random.rand(3)
        assert values.shape == (3,)
        assert [v.check for v in sanitizer.violations] == ["global-rng-state"]
        assert "np.random.rand" in sanitizer.violations[0].message

    def test_hooks_are_restored_on_exit(self):
        before = np.random.default_rng
        with installed(SimSanitizer()):
            assert np.random.default_rng is not before
        assert np.random.default_rng is before

    def test_planted_violation_in_sim_helper(self):
        """The acceptance scenario: an unseeded RNG call buried in helper
        code is caught while the sanitizer is installed."""

        def sloppy_helper(n):
            return np.random.default_rng().random(n)  # reprolint: disable=seeded-rng-only

        with installed(SimSanitizer()) as sanitizer:
            sloppy_helper(4)
        assert [v.check for v in sanitizer.violations] == ["unseeded-rng"]


class TestSpanContext:
    def test_report_contextualizes_violations_with_spans(self):
        tracer = Tracer()
        tracer.add_span("tile0/flash", 0.5, 1.5, track="pipeline")
        previous = obs.get_tracer()
        obs.set_tracer(tracer)
        try:
            sanitizer = SimSanitizer()
            sanitizer.observe_pop("events", 1.0)
            sanitizer.observe_pop("events", 0.9)  # planted violation at t=0.9
            report = sanitizer.report()
        finally:
            obs.set_tracer(previous)
        assert "monotone-pop" in report
        assert "t=0.9" in report
        assert "in span pipeline/tile0/flash" in report


class TestDeterminism:
    def _run_sim(self):
        kernel = EventKernel("events")
        for i in range(50):
            kernel.push(0.001 * (50 - i), 0, i)
        order = []
        final = 0.0
        while kernel:
            final, _kind, _seq, tag = kernel.pop()
            order.append((tag, final))
        return order, final

    def test_event_sim_identical_with_sanitizer(self):
        plain_order, plain_final = self._run_sim()
        with installed(SimSanitizer(strict=True)) as sanitizer:
            sane_order, sane_final = self._run_sim()
        assert sane_order == plain_order
        assert sane_final == plain_final
        assert sanitizer.pops_observed == 50
        assert sanitizer.violations == []

    def test_sanitizer_observes_event_loop_pops(self):
        with installed(SimSanitizer()) as sanitizer:
            self._run_sim()
        assert sanitizer.pops_observed == 50
        assert sanitizer._last_time["events"] == pytest.approx(0.05)

    def test_pushes_during_pops_keep_keys_strictly_increasing(self):
        with installed(SimSanitizer(strict=True)) as sanitizer:
            kernel = EventKernel("events")
            for i in range(10):
                kernel.push(0.001 * i, 1, i)
            while kernel:
                time, kind, _seq, payload = kernel.pop()
                if kind == 1:
                    # Same instant, later kind: the fresh seq keeps the
                    # popped key sequence strictly increasing.
                    kernel.push(time, 2, payload)
        assert sanitizer.pops_observed == 20
        assert sanitizer.violations == []


class TestCliIntegration:
    def test_serve_simsan_run_is_byte_identical(self, tmp_path):
        """A --simsan serve run must produce the same run id and digests as
        a plain run at the same seed (the determinism smoke CI also runs)."""
        run_dir = tmp_path / "runs"
        common = [
            "serve", "--benchmark", "GNMT-E32K", "--duration", "0.05",
            "--seed", "7", "--tiles", "2", "--run-dir", str(run_dir),
        ]
        assert repro_main(
            common + ["--out", str(tmp_path / "plain.json")]
        ) == 0
        assert repro_main(
            common + ["--out", str(tmp_path / "simsan.json"), "--simsan"]
        ) == 0
        manifests = sorted(run_dir.glob("*.json"))
        assert len(manifests) == 1, [m.name for m in manifests]
        plain = json.loads((tmp_path / "plain.json").read_text())
        sane = json.loads((tmp_path / "simsan.json").read_text())
        assert plain == sane
