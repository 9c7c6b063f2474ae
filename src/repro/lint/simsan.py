"""The runtime sim-sanitizer: dynamic checks for the determinism contract.

Static analysis (:mod:`repro.lint.deep`) proves properties of the *source*;
this module asserts them on a *live run*.  When enabled (``REPRO_SIMSAN=1``
or ``--simsan`` on the serve/faults CLIs) it watches:

* **pop order** — every event-loop pop must carry a finite, non-NaN,
  monotonically non-decreasing sim time per track, and when the loop has a
  tie-breaking key (the serving heap's ``(time, kind, seq)`` tuple) the keys
  must be *strictly* increasing — a duplicate key means the tie-break is
  ambiguous and replay order is luck;
* **derived times** — any checked quantity (flash makespans, fault-cell
  latencies) must be finite and non-negative;
* **RNG discipline** — while installed, ``numpy.random.default_rng()``
  without a seed and every legacy global-state call
  (``np.random.random``/``seed``/``shuffle``/...) are violations: streams
  must be constructed from an explicit ``(seed, salt, ...)`` and registered.

Call sites read the sanitizer from the ``sanitizer`` field of the observer
slot (:mod:`repro.obs.hooks`) and test one ``enabled`` attribute.  The
field is off by default, so an un-instrumented run executes the same
arithmetic in the same order — bit-identical digests with the sanitizer
compiled in but off, and (because the checks only *observe*) with it on as
well.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import SimulationError
from ..obs import hooks

#: Legacy numpy global-state entry points that bypass seeded streams.
_GLOBAL_STATE_FNS = (
    "random",
    "rand",
    "randn",
    "randint",
    "normal",
    "uniform",
    "shuffle",
    "choice",
    "permutation",
    "seed",
)


@dataclass(frozen=True)
class SimSanViolation:
    """One contract breach observed at runtime."""

    check: str
    message: str
    sim_time: Optional[float] = None
    context: str = ""

    def format(self) -> str:
        where = f" at sim t={self.sim_time:.9g}" if self.sim_time is not None else ""
        ctx = f" [{self.context}]" if self.context else ""
        return f"simsan: {self.check}{where}: {self.message}{ctx}"


class SimSanitizer:
    """Live sanitizer; see the module docstring.

    ``strict=True`` raises :class:`~repro.errors.SimulationError` on the
    first violation (tests); ``strict=False`` collects up to
    ``max_violations`` and lets the CLI report and fail the exit code.
    """

    enabled = True

    def __init__(self, strict: bool = False, max_violations: int = 100) -> None:
        self.strict = strict
        self.max_violations = max_violations
        self.violations: List[SimSanViolation] = []
        self.pops_observed = 0
        self.checks_performed = 0
        self.streams: Dict[str, object] = {}
        self._last_time: Dict[str, float] = {}
        self._last_key: Dict[str, Tuple[Any, ...]] = {}
        self._saved_rng: Dict[str, Callable[..., Any]] = {}

    # --- violation plumbing ------------------------------------------------
    def _violate(
        self,
        check: str,
        message: str,
        sim_time: Optional[float] = None,
        context: str = "",
    ) -> None:
        violation = SimSanViolation(
            check=check, message=message, sim_time=sim_time, context=context
        )
        if self.strict:
            raise SimulationError(violation.format())
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)

    # --- event-loop checks --------------------------------------------------
    def observe_pop(
        self,
        track: str,
        sim_time: float,
        key: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        """Check one event-loop pop on ``track`` (see module docstring)."""
        self.pops_observed += 1
        if math.isnan(sim_time) or math.isinf(sim_time):
            self._violate(
                "finite-timestamp",
                f"popped event carries non-finite sim time {sim_time!r}",
                sim_time=None,
                context=track,
            )
            return
        last = self._last_time.get(track)
        if last is not None and sim_time < last:
            self._violate(
                "monotone-pop",
                f"sim time went backwards: {last!r} -> {sim_time!r}",
                sim_time=sim_time,
                context=track,
            )
        self._last_time[track] = sim_time
        if key is not None:
            last_key = self._last_key.get(track)
            if last_key is not None and key <= last_key:
                self._violate(
                    "deterministic-tiebreak",
                    f"pop key {key!r} does not strictly increase after "
                    f"{last_key!r}; tie-breaking is ambiguous and replay "
                    "order depends on heap internals",
                    sim_time=sim_time,
                    context=track,
                )
            self._last_key[track] = key

    def check_time(
        self, label: str, value: float, sim_time: Optional[float] = None
    ) -> None:
        """Assert a derived duration/timestamp is finite and non-negative."""
        self.checks_performed += 1
        if math.isnan(value) or math.isinf(value):
            self._violate(
                "finite-time",
                f"{label} is non-finite: {value!r}",
                sim_time=sim_time,
                context=label,
            )
        elif value < 0.0:
            self._violate(
                "negative-time",
                f"{label} is negative: {value!r}",
                sim_time=sim_time,
                context=label,
            )

    # --- RNG discipline -----------------------------------------------------
    def register_stream(self, name: str, seed: object) -> None:
        """Declare a seeded RNG stream (default_rng hook does this)."""
        self.streams[name] = seed

    def install_rng_hooks(self) -> None:
        """Wrap numpy's RNG entry points to enforce stream discipline."""
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a hard dep
            return
        if self._saved_rng:
            return
        original_default_rng = np.random.default_rng
        sanitizer = self

        def checked_default_rng(seed: object = None, *args: Any, **kwargs: Any) -> Any:
            if seed is None and not args and not kwargs:
                sanitizer._violate(
                    "unseeded-rng",
                    "np.random.default_rng() constructed without a seed; "
                    "every stream must derive from (seed, salt, ...)",
                )
            else:
                sanitizer.register_stream(f"stream-{len(sanitizer.streams)}", seed)
            return original_default_rng(seed, *args, **kwargs)

        self._saved_rng["default_rng"] = original_default_rng
        np.random.default_rng = checked_default_rng  # type: ignore[assignment]

        for name in _GLOBAL_STATE_FNS:
            original = getattr(np.random, name, None)
            if original is None:  # pragma: no cover - numpy version drift
                continue

            def make_wrapper(
                fn_name: str, fn: Callable[..., Any]
            ) -> Callable[..., Any]:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    sanitizer._violate(
                        "global-rng-state",
                        f"np.random.{fn_name}() uses the global RNG state "
                        "outside any registered seeded stream",
                    )
                    return fn(*args, **kwargs)

                return wrapper

            self._saved_rng[name] = original
            setattr(np.random, name, make_wrapper(name, original))

    def uninstall_rng_hooks(self) -> None:
        """Restore the numpy entry points saved by :meth:`install_rng_hooks`."""
        if not self._saved_rng:
            return
        import numpy as np

        for name, original in self._saved_rng.items():
            setattr(np.random, name, original)
        self._saved_rng.clear()

    # --- reporting ----------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "enabled": True,
            "strict": self.strict,
            "pops_observed": self.pops_observed,
            "checks_performed": self.checks_performed,
            "streams_registered": len(self.streams),
            "violations": len(self.violations),
        }

    def report(self) -> str:
        """Human-readable report; span-contextualizes each violation.

        When the obs tracer has spans, each violation with a sim time is
        annotated with the sim-clocked spans overlapping it, so a bad pop
        points straight at the pipeline phase that produced it.
        """
        if not self.violations:
            return (
                f"simsan: clean ({self.pops_observed} pops, "
                f"{self.checks_performed} checks, "
                f"{len(self.streams)} seeded streams)"
            )
        lines = [
            f"simsan: {len(self.violations)} violation(s) "
            f"({self.pops_observed} pops, {self.checks_performed} checks)"
        ]
        spans = self._tracer_spans()
        for violation in self.violations:
            lines.append("  " + violation.format())
            if violation.sim_time is not None and spans:
                from ..obs.digest import spans_in_window

                window = spans_in_window(
                    spans, violation.sim_time, violation.sim_time
                )
                for span in window[-3:]:
                    lines.append(
                        f"    in span {span.track}/{span.name} "
                        f"[{span.sim_start!r}, {span.sim_end!r}]"
                    )
        return "\n".join(lines)

    def _tracer_spans(self) -> List[Any]:
        tracer = hooks.current().tracer
        return list(tracer.spans) if tracer.enabled else []


def set_sanitizer(sanitizer: Optional[SimSanitizer]) -> None:
    """Put ``sanitizer`` in the observer slot; ``None`` switches it off."""
    hooks.swap(sanitizer=sanitizer)


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """True when ``REPRO_SIMSAN`` requests the sanitizer (1/true/yes/on)."""
    env = environ if environ is not None else dict(os.environ)
    return env.get("REPRO_SIMSAN", "").strip().lower() in ("1", "true", "yes", "on")


@contextmanager
def installed(sanitizer: SimSanitizer) -> Iterator[SimSanitizer]:
    """Install ``sanitizer`` and wrap numpy's RNG entry points for a block.

    ::

        with installed(SimSanitizer(strict=True)) as san:
            simulator.run()
        print(san.report())

    The observer slot and numpy's originals are both restored on exit.
    """
    with hooks.installed(sanitizer=sanitizer):
        sanitizer.install_rng_hooks()
        try:
            yield sanitizer
        finally:
            sanitizer.uninstall_rng_hooks()
