"""The :class:`FaultInjector` the rest of the stack queries.

A live injector sits in the ``injector`` field of the observer slot
(:mod:`repro.obs.hooks`).  Instrumented call sites read that field and test
its ``enabled`` flag first; the field is off by default, so every guard is
one attribute test and no timing arithmetic changes, and a disabled run is
bit-identical to a build without the subsystem::

    with hooks.installed(injector=FaultInjector(config, channels=8)):
        device.run_inference(features)

A live injector owns a :class:`~repro.faults.plan.FaultPlan` plus the
:class:`~repro.faults.model.RberModel`/:class:`~repro.faults.model.EccModel`
pair, and answers these questions for the stack:

* *controller*: is this channel stuck offline right now?  does this command
  time out?  what ECC latency does this page read pay, and is it readable
  at all?
* *core pipeline*: which labels are unreadable (weight pages the ladder
  cannot correct) or corrupted (DRAM flips in the 4-bit screener table)?
  what per-page latency surcharge does the analytic timing model owe?

Every answer is a deterministic function of (config, entity id, sim time):
no RNG state is consumed at query time, so replay never depends on the
interleaving of reads.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..errors import SimulationError
from ..obs.hooks import current
from ..obs.tracing import FAULT_TRACK
from .model import EccModel, EccOutcome, EccTier, RberModel
from .plan import FaultConfig, FaultPlan, hash_uniform

#: Salt for the per-page weak-page uniform (see ``plan.hash_uniform``).
_SALT_WEAK_PAGE = 11
#: Salt for the per-label unreadable-weight uniform.
_SALT_LABEL = 13


class FaultInjector:
    """Live fault source bound to one run (see module docstring)."""

    def __init__(
        self,
        config: FaultConfig,
        channels: int,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.enabled = config.enabled
        self.config = config
        self.plan = plan or FaultPlan.build(config, channels)
        self.rber_model = RberModel(
            base=config.rber_base,
            scale=config.rber_scale,
            pe_ref=config.pe_ref,
            pe_exp=config.pe_exp,
            retention_ref=config.retention_ref,
        )
        self.ecc_model = EccModel(config.ecc)
        # The event-driven path binds real wear/age sources; the analytic
        # path falls back to the config-level operating point.
        self._wear_source: Optional[Callable[[object], int]] = None
        self._program_times: Dict[object, float] = {}
        self._command_ordinal = 0
        # Conservation ledger: every attempted read lands in exactly one
        # tier bucket (chaos tests assert attempted == sum of buckets).
        self.reads_attempted = 0
        self.tier_counts: Dict[str, int] = {tier.value: 0 for tier in EccTier}
        self.timeouts_injected = 0
        self.retries_performed = 0
        self.offline_stalls = 0
        self.labels_dropped = 0

    # --- wiring ------------------------------------------------------------
    def bind_wear_source(self, source: Callable[[object], int]) -> None:
        """Install the FTL's per-block erase-count lookup (event path)."""
        self._wear_source = source

    def on_program(self, address: object, now: float) -> None:
        """Record a page's program time so retention is measurable later."""
        self._program_times[address] = now

    # --- RBER / ECC --------------------------------------------------------
    def page_rber(self, now: float, address: Optional[object] = None) -> float:
        """RBER for one page: bound wear/retention if known, else config."""
        pe = float(self.config.mean_pe_cycles)
        retention = float(self.config.deployment_age)
        if address is not None:
            if self._wear_source is not None:
                pe = float(self._wear_source(address))
            programmed = self._program_times.get(address)
            if programmed is not None:
                retention = max(0.0, now - programmed)
        return self.rber_model.rber(pe, retention)

    def read_outcome(
        self,
        now: float,
        address: Optional[object] = None,
        page_id: int = 0,
    ) -> EccOutcome:
        """ECC outcome for one page read; updates the conservation ledger.

        The mean-RBER tier ladder decides latency; whether *this* page is in
        the uncorrectable lognormal tail is decided by the page's own
        order-independent hash uniform against
        :meth:`EccModel.uncorrectable_fraction` — so a higher RBER turns a
        superset of pages uncorrectable (nested drops, monotone accuracy).
        """
        rber = self.page_rber(now, address)
        outcome = self.ecc_model.outcome_for(rber)
        p_unc = self.ecc_model.uncorrectable_fraction(rber)
        if outcome.correctable and p_unc > 0.0:
            entity = page_id if address is None else hash(address)
            if hash_uniform(entity, self.config.seed, _SALT_WEAK_PAGE) < p_unc:
                outcome = EccOutcome(
                    EccTier.UNCORRECTABLE,
                    self.ecc_model.ladder_latency,
                    retries=self.config.ecc.max_retries,
                )
        self.reads_attempted += 1
        self.tier_counts[outcome.tier.value] += 1
        self.retries_performed += outcome.retries
        if outcome.tier is not EccTier.FAST:
            hooks = current()
            registry = hooks.registry
            if registry.enabled:
                registry.counter(
                    "fault_ecc_reads_total", "page reads by ECC tier"
                ).inc(tier=outcome.tier.value)
            collector = hooks.collector
            if collector.enabled:
                collector.on_ecc(
                    outcome.tier.value, outcome.extra_latency, outcome.retries
                )
        return outcome

    def page_read_surcharge(self) -> float:
        """Mean ECC latency per page for the analytic timing model.

        The analytic pipeline prices whole fetch phases, not single pages,
        so it pays the *expected* ladder latency: the correctable tier's
        cost plus the uncorrectable tail's full-ladder cost, weighted.
        """
        rber = self.rber_model.rber(
            self.config.mean_pe_cycles, self.config.deployment_age
        )
        outcome = self.ecc_model.outcome_for(rber)
        p_unc = self.ecc_model.uncorrectable_fraction(rber)
        return (1.0 - p_unc) * outcome.extra_latency + p_unc * self.ecc_model.ladder_latency

    # --- component faults --------------------------------------------------
    def offline_release(self, channel: int, now: float) -> float:
        """When ``channel`` is next usable; records the stall if delayed."""
        release = self.plan.offline_release(channel, now)
        if release > now:
            self.offline_stalls += 1
            tracer = current().tracer
            if tracer.enabled:
                tracer.add_span(
                    f"offline/ch{channel}",
                    now,
                    release,
                    track=FAULT_TRACK,
                    attrs={"channel": channel},
                )
        return release

    def next_command_times_out(self) -> bool:
        """Consume one command ordinal and decide whether it times out.

        Ordinals advance once per *attempt* (the retry of a timed-out
        command draws a fresh ordinal), so a bounded retry budget converges
        for any ``timeout_rate`` < 1.
        """
        ordinal = self._command_ordinal
        self._command_ordinal += 1
        timed_out = self.plan.command_times_out(ordinal)
        if timed_out:
            self.timeouts_injected += 1
        return timed_out

    # --- pipeline-level corruption -----------------------------------------
    def unreadable_labels(self, num_labels: int) -> np.ndarray:
        """Labels whose FP32 weight pages the ECC ladder cannot recover.

        Per-label hash uniforms against the uncorrectable fraction give
        nested drop sets across an RBER sweep: scale up the RBER and every
        previously dropped label stays dropped.
        """
        if num_labels <= 0:
            return np.empty(0, dtype=np.int64)
        rber = self.rber_model.rber(
            self.config.mean_pe_cycles, self.config.deployment_age
        )
        p_unc = self.ecc_model.uncorrectable_fraction(rber)
        if p_unc <= 0.0:
            return np.empty(0, dtype=np.int64)
        labels = np.arange(num_labels, dtype=np.int64)
        mixed = (labels * 2654435761 + self.config.seed * 40503 + _SALT_LABEL * 69069) % (
            2 ** 32
        )
        dropped = labels[mixed / 2.0 ** 32 < p_unc]
        self.labels_dropped = int(dropped.size)
        return dropped

    def flipped_labels(self, num_labels: int) -> np.ndarray:
        """Labels corrupted by DRAM bit flips in the 4-bit screener table."""
        return self.plan.flipped_labels(num_labels)

    # --- reporting ---------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """JSON-safe conservation ledger for reports and chaos tests."""
        return {
            "reads_attempted": self.reads_attempted,
            "tier_counts": dict(sorted(self.tier_counts.items())),
            "retries_performed": self.retries_performed,
            "timeouts_injected": self.timeouts_injected,
            "offline_stalls": self.offline_stalls,
            "labels_dropped": self.labels_dropped,
            "plan": self.plan.to_dict(),
        }

    def check_conservation(self) -> None:
        """Every attempted read must land in exactly one tier bucket."""
        total = sum(self.tier_counts.values())
        if total != self.reads_attempted:
            raise SimulationError(
                f"fault ledger out of balance: {self.reads_attempted} reads "
                f"attempted but {total} accounted across tiers"
            )
