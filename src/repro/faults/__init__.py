"""Deterministic fault-injection and reliability subsystem.

The simulator's substrate is an MQSim-class SSD, and real NAND is not
perfect: raw bit-error rate (RBER) grows with P/E cycling and retention,
controllers hide it behind a tiered ECC pipeline, and components fail
outright.  This package makes all of that injectable — and *replayable*:
every stochastic choice is drawn from seeded RNG streams at plan-build time
or from order-independent hashes at query time, so two runs with the same
:class:`FaultConfig` are bit-identical.

Layout:

* :mod:`repro.faults.model` — the RBER surface and the tiered ECC ladder
  (fast BCH-like → soft LDPC-like → read-retry → uncorrectable);
* :mod:`repro.faults.plan` — :class:`FaultConfig` knobs and the materialized
  :class:`FaultPlan` (offline windows, DRAM flips, command timeouts);
* :mod:`repro.faults.injector` — the :class:`FaultInjector` call sites
  query from the ``injector`` field of :mod:`repro.obs.hooks` (off by
  default, so a disabled run is bit-identical to an uninstrumented build);
* :mod:`repro.faults.scrub` — background scrub/refresh migrating high-RBER
  blocks back through the FTL's wear-leveling heap;
* :mod:`repro.faults.harness` — fault-matrix sweeps behind the
  ``repro faults`` CLI subcommand (imported lazily: it pulls in the full
  pipeline stack).
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".model": ("EccConfig", "EccModel", "EccOutcome", "EccTier", "RberModel"),
    ".plan": (
        "FaultConfig",
        "FaultPlan",
        "OfflineWindow",
        "ClusterFaultConfig",
        "ClusterFaultPlan",
        "NodeCrashWindow",
        "PartitionWindow",
        "SlowNodeWindow",
        "hash_uniform",
    ),
    ".injector": ("FAULT_TRACK", "FaultInjector"),
    ".scrub": ("ScrubConfig", "ScrubPolicy", "ScrubReport"),
})
