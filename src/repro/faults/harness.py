"""Fault-matrix sweeps: every fault class crossed with an RBER ladder.

This is the chaos harness behind ``repro faults``: one clean functional run
establishes the reference predictions and latency, then every
(RBER scale x fault class) cell re-runs the same queries with a seeded
:class:`~repro.faults.plan.FaultPlan` installed and reports

* **accuracy** — top-k retention vs the clean run
  (:func:`repro.analysis.metrics.topk_retention`);
* **latency** — the analytic pipeline's per-batch time including the ECC
  surcharge, plus an event-driven SSD read storm's makespan (offline
  windows, timeout retries, and per-command ECC latency all land there);
* **conservation** — the injector's ledger must balance (every attempted
  read in exactly one ECC tier) and the ladder must be exercised without a
  hang or an unhandled exception.

Everything is a pure function of the seed, so two invocations produce
bit-identical JSON — the replayability contract the chaos tests pin.

Imported lazily (via the CLI / benchmarks), not from the package root: it
pulls in the whole pipeline stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import topk_retention
from ..config import ECSSDConfig
from ..core.ecssd import ECSSDevice
from ..errors import WorkloadError
from ..obs import hooks
from ..obs.digest import DigestRecorder
from ..units import us
from ..workloads.synthetic import make_workload
from .injector import FaultInjector
from .model import EccConfig
from .plan import FaultConfig

#: The injectable fault classes a matrix sweep crosses with the RBER ladder.
FAULT_CLASSES: Tuple[str, ...] = ("rber", "offline", "dram", "timeout", "storm")

_TRAIN_QUERIES = 16
_HIDDEN_DIM = 256


def config_for_class(
    fault_class: str,
    rber_scale: float,
    seed: int,
    ecc: Optional[EccConfig] = None,
) -> FaultConfig:
    """The :class:`FaultConfig` for one matrix cell.

    ``rber`` is the pure wear/retention axis; the component-fault classes
    add their one fault kind on top of it; ``storm`` turns everything on at
    once (the worst-credible-day drill).  ``ecc`` overrides the default ECC
    ladder — the ablation engine sweeps it (full / no-retry / hard-only).
    """
    base: Dict[str, Any] = dict(
        seed=seed,
        rber_scale=rber_scale,
        mean_pe_cycles=3000.0,
        deployment_age=180.0 * 24.0 * 3600.0,
        offline_duration=us(400.0),
        horizon=0.05,
    )
    if ecc is not None:
        base["ecc"] = ecc
    if fault_class == "rber":
        return FaultConfig(**base)
    if fault_class == "offline":
        return FaultConfig(offline_windows=4, **base)
    if fault_class == "dram":
        return FaultConfig(dram_flips=8, **base)
    if fault_class == "timeout":
        return FaultConfig(timeout_rate=0.05, **base)
    if fault_class == "storm":
        return FaultConfig(
            offline_windows=4, dram_flips=8, timeout_rate=0.05, **base
        )
    raise WorkloadError(
        f"unknown fault class {fault_class!r}; expected one of {FAULT_CLASSES}"
    )


def _read_storm(injector: FaultInjector, pages: int) -> Dict[str, float]:
    """Event-driven leg: write then read ``pages`` pages under injection.

    Exercises the controller's offline stalls, bounded timeout retries, and
    per-command ECC latency on real per-channel queues; the FTL's erase
    ledger feeds the injector's wear axis through the device binding.
    """
    from ..ssd.device import SSDDevice

    device = SSDDevice(ECSSDConfig())
    channels = device.config.flash.channels
    per_channel = max(1, pages // channels)
    lpas: List[int] = []
    for channel in range(channels):
        base = device.ftl.channel_logical_range(channel).start
        lpas.extend(base + i for i in range(per_channel))
    write_done = device.host_write(lpas)
    read_done = device.host_read(lpas)
    # Re-fetch through the accelerator path for a per-channel makespan; the
    # injector's ledger (tiers, stalls, retries) captures per-read outcomes.
    addresses = [device.ftl.lookup(lpa) for lpa in lpas]
    fetch = device.fetch_pages(addresses, start=read_done)
    return {
        "pages": float(len(lpas)),
        "write_makespan_s": float(write_done),
        "read_makespan_s": float(read_done - write_done),
        "fetch_makespan_s": float(fetch.makespan),
        "mean_read_latency_s": float(
            (read_done - write_done) / max(1, len(lpas))
        ),
        "failed_reads": float(injector.tier_counts["uncorrectable"]),
    }


@dataclass
class FaultMatrixReport:
    """All cells of one fault-matrix sweep, JSON-ready."""

    seed: int
    num_labels: int
    queries: int
    top_k: int
    rber_scales: List[float]
    fault_classes: List[str]
    clean_latency_s: float
    cells: Dict[str, Dict[str, Dict[str, object]]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "num_labels": self.num_labels,
            "queries": self.queries,
            "top_k": self.top_k,
            "rber_scales": list(self.rber_scales),
            "fault_classes": list(self.fault_classes),
            "clean_latency_s": self.clean_latency_s,
            "cells": self.cells,
        }

    def cell(self, fault_class: str, rber_scale: float) -> Dict[str, object]:
        return self.cells[fault_class][f"{rber_scale:g}"]


def run_fault_matrix(
    num_labels: int = 2048,
    num_queries: int = 16,
    seed: int = 0,
    rber_scales: Sequence[float] = (1.0, 5.0, 10.0),
    fault_classes: Sequence[str] = FAULT_CLASSES,
    top_k: int = 5,
    storm_pages: int = 64,
    config: Optional[ECSSDConfig] = None,
    ecc: Optional[EccConfig] = None,
    digest_recorder: Optional[DigestRecorder] = None,
) -> FaultMatrixReport:
    """Run the full fault matrix; see the module docstring for the cells."""
    if num_queries < 1:
        raise WorkloadError("num_queries must be >= 1")
    for fault_class in fault_classes:
        if fault_class not in FAULT_CLASSES:
            raise WorkloadError(
                f"unknown fault class {fault_class!r}; "
                f"expected one of {FAULT_CLASSES}"
            )
    config = config or ECSSDConfig()
    channels = config.flash.channels
    workload = make_workload(
        num_labels=num_labels,
        hidden_dim=_HIDDEN_DIM,
        num_queries=num_queries + _TRAIN_QUERIES,
        seed=seed,
    )
    queries = workload.features[_TRAIN_QUERIES:]

    def fresh_device() -> ECSSDevice:
        device = ECSSDevice(config)
        device.deploy_model(
            workload.weights,
            train_features=workload.features[:_TRAIN_QUERIES],
            seed=seed,
        )
        return device

    clean_stats, clean_report = fresh_device().run_inference(queries, top_k=top_k)
    clean_labels = clean_stats.result.top_labels

    report = FaultMatrixReport(
        seed=seed,
        num_labels=num_labels,
        queries=int(queries.shape[0]),
        top_k=top_k,
        rber_scales=[float(s) for s in rber_scales],
        fault_classes=list(fault_classes),
        clean_latency_s=float(clean_report.scaled_total_time),
    )
    for fault_class in fault_classes:
        column: Dict[str, Dict[str, object]] = {}
        for scale in rber_scales:
            fault_config = config_for_class(
                fault_class, float(scale), seed, ecc=ecc
            )
            injector = FaultInjector(fault_config, channels=channels)
            with hooks.installed(injector=injector):
                stats, perf = fresh_device().run_inference(queries, top_k=top_k)
                storm = _read_storm(injector, storm_pages)
            injector.check_conservation()
            sanitizer = hooks.current().sanitizer
            if sanitizer.enabled:
                sanitizer.check_time(
                    f"faults.{fault_class}@{float(scale):g}.latency_s",
                    float(perf.scaled_total_time),
                )
            retention = topk_retention(clean_labels, stats.result.top_labels)
            if digest_recorder is not None:
                # One checkpoint per matrix cell (capture, not tick: every
                # cell is a meaningful state, and sweeps are short).
                digest_recorder.capture(
                    float(perf.scaled_total_time),
                    fault_class=fault_class,
                    rber_scale=f"{float(scale):g}",
                    retention=float(retention),
                    failed_reads=int(storm["failed_reads"]),
                    uncorrectable=int(injector.tier_counts["uncorrectable"]),
                )
            column[f"{float(scale):g}"] = {
                "retention": retention,
                "accuracy_cost": 1.0 - retention,
                "latency_s": float(perf.scaled_total_time),
                "latency_vs_clean": float(
                    perf.scaled_total_time / report.clean_latency_s
                ),
                "storm": storm,
                "injector": injector.summary(),
            }
        report.cells[fault_class] = column
    return report
