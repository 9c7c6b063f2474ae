"""The traced run: per-call spans around public ``repro`` calls.

:class:`SpanRecorder` replaces each public function or method listed in
``WRAPPED`` with a wrapper that records one span per call (name, start,
end, parent) in memory, and keeps per-name totals of inclusive time, self
time (inclusive minus wrapped children) and calls.  Spans are written out
once, when the run ends.  Nothing under ``src/`` changes: the wrappers are
installed on the classes and modules from outside and removed afterwards.

:data:`LAYER_METRICS` maps each per-layer metric to the spans it sums, and
:func:`observer_overheads` times each observer on vs off on one fleet
segment.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

perf = time.perf_counter

#: (module, attribute path) of every wrapped public call.  The span is named
#: by the attribute path.  Module-level functions are wrapped on the module
#: whose global the caller resolves at call time.
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("repro.core.batching", "BatchingAnalyzer.sweep"),
    ("repro.cluster", "build_cluster"),
    ("repro.cluster.engine", "ClusterSimulator.run"),
    ("repro.cluster.cache", "HotLabelCache.lookup"),
    ("repro.cluster.cache", "HotLabelCache.insert"),
    ("repro.cluster.autoscale", "Autoscaler.observe"),
    ("repro.cluster.autoscale", "Autoscaler.decide"),
    ("repro.cluster.crawlers", "CrawlerSchedule.slowdown"),
    ("repro.cluster.topology", "Interconnect.transfer_time"),
    ("repro.cluster.nodes", "DataNode.start"),
    ("repro.cluster.nodes", "DataNode.finish"),
    ("repro.serve.node", "ServiceNodeCore.offer"),
    ("repro.serve.node", "ServiceNodeCore.form_batch"),
    ("repro.serve.node", "ServiceNodeCore.dispatch_level"),
    ("repro.serve.admission", "AdmissionController.decide"),
    ("repro.core.api", "ECSSD.weight_deploy"),
    ("repro.core.api", "prealign"),
    ("repro.core.ecssd", "build_placement"),
    ("repro.core.pipeline", "TilePipelineModel.simulate"),
    ("repro.screening.model", "ApproximateScreeningModel.infer"),
    ("repro.screening.model", "ApproximateScreeningModel.calibrate"),
    ("repro.screening.model", "project"),
    ("repro.screening.screener", "Int4Screener.screen"),
    ("repro.screening.classifier", "CandidateClassifier.classify"),
    ("repro.layout.placement", "WeightPlacement.pages_per_channel"),
    ("repro.ssd.device", "SSDDevice.host_write"),
    ("repro.ssd.device", "SSDDevice.host_read"),
    ("repro.ssd.ftl", "FlashTranslationLayer.write"),
    ("repro.ssd.ftl", "FlashTranslationLayer.lookup"),
    ("repro.ssd.controller", "FlashController.submit"),
)

#: Per-layer timing metrics: name -> (unit, spans summed, what is summed).
#: ``total`` is inclusive time, ``self`` excludes wrapped children, and
#: ``calls`` counts calls.
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "cluster.run_s": ("s", ("ClusterSimulator.run",), "total"),
    "cluster.self_s": ("s", ("ClusterSimulator.run",), "self"),
    "cluster.cache_s": ("s", ("HotLabelCache.lookup", "HotLabelCache.insert"), "total"),
    "cluster.cache_calls": (
        "count", ("HotLabelCache.lookup", "HotLabelCache.insert"), "calls"),
    "cluster.autoscale_s": ("s", ("Autoscaler.observe", "Autoscaler.decide"), "total"),
    "cluster.crawler_s": ("s", ("CrawlerSchedule.slowdown",), "total"),
    "cluster.transfer_s": ("s", ("Interconnect.transfer_time",), "total"),
    "cluster.datanode_s": ("s", ("DataNode.start", "DataNode.finish"), "total"),
    "serve.offer_s": ("s", ("ServiceNodeCore.offer",), "total"),
    "serve.offer_calls": ("count", ("ServiceNodeCore.offer",), "calls"),
    "serve.form_batch_s": ("s", ("ServiceNodeCore.form_batch",), "total"),
    "serve.dispatch_level_s": ("s", ("ServiceNodeCore.dispatch_level",), "total"),
    "serve.admission_s": ("s", ("AdmissionController.decide",), "total"),
    "screening.infer_s": ("s", ("ApproximateScreeningModel.infer",), "total"),
    "screening.screen_s": ("s", ("Int4Screener.screen",), "total"),
    "screening.project_s": ("s", ("project",), "total"),
    "screening.classify_s": ("s", ("CandidateClassifier.classify",), "total"),
    "cfp32.prealign_s": ("s", ("prealign",), "total"),
    "cfp32.prealign_vectors": ("count", ("prealign",), "calls"),
    "layout.pages_per_channel_s": ("s", ("WeightPlacement.pages_per_channel",), "total"),
    "core.pipeline_s": ("s", ("TilePipelineModel.simulate",), "total"),
    "core.pipeline_calls": ("count", ("TilePipelineModel.simulate",), "calls"),
    "ssd.ftl_write_s": ("s", ("FlashTranslationLayer.write",), "total"),
    "ssd.ftl_write_calls": ("count", ("FlashTranslationLayer.write",), "calls"),
    "ssd.ftl_lookup_s": ("s", ("FlashTranslationLayer.lookup",), "total"),
    "ssd.ftl_lookup_calls": ("count", ("FlashTranslationLayer.lookup",), "calls"),
    "ssd.submit_s": ("s", ("FlashController.submit",), "total"),
    "ssd.submit_calls": ("count", ("FlashController.submit",), "calls"),
    "ssd.host_write_s": ("s", ("SSDDevice.host_write",), "total"),
    "ssd.host_read_s": ("s", ("SSDDevice.host_read",), "total"),
}

#: Set-up metrics: inclusive time of these spans during one set-up.
SETUP_METRICS: Dict[str, Tuple[str, ...]] = {
    "workloads.gen_s": ("workloads.gen",),
    "core.calibrate_s": ("BatchingAnalyzer.sweep",),
    "cluster.build_s": ("build_cluster",),
    "core.deploy_s": ("ECSSD.weight_deploy",),
    "screening.calibrate_s": ("ApproximateScreeningModel.calibrate",),
    "layout.placement_build_s": ("build_placement",),
}

#: Spans kept in memory for the span file; totals cover every call.
MAX_KEPT_SPANS = 500_000


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class SpanRecorder:
    """Wraps public calls and records their spans (see module docstring)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.calls: List[int] = []
        self.nesting_violations = 0
        self.keep = False
        self.kept_name = array("i")
        self.kept_parent = array("i")
        self.kept_start = array("d")
        self.kept_end = array("d")
        self._stack: List[List[float]] = []  # [child seconds, kept index]
        self._patches: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = len(self.names)
            self._ids[name] = index
            self.names.append(name)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.calls.append(0)
        return index

    def _enter(self, name_id: int) -> List[float]:
        kept = -1
        if self.keep and len(self.kept_start) < MAX_KEPT_SPANS:
            kept = len(self.kept_start)
            parent = int(self._stack[-1][1]) if self._stack else -1
            self.kept_name.append(name_id)
            self.kept_parent.append(parent)
            self.kept_start.append(0.0)
            self.kept_end.append(0.0)
        frame = [0.0, kept]
        self._stack.append(frame)
        return frame

    def _exit(self, name_id: int, frame: List[float], start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        children = frame[0]
        if children > duration + 1e-9:
            self.nesting_violations += 1
        self.total[name_id] += duration
        self.self_time[name_id] += duration - children
        self.calls[name_id] += 1
        if self._stack:
            self._stack[-1][0] += duration
        kept = int(frame[1])
        if kept >= 0:
            self.kept_start[kept] = start
            self.kept_end[kept] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code."""
        name_id = self._id(name)
        frame = self._enter(name_id)
        start = perf()
        try:
            yield
        finally:
            self._exit(name_id, frame, start, perf())

    def _wrapper(self, name: str, function: Callable) -> Callable:
        name_id = self._id(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = enter(name_id)
            start = perf()
            try:
                return function(*args, **kwargs)
            finally:
                leave(name_id, frame, start, perf())

        return wrapper

    def install(self) -> None:
        for module_name, path in WRAPPED:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            if not callable(original):
                raise TypeError(f"{module_name}.{path} is not a plain function")
            setattr(owner, attr, self._wrapper(path, original))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, Tuple[float, float, int]]:
        """name -> (inclusive s, self s, calls) so far."""
        return {
            name: (self.total[i], self.self_time[i], self.calls[i])
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the kept spans as ``.npz`` arrays (see the README)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = len(self.kept_start)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.kept_name, dtype=np.int32, count=count),
            parent=np.frombuffer(self.kept_parent, dtype=np.int32, count=count),
            start=np.frombuffer(self.kept_start, dtype=np.float64, count=count),
            end=np.frombuffer(self.kept_end, dtype=np.float64, count=count),
        )


def delta(
    before: Dict[str, Tuple[float, float, int]],
    after: Dict[str, Tuple[float, float, int]],
) -> Dict[str, Tuple[float, float, int]]:
    zero = (0.0, 0.0, 0)
    return {
        name: tuple(a - b for a, b in zip(values, before.get(name, zero)))
        for name, values in after.items()
    }


def sum_spans(
    totals: Dict[str, Tuple[float, float, int]], spans: Tuple[str, ...], kind: str
) -> float:
    column = {"total": 0, "self": 1, "calls": 2}[kind]
    return float(sum(totals.get(span, (0.0, 0.0, 0))[column] for span in spans))


# --- observers on vs off -----------------------------------------------------------


@contextmanager
def _telemetry() -> Iterator[None]:
    from repro import obs

    with obs.configure():
        yield


@contextmanager
def _causal() -> Iterator[None]:
    from repro.obs.causal import CausalCollector, set_collector

    set_collector(CausalCollector())
    try:
        yield
    finally:
        set_collector(None)


@contextmanager
def _simsan() -> Iterator[None]:
    from repro.errors import SimulationError
    from repro.lint.simsan import SimSanitizer, set_sanitizer

    sanitizer = SimSanitizer()
    set_sanitizer(sanitizer)
    try:
        yield
    finally:
        set_sanitizer(None)
    if sanitizer.violations:
        raise SimulationError(f"simsan: {len(sanitizer.violations)} violations")


OBSERVERS = ("obs.tracer_overhead_ratio", "obs.causal_overhead_ratio",
             "obs.digest_overhead_ratio", "lint.simsan_overhead_ratio")


def observer_overheads(workload, pairs: int) -> Tuple[Dict[str, float], int]:
    """Host time with each observer on / off on fleet segment 0.

    Each observer is switched on through its public switch.  Runs alternate
    which side goes first; the ratio is the median over ``pairs`` pairs.
    Returns the ratios and the requests of every on-run whose simulated
    outcome differed from the off-run (or that raised).
    """
    from repro.obs.digest import DigestRecorder

    switches = {
        "obs.tracer_overhead_ratio": (_telemetry, None),
        "obs.causal_overhead_ratio": (_causal, None),
        "obs.digest_overhead_ratio": (None, DigestRecorder),
        "lint.simsan_overhead_ratio": (_simsan, None),
    }
    ratios: Dict[str, float] = {}
    failed = 0
    for metric in OBSERVERS:
        context, recorder = switches[metric]
        samples = []
        for index in range(pairs):
            runs = {}
            for observed in ((False, True) if index % 2 == 0 else (True, False)):
                digest = recorder() if observed and recorder else None
                scope = context() if observed and context else nullcontext()
                try:
                    with scope:
                        seconds, report = workload.run_segment(0, digest_recorder=digest)
                except Exception:  # an observer that breaks the run fails it
                    failed += workload.REQUESTS
                    runs = {}
                    break
                runs[observed] = (seconds, workload.outcome([report])[1])
            if len(runs) == 2:
                if runs[True][1] != runs[False][1]:
                    failed += workload.REQUESTS
                samples.append(runs[True][0] / runs[False][0])
        ratios[metric] = float(np.median(samples)) if samples else 0.0
    return ratios, failed
