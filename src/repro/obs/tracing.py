"""Sim-time-aware span tracer for the ECSSD stack.

The event simulator and the analytic pipeline both produce *simulated*
timestamps (seconds on the device clock), while deployment, calibration, and
host-side orchestration happen in *wall* time.  A :class:`SpanRecord`
therefore carries both clocks: ``sim_start``/``sim_end`` when the span maps
to device time (a tile's FP32 fetch, a fleet batch), and
``wall_start``/``wall_end`` measured with ``time.perf_counter`` for every
context-manager span.

Three ways to record:

* ``with tracer.span("deploy", queries=8):`` — wall-clocked, nests via an
  explicit stack, optional ``set_sim_window`` once the model has timed it;
* ``tracer.add_span("tile3/fp32_fetch", sim_start, sim_end, track=...)`` —
  pre-timed spans from the analytic model;
* ``tracer.instant("gc", plane=...)`` — point events (GC, wear-level).

:class:`NullTracer` is the zero-overhead stand-in used while observability
is disabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError

#: Track names used by the built-in instrumentation (one Chrome-trace "thread"
#: per track).
PIPELINE_TRACK = "pipeline"
INT4_TRACK = "int4-module"
FP32_TRACK = "fp32-module"
HOST_TRACK = "host"
CLUSTER_TRACK = "cluster"
FAULT_TRACK = "faults"
DIGEST_TRACK = "digest"


@dataclass
class SpanRecord:
    """One finished span (or instant event) in the unified schema."""

    name: str
    track: str = PIPELINE_TRACK
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    wall_start: Optional[float] = None
    wall_end: Optional[float] = None
    parent: Optional[str] = None
    depth: int = 0
    kind: str = "span"  # "span" | "instant"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> Optional[float]:
        if self.wall_start is None or self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe flat form (used by the JSONL exporter)."""
        return {
            "type": self.kind,
            "name": self.name,
            "track": self.track,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "parent": self.parent,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Inverse of :meth:`to_dict` — rebuilds a record from a JSONL row.

        ``to_dict`` then ``from_dict`` round-trips every field, so a span
        log streamed to disk re-exports byte-identically
        (:func:`repro.obs.export.read_jsonl_spans`).
        """

        def _opt(value: object) -> Optional[float]:
            return None if value is None else float(value)  # type: ignore[arg-type]

        return cls(
            name=str(data["name"]),
            track=str(data.get("track", PIPELINE_TRACK)),
            sim_start=_opt(data.get("sim_start")),
            sim_end=_opt(data.get("sim_end")),
            wall_start=_opt(data.get("wall_start")),
            wall_end=_opt(data.get("wall_end")),
            parent=None if data.get("parent") is None else str(data["parent"]),
            depth=int(data.get("depth", 0)),  # type: ignore[arg-type]
            kind=str(data.get("type", "span")),
            attrs=dict(data.get("attrs") or {}),  # type: ignore[arg-type]
        )


class _OpenSpan:
    """Handle yielded by ``tracer.span`` while the span is running."""

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set_sim_window(self, sim_start: float, sim_end: float) -> None:
        if sim_end < sim_start:
            raise ConfigurationError("sim window cannot end before it starts")
        self.record.sim_start = sim_start
        self.record.sim_end = sim_end

    def set_attr(self, key: str, value: object) -> None:
        self.record.attrs[key] = value

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self.record)


class Tracer:
    """Collects spans; the live ``tracer`` of :mod:`repro.obs.hooks`.

    Finished spans accumulate on :attr:`spans`, unless :meth:`attach_sink`
    streams them to a :class:`repro.obs.streaming.JsonlSpanWriter` instead,
    so memory stays at one flush buffer however many spans the run emits.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.sink = None  # duck-typed: .write(SpanRecord)
        self._stack: List[SpanRecord] = []
        self._wall_origin = time.perf_counter()

    # --- recording -------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._wall_origin

    def attach_sink(self, sink) -> None:
        """Stream finished spans to ``sink`` instead of :attr:`spans`."""
        if sink is None:
            raise ConfigurationError("attach_sink requires a sink")
        self.sink = sink

    def _record(self, record: SpanRecord) -> None:
        """The single retention path every finished span goes through."""
        if self.sink is not None:
            self.sink.write(record)
            return
        self.spans.append(record)

    def span(self, name: str, track: str = HOST_TRACK, **attrs: object) -> _OpenSpan:
        """A wall-clocked nesting span, used as a context manager."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            track=track,
            wall_start=self._now(),
            parent=parent.name if parent else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._stack.append(record)
        return _OpenSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        record.wall_end = self._now()
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        self._record(record)

    def add_span(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        track: str = PIPELINE_TRACK,
        attrs: Optional[Dict[str, object]] = None,
    ) -> SpanRecord:
        """Record a pre-timed span on the simulated clock."""
        if sim_end < sim_start:
            raise ConfigurationError("sim span cannot end before it starts")
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            track=track,
            sim_start=sim_start,
            sim_end=sim_end,
            parent=parent.name if parent else None,
            depth=len(self._stack),
            attrs=dict(attrs or {}),
        )
        self._record(record)
        return record

    def instant(
        self,
        name: str,
        sim_time: Optional[float] = None,
        track: str = PIPELINE_TRACK,
        attrs: Optional[Dict[str, object]] = None,
    ) -> SpanRecord:
        """A point event (GC invocation, threshold crossing, ...)."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            track=track,
            sim_start=sim_time,
            sim_end=sim_time,
            wall_start=self._now(),
            wall_end=None,
            parent=parent.name if parent else None,
            depth=len(self._stack),
            kind="instant",
            attrs=dict(attrs or {}),
        )
        self._record(record)
        return record

    # --- queries ---------------------------------------------------------------
    def tracks(self) -> List[str]:
        seen: List[str] = []
        for record in self.spans:
            if record.track not in seen:
                seen.append(record.track)
        return seen


class _NullOpenSpan:
    """Context manager returned by the disabled tracer: does nothing."""

    def set_sim_window(self, sim_start: float, sim_end: float) -> None:
        pass

    def set_attr(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullOpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_OPEN_SPAN = _NullOpenSpan()


class NullTracer:
    """Zero-overhead tracer installed while observability is disabled.

    Only :meth:`span` is here, because pipeline code opens spans without
    testing ``enabled``; every other tracer call site tests it first.
    """

    enabled = False

    def span(self, name: str, track: str = HOST_TRACK, **attrs: object) -> _NullOpenSpan:
        return _NULL_OPEN_SPAN


NULL_TRACER = NullTracer()

