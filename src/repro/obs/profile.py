"""Critical-path profiler: attribution analyses over recorded telemetry.

The tracer *records* spans; this module *explains* them.  Every analysis
here is a pure function over :class:`~repro.obs.tracing.SpanRecord` lists —
nothing feeds back into the timing models, so profiling a run cannot perturb
it and a run with profiling disabled is bit-identical to an uninstrumented
one.

The paper's headline claims become computed numbers:

* **Where did the time go** — each pipeline tile's window is swept and every
  instant is attributed to the resource that *binds* it (the phase span that
  ends last among those covering the instant: exactly the ``max()`` composition
  the §4.5 overlap model uses), so per-resource attributed seconds sum to
  end-to-end latency by construction.  The binding chain is the tile's
  critical path.
* **Transfer interference (§4.3)** — the overlap of the 4-bit screener-weight
  stream (DRAM under the heterogeneous layout, flash otherwise) with the
  32-bit candidate fetches, plus the interference-penalty seconds the
  homogeneous layout pays on shared channels.
* **Utilization** — each resource's busy seconds over the profiled window,
  with its idle gaps.

Per-channel page counts (the §5 balance that learned interleaving flattens)
are not span data; they live in the ``ecssd_pages_fetched_total{channel}``
counter of the metrics registry.

:func:`profile_trace` runs all of the above and returns a
:class:`ProfileReport` whose :meth:`ProfileReport.to_dict` contains only
simulated-clock quantities — two runs with the same seed serialize to
byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .tracing import PIPELINE_TRACK, SpanRecord

# Resource names used by the attribution model.  ``stall`` absorbs any part
# of a window no recorded span covers (pipeline bubbles).
RESOURCE_DRAM = "dram"
RESOURCE_FLASH = "flash"
RESOURCE_INT4 = "int4-acc"
RESOURCE_FP32 = "fp32-acc"
RESOURCE_HOST = "host"
RESOURCE_STALL = "stall"

#: Fallback mapping from phase-span name suffix to resource, used for traces
#: recorded before spans carried an explicit ``resource`` attribute.
_PHASE_RESOURCE_FALLBACK: Dict[str, str] = {
    "int4_fetch": RESOURCE_DRAM,
    "int4_compute": RESOURCE_INT4,
    "fp32_fetch": RESOURCE_FLASH,
    "fp32_compute": RESOURCE_FP32,
}

Interval = Tuple[float, float]


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of possibly-overlapping ``(start, end)`` intervals, sorted."""
    ordered = sorted((s, e) for s, e in intervals if e > s)
    merged: List[List[float]] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def total_length(intervals: Iterable[Interval]) -> float:
    """Summed length of a *merged* interval list."""
    return sum(e - s for s, e in intervals)


def overlap_length(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def span_resource(span: SpanRecord) -> Optional[str]:
    """The resource a span occupies, from its attrs or its name suffix."""
    explicit = span.attrs.get("resource")
    if isinstance(explicit, str):
        return explicit
    suffix = span.name.rsplit("/", 1)[-1]
    return _PHASE_RESOURCE_FALLBACK.get(suffix)


@dataclass(frozen=True)
class CriticalSegment:
    """One stretch of a tile's critical path bound by a single span."""

    span: str
    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span": self.span,
            "resource": self.resource,
            "start_s": self.start,
            "end_s": self.end,
            "duration_s": self.duration,
        }


@dataclass(frozen=True)
class TileAttribution:
    """One tile's window decomposed into per-resource critical-path time."""

    name: str
    start: float
    end: float
    seconds: Mapping[str, float]
    critical_path: Tuple[CriticalSegment, ...]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_s": self.start,
            "end_s": self.end,
            "duration_s": self.duration,
            "seconds": {k: self.seconds[k] for k in sorted(self.seconds)},
            "critical_path": [seg.to_dict() for seg in self.critical_path],
        }


@dataclass
class ResourceProfile:
    """Aggregate view of one resource over the profiled window."""

    resource: str
    busy_s: float = 0.0  # union of busy intervals (can overlap across tiles)
    attributed_s: float = 0.0  # critical-path seconds charged to this resource
    utilization: float = 0.0  # busy_s / profiled window
    idle_gaps: int = 0
    idle_s: float = 0.0
    longest_gap_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "resource": self.resource,
            "busy_s": self.busy_s,
            "attributed_s": self.attributed_s,
            "utilization": self.utilization,
            "idle_gaps": self.idle_gaps,
            "idle_s": self.idle_s,
            "longest_gap_s": self.longest_gap_s,
        }


@dataclass(frozen=True)
class InterferenceStats:
    """§4.3 transfer interference between the INT4 and FP32 weight streams."""

    int4_stream_s: float  # merged INT4 weight-fetch time
    fp32_fetch_s: float  # merged FP32 candidate-fetch time
    overlap_s: float  # time both streams were moving data at once
    penalty_s: float  # extra fetch seconds the homogeneous layout paid

    @property
    def overlap_fraction(self) -> float:
        """Fraction of FP32 fetch time spent concurrent with the INT4 stream."""
        if self.fp32_fetch_s <= 0:
            return 0.0
        return self.overlap_s / self.fp32_fetch_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "int4_stream_s": self.int4_stream_s,
            "fp32_fetch_s": self.fp32_fetch_s,
            "overlap_s": self.overlap_s,
            "overlap_fraction": self.overlap_fraction,
            "penalty_s": self.penalty_s,
        }


@dataclass
class ProfileReport:
    """Everything :func:`profile_trace` computed about one recorded run."""

    window_start: float
    window_end: float
    tiles: List[TileAttribution] = field(default_factory=list)
    overhead: Dict[str, float] = field(default_factory=dict)
    resources: Dict[str, ResourceProfile] = field(default_factory=dict)
    interference: InterferenceStats = field(
        default_factory=lambda: InterferenceStats(0.0, 0.0, 0.0, 0.0)
    )

    @property
    def end_to_end_s(self) -> float:
        """The profiled window: first pipeline span start to last end."""
        return self.window_end - self.window_start

    @property
    def attributed_s(self) -> Dict[str, float]:
        """Total critical-path seconds per resource (tiles + overhead)."""
        totals: Dict[str, float] = {}
        for tile in self.tiles:
            for resource, seconds in tile.seconds.items():
                totals[resource] = totals.get(resource, 0.0) + seconds
        for resource, seconds in self.overhead.items():
            totals[resource] = totals.get(resource, 0.0) + seconds
        return totals

    @property
    def attributed_total_s(self) -> float:
        return sum(self.attributed_s.values())

    @property
    def attribution_error(self) -> float:
        """|attributed - end-to-end| / end-to-end (the <= 1% contract)."""
        window = self.end_to_end_s
        if window <= 0:
            return 0.0
        return abs(self.attributed_total_s - window) / window

    def critical_path(self) -> List[CriticalSegment]:
        """The whole run's binding chain, tile by tile."""
        segments: List[CriticalSegment] = []
        for tile in self.tiles:
            segments.extend(tile.critical_path)
        return segments

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe, simulated-clock-only form (byte-stable per seed)."""
        attributed = self.attributed_s
        return {
            "window_start_s": self.window_start,
            "window_end_s": self.window_end,
            "end_to_end_s": self.end_to_end_s,
            "attributed_s": {k: attributed[k] for k in sorted(attributed)},
            "attributed_total_s": self.attributed_total_s,
            "attribution_error": self.attribution_error,
            "overhead_s": {k: self.overhead[k] for k in sorted(self.overhead)},
            "tiles": [tile.to_dict() for tile in self.tiles],
            "resources": {
                name: self.resources[name].to_dict()
                for name in sorted(self.resources)
            },
            "interference": self.interference.to_dict(),
        }

    def render(self) -> str:
        """Human-readable attribution tables."""
        from ..analysis.reporting import render_table

        attributed = self.attributed_s
        window = self.end_to_end_s
        rows = []
        for name in sorted(
            attributed, key=lambda n: (-attributed[n], n)
        ):
            profile = self.resources.get(name)
            rows.append([
                name,
                f"{attributed[name] * 1e6:,.1f}",
                f"{attributed[name] / window:.1%}" if window > 0 else "-",
                f"{profile.utilization:.1%}" if profile else "-",
            ])
        out = [
            render_table(
                ["resource", "critical-path us", "share", "utilization"],
                rows,
                title=f"Attribution: {window * 1e6:,.1f} us end-to-end, "
                      f"{len(self.tiles)} tiles "
                      f"(error {self.attribution_error:.3%})",
            )
        ]
        interference = self.interference
        out.append(
            f"transfer interference: {interference.overlap_fraction:.1%} of "
            f"FP32 fetch time overlaps the INT4 stream "
            f"({interference.overlap_s * 1e6:,.1f} us; homogeneous penalty "
            f"{interference.penalty_s * 1e6:,.1f} us)"
        )
        return "\n".join(out)


def _sweep_window(
    start: float,
    end: float,
    children: Sequence[Tuple[SpanRecord, str]],
) -> Tuple[Dict[str, float], List[CriticalSegment]]:
    """Attribute every instant of ``[start, end]`` to its binding span.

    Within each elementary segment the binding span is the covering span that
    ends last (ties broken by name): under the pipeline's ``max()`` overlap
    composition that is the span still running when the others have finished,
    i.e. the one on the critical path.  Instants no span covers are charged to
    ``stall``, so the returned seconds always sum to ``end - start`` exactly.
    """
    boundaries = {start, end}
    for span, _resource in children:
        if span.sim_start is None or span.sim_end is None:
            continue
        boundaries.add(min(max(span.sim_start, start), end))
        boundaries.add(min(max(span.sim_end, start), end))
    ordered = sorted(boundaries)
    seconds: Dict[str, float] = {}
    path: List[CriticalSegment] = []
    for seg_start, seg_end in zip(ordered, ordered[1:]):
        if seg_end <= seg_start:
            continue
        covering = [
            (span, resource)
            for span, resource in children
            if span.sim_start is not None
            and span.sim_end is not None
            and span.sim_start <= seg_start
            and span.sim_end >= seg_end
        ]
        if covering:
            span, resource = max(
                covering,
                key=lambda item: (item[0].sim_end or 0.0, item[0].name),
            )
            name = span.name
        else:
            name, resource = RESOURCE_STALL, RESOURCE_STALL
        seconds[resource] = seconds.get(resource, 0.0) + (seg_end - seg_start)
        if path and path[-1].span == name and path[-1].end == seg_start:
            last = path[-1]
            path[-1] = CriticalSegment(
                span=last.span, resource=last.resource,
                start=last.start, end=seg_end,
            )
        else:
            path.append(
                CriticalSegment(
                    span=name, resource=resource, start=seg_start, end=seg_end
                )
            )
    return seconds, path


def _idle_gaps(
    busy: Sequence[Interval], window_start: float, window_end: float
) -> Tuple[int, float, float]:
    """(gap count, idle seconds, longest gap) within the profiled window."""
    gaps: List[float] = []
    cursor = window_start
    for start, end in busy:
        if start > cursor:
            gaps.append(start - cursor)
        cursor = max(cursor, end)
    if window_end > cursor:
        gaps.append(window_end - cursor)
    if not gaps:
        return 0, 0.0, 0.0
    return len(gaps), sum(gaps), max(gaps)


def transfer_interference(spans: Sequence[SpanRecord]) -> InterferenceStats:
    """§4.3 stats: INT4-stream / FP32-fetch concurrency and penalty paid.

    The INT4 stream intervals are the ``*/int4_fetch`` phase spans (DRAM
    traffic under the heterogeneous layout); the FP32 intervals are the
    ``*/fp32_fetch`` spans.  ``penalty_s`` sums each tile's
    ``interference_penalty_s`` attribute (recorded only when the homogeneous
    layout actually paid it).
    """
    int4_intervals: List[Interval] = []
    fp32_intervals: List[Interval] = []
    penalty = 0.0
    for span in spans:
        if span.sim_start is None or span.sim_end is None:
            continue
        suffix = span.name.rsplit("/", 1)[-1]
        if suffix == "int4_fetch":
            int4_intervals.append((span.sim_start, span.sim_end))
        elif suffix == "fp32_fetch":
            fp32_intervals.append((span.sim_start, span.sim_end))
        extra = span.attrs.get("interference_penalty_s")
        if isinstance(extra, (int, float)):
            penalty += float(extra)
    int4_merged = merge_intervals(int4_intervals)
    fp32_merged = merge_intervals(fp32_intervals)
    return InterferenceStats(
        int4_stream_s=total_length(int4_merged),
        fp32_fetch_s=total_length(fp32_merged),
        overlap_s=overlap_length(int4_merged, fp32_merged),
        penalty_s=penalty,
    )


def _overhead_attribution(overhead_span: SpanRecord) -> Dict[str, float]:
    """Charge the run_overhead span's components to their resources."""
    attrs = overhead_span.attrs
    sense = float(attrs.get("sense_fill", 0.0) or 0.0)
    fill = float(attrs.get("pipeline_fill", 0.0) or 0.0)
    host = float(attrs.get("host_time", 0.0) or 0.0)
    fill_resource = attrs.get("fill_resource")
    if not isinstance(fill_resource, str):
        fill_resource = RESOURCE_INT4
    out: Dict[str, float] = {}
    if sense > 0:
        out[RESOURCE_FLASH] = out.get(RESOURCE_FLASH, 0.0) + sense
    if fill > 0:
        out[fill_resource] = out.get(fill_resource, 0.0) + fill
    if host > 0:
        out[RESOURCE_HOST] = out.get(RESOURCE_HOST, 0.0) + host
    duration = overhead_span.sim_duration or 0.0
    remainder = duration - (sense + fill + host)
    if remainder > 0:
        out[RESOURCE_STALL] = out.get(RESOURCE_STALL, 0.0) + remainder
    return out


def profile_trace(spans: Sequence[SpanRecord]) -> ProfileReport:
    """Decompose a recorded run into the :class:`ProfileReport` analyses.

    Raises :class:`~repro.errors.WorkloadError` when the trace carries no
    sim-clocked pipeline spans (nothing to attribute).  Fleet (serve/cluster)
    runs record batch spans, not tiles; their latency attribution comes from
    causal traces instead.
    """
    pipeline_spans = [
        s for s in spans
        if s.track == PIPELINE_TRACK
        and s.kind == "span"
        and s.sim_start is not None
        and s.sim_end is not None
    ]
    tile_spans = [
        s for s in pipeline_spans
        if "/" not in s.name and s.name.startswith("tile")
    ]
    if not tile_spans:
        raise WorkloadError(
            "profile_trace needs sim-clocked pipeline tile spans; run with "
            "tracing enabled first (for a serve/cluster run's latency, use "
            "`repro trace attribute` or `repro cluster --attribution-out`)"
        )
    starts = [s.sim_start for s in pipeline_spans if s.sim_start is not None]
    ends = [s.sim_end for s in pipeline_spans if s.sim_end is not None]
    window_start = min(starts)
    window_end = max(ends)

    # Index phase spans by their owning tile ("tile3/fp32_fetch" -> "tile3").
    children: Dict[str, List[Tuple[SpanRecord, str]]] = {}
    for span in spans:
        if "/" not in span.name or span.kind != "span":
            continue
        if span.sim_start is None or span.sim_end is None:
            continue
        owner = span.name.split("/", 1)[0]
        resource = span_resource(span)
        if resource is None:
            continue
        children.setdefault(owner, []).append((span, resource))

    tiles: List[TileAttribution] = []
    for tile in sorted(tile_spans, key=lambda s: (s.sim_start or 0.0, s.name)):
        assert tile.sim_start is not None and tile.sim_end is not None
        seconds, path = _sweep_window(
            tile.sim_start, tile.sim_end, children.get(tile.name, [])
        )
        tiles.append(
            TileAttribution(
                name=tile.name,
                start=tile.sim_start,
                end=tile.sim_end,
                seconds=seconds,
                critical_path=tuple(path),
            )
        )

    overhead: Dict[str, float] = {}
    for span in pipeline_spans:
        if span.name == "run_overhead":
            for resource, seconds in _overhead_attribution(span).items():
                overhead[resource] = overhead.get(resource, 0.0) + seconds

    # Per-resource busy intervals across every track, clamped to the
    # profiled window.
    busy_intervals: Dict[str, List[Interval]] = {}
    for span in spans:
        if span.kind != "span" or span.sim_start is None or span.sim_end is None:
            continue
        resource = span_resource(span)
        if resource is None:
            continue
        start = max(span.sim_start, window_start)
        end = min(span.sim_end, window_end)
        if end > start:
            busy_intervals.setdefault(resource, []).append((start, end))
    window = window_end - window_start
    resources: Dict[str, ResourceProfile] = {}
    for resource, intervals in busy_intervals.items():
        merged = merge_intervals(intervals)
        busy = total_length(merged)
        gaps, idle, longest = _idle_gaps(merged, window_start, window_end)
        resources[resource] = ResourceProfile(
            resource=resource,
            busy_s=busy,
            utilization=busy / window if window > 0 else 0.0,
            idle_gaps=gaps,
            idle_s=idle,
            longest_gap_s=longest,
        )

    attributed: Dict[str, float] = {}
    for tile in tiles:
        for resource, seconds in tile.seconds.items():
            attributed[resource] = attributed.get(resource, 0.0) + seconds
    for resource, seconds in overhead.items():
        attributed[resource] = attributed.get(resource, 0.0) + seconds
    for resource, seconds in attributed.items():
        profile = resources.get(resource)
        if profile is None:
            profile = ResourceProfile(resource=resource)
            resources[resource] = profile
        profile.attributed_s = seconds

    return ProfileReport(
        window_start=window_start,
        window_end=window_end,
        tiles=tiles,
        overhead=overhead,
        resources=resources,
        interference=transfer_interference(spans),
    )
