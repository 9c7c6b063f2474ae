"""Exporters: Prometheus text exposition, Chrome trace JSON, JSON-lines reader.

Two serializations of the same telemetry so a run can be consumed by
whatever tool is at hand, plus the reader of streamed span files:

* :func:`to_prometheus_text` — the text exposition format (``# HELP`` /
  ``# TYPE`` / samples, histograms with ``_bucket``/``_sum``/``_count``)
  scrapable by any Prometheus-compatible collector;
* :func:`to_chrome_trace` — the Chrome trace-event JSON object format
  (``{"traceEvents": [...]}``) that opens directly in Perfetto or
  ``chrome://tracing``: complete events (``ph: "X"``) carry ``ts``/``dur``
  in microseconds, instant events are ``ph: "i"``, and metadata events name
  one "thread" per tracer track so the tile pipeline and the INT4/FP32
  module timelines render side by side;
* :func:`read_jsonl_spans` — parses the JSON-lines span files that
  :class:`repro.obs.streaming.JsonlSpanWriter` streams.

Spans prefer the simulated clock when present (the whole point of a device
simulator's timeline) and fall back to wall time for host-side spans.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, TextIO, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import SpanRecord, Tracer

PathOrFile = Union[str, TextIO]


def _write(target: PathOrFile, text: str) -> None:
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


# --- JSON lines -------------------------------------------------------------------
def read_jsonl_spans(source: PathOrFile) -> List[SpanRecord]:
    """Parse span records back out of a streamed span file.

    The inverse of :class:`repro.obs.streaming.JsonlSpanWriter` output:
    metric lines and blanks are skipped, span/instant lines become
    :class:`SpanRecord` rows in file order.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    spans: List[SpanRecord] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        if data.get("type") == "metric":
            continue
        spans.append(SpanRecord.from_dict(data))
    return spans


# --- Prometheus text exposition ---------------------------------------------------
def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Iterable, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = [f'{k}="{_escape_label_value(str(v))}"' for k, v in labels]
    for k, v in (extra or {}).items():
        pairs.append(f'{k}="{_escape_label_value(str(v))}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Serialize a registry in the Prometheus text exposition format."""
    out: List[str] = []
    for instrument in registry.instruments():
        out.append(f"# HELP {instrument.name} {instrument.help}")
        out.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            samples = instrument.samples()
            if not samples and isinstance(instrument, Counter):
                samples = [((), 0.0)]  # pre-registered, never incremented
            for labels, value in samples:
                out.append(
                    f"{instrument.name}{_format_labels(labels)}"
                    f" {_format_value(value)}"
                )
        elif isinstance(instrument, Histogram):
            states = instrument.states()
            if not states:
                out.append(f"{instrument.name}_sum 0")
                out.append(f"{instrument.name}_count 0")
            for labels, state in states:
                cumulative = 0
                for i, bound in enumerate(instrument.buckets):
                    cumulative += state.bucket_counts[i]
                    le = _format_labels(labels, {"le": _format_value(bound)})
                    out.append(f"{instrument.name}_bucket{le} {cumulative}")
                cumulative += state.bucket_counts[-1]
                le = _format_labels(labels, {"le": "+Inf"})
                out.append(f"{instrument.name}_bucket{le} {cumulative}")
                base = _format_labels(labels)
                out.append(f"{instrument.name}_sum{base} {repr(state.sum)}")
                out.append(f"{instrument.name}_count{base} {state.count}")
    return "\n".join(out) + ("\n" if out else "")


def write_prometheus(target: PathOrFile, registry: MetricsRegistry) -> None:
    _write(target, to_prometheus_text(registry))


# --- Chrome trace-event JSON ------------------------------------------------------
_SIM_SCALE = 1e6  # seconds -> microseconds (the trace-event ``ts`` unit)


def _span_clock(span: SpanRecord) -> Optional[tuple]:
    """(ts, dur) in microseconds, preferring the simulated clock."""
    if span.sim_start is not None and span.sim_end is not None:
        return span.sim_start * _SIM_SCALE, span.sim_duration * _SIM_SCALE
    if span.wall_start is not None:
        duration = span.wall_duration if span.wall_end is not None else 0.0
        return span.wall_start * _SIM_SCALE, duration * _SIM_SCALE
    return None


def spans_to_chrome_events(
    spans: Iterable[SpanRecord], pid: int = 1
) -> List[Dict[str, object]]:
    """Convert span records to Chrome trace-event dicts (the shared path)."""
    events: List[Dict[str, object]] = []
    tids: Dict[str, int] = {}
    for span in spans:
        tid = tids.get(span.track)
        if tid is None:
            tid = len(tids) + 1
            tids[span.track] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": span.track},
                }
            )
        clock = _span_clock(span)
        if clock is None:
            continue
        ts, dur = clock
        args = dict(span.attrs)
        if span.wall_duration is not None and span.sim_start is not None:
            args["wall_duration_s"] = span.wall_duration
        event: Dict[str, object] = {
            "name": span.name,
            "ph": "i" if span.kind == "instant" else "X",
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if span.kind == "instant":
            event["s"] = "t"  # thread-scoped instant
        else:
            event["dur"] = dur
        events.append(event)
    return events


def to_chrome_trace(
    tracer: Tracer,
    pid: int = 1,
    display_unit: str = "ns",
) -> str:
    """The tracer's spans as a Chrome trace-event JSON document."""
    document = {
        "traceEvents": spans_to_chrome_events(tracer.spans, pid=pid),
        "displayTimeUnit": display_unit,
        "otherData": {"clock": "simulated seconds x 1e6 (fallback: wall)"},
    }
    return json.dumps(document, sort_keys=True)


def write_chrome_trace(target: PathOrFile, tracer: Tracer) -> None:
    _write(target, to_chrome_trace(tracer))
