"""Unified telemetry for the ECSSD stack: metrics, tracing, exporters, logging.

The paper's claims are statements about *where time goes* — transfer
interference on flash channels, MAC compute hiding under fetch, per-channel
balance under learned interleaving.  This package gives every layer of the
reproduction one way to report that:

* :mod:`repro.obs.metrics` — labeled counters/gauges/streaming histograms in
  a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracing` — a sim-time-aware span :class:`Tracer` (spans
  carry both the simulated device clock and wall time, nest, and absorb the
  per-flash-command trace);
* :mod:`repro.obs.export` — JSON-lines, Prometheus text exposition, and
  Chrome trace-event JSON (open the file in Perfetto / ``chrome://tracing``).

Instrumented call sites fetch the process-global recorder via
:func:`get_registry` / :func:`get_tracer`; both default to shared no-op
singletons, so with observability disabled the stack's timing results are
bit-identical to an uninstrumented build.  :func:`configure` installs live
recorders (optionally from an :class:`repro.config.ObservabilityConfig`) and
returns an :class:`Observability` session whose :meth:`Observability.flush`
writes every configured output file; it also works as a context manager that
restores the previous recorders on exit.

:func:`configure_logging` wires stdlib logging (``-v``/``-vv`` on the CLI);
the package-root ``repro`` logger carries a ``NullHandler`` (installed in
:mod:`repro.__init__`) so library users never see spurious output.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, List, Optional

from .._lazy import lazy_exports
from .metrics import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from .streaming import JsonlSpanWriter

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".metrics": (
        "MetricsRegistry",
        "NullMetricsRegistry",
        "Counter",
        "Gauge",
        "Histogram",
        "DEFAULT_BUCKETS",
        "NULL_REGISTRY",
    ),
    ".tracing": (
        "Tracer",
        "NullTracer",
        "NULL_TRACER",
        "SpanRecord",
        "spans_from_command_trace",
        "PIPELINE_TRACK",
        "INT4_TRACK",
        "FP32_TRACK",
        "HOST_TRACK",
        "CLUSTER_TRACK",
        "FAULT_TRACK",
        "DIGEST_TRACK",
        "FLASH_TRACK_PREFIX",
    ),
    ".export": (
        "to_chrome_trace",
        "to_jsonl",
        "to_prometheus_text",
        "write_chrome_trace",
        "write_jsonl",
        "write_prometheus",
        "command_trace_events",
        "spans_to_chrome_events",
        "read_jsonl_spans",
    ),
    ".profile": (
        "profile_trace",
        "ProfileReport",
        "TileAttribution",
        "ResourceProfile",
        "ChannelBalance",
        "InterferenceStats",
    ),
    ".perfdiff": ("diff_metrics", "flatten_metrics", "PerfDiffReport", "Tolerance"),
    # run provenance + streaming telemetry
    ".digest": (
        "DigestEntry",
        "DigestRecorder",
        "Divergence",
        "DivergenceReport",
        "canonical_json",
        "diverge_digest_entries",
        "spans_in_window",
        "state_digest",
    ),
    ".runs": (
        "RunManifest",
        "RunRegistry",
        "compare_many",
        "compare_runs",
        "derive_run_id",
        "diverge_runs",
        "file_digest",
    ),
    ".streaming": ("JsonlSpanWriter",),
    # causal tracing + tail attribution
    ".causal": (
        "AttributionReport",
        "CausalCollector",
        "NullCausalCollector",
        "RequestTrace",
        "TailExemplarStore",
        "get_collector",
        "set_collector",
        "trace_spans",
        "trace_to_chrome",
    ),
})
__all__ += [
    "Observability",
    "configure",
    "configure_logging",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "register_standard_metrics",
]

_registry = NULL_REGISTRY
_tracer = NULL_TRACER


def get_registry():
    """The process-global metrics registry (a no-op until configured)."""
    return _registry


def get_tracer():
    """The process-global span tracer (a no-op until configured)."""
    return _tracer


def set_registry(registry) -> None:
    global _registry
    _registry = registry if registry is not None else NULL_REGISTRY


def set_tracer(tracer) -> None:
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER


def register_standard_metrics(registry: MetricsRegistry) -> None:
    """Pre-register the stack's core instrument families.

    Exports then always contain the headline counters (GC invocations,
    pages fetched, relocations) and the per-tile latency histogram even for
    runs that never exercise those paths — a scrape contract, not an
    accident of which code ran.
    """
    registry.counter(
        "ecssd_pages_fetched_total", "FP32 candidate pages fetched, by channel"
    )
    registry.counter(
        "flash_commands_total", "flash commands issued by the event simulator"
    )
    registry.counter("ftl_gc_total", "garbage-collection invocations")
    registry.counter("ftl_pages_relocated_total", "valid pages moved by GC")
    registry.counter("ftl_pages_written_total", "pages programmed through the FTL")
    registry.counter("ecssd_inference_runs_total", "inference passes executed")
    registry.counter("ecssd_inference_queries_total", "queries served")
    registry.histogram(
        "ecssd_tile_latency_seconds", "steady-state cost of one pipeline tile"
    )


class Observability:
    """A live telemetry session: registry + tracer + output destinations.

    ``install`` swaps the globals to this session's recorders (keeping the
    previous pair for restoration); ``flush`` writes whatever outputs the
    config names and returns the paths.  Usable as a context manager::

        with obs.configure(ObservabilityConfig(trace_out="t.json")) as session:
            device.run_inference(features)
        # t.json written, previous recorders restored
    """

    def __init__(
        self,
        config=None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        metrics_on = config is None or getattr(config, "metrics_enabled", True)
        tracing_on = config is None or getattr(config, "tracing_enabled", True)
        self.registry = registry or (
            MetricsRegistry() if metrics_on else NULL_REGISTRY
        )
        self.tracer = tracer or (Tracer() if tracing_on else NULL_TRACER)
        if isinstance(self.registry, MetricsRegistry):
            register_standard_metrics(self.registry)
        self.sink: Optional[JsonlSpanWriter] = None
        stream_out = getattr(config, "jsonl_stream_out", None)
        if self.tracer.enabled and stream_out is not None:
            from .streaming import JsonlSpanWriter

            self.sink = JsonlSpanWriter(stream_out)
            self.tracer.attach_sink(self.sink)
        self._previous = None

    def install(self) -> "Observability":
        # Idempotent: a second install (e.g. configure() followed by a
        # ``with`` block) must not clobber the saved previous pair, or
        # uninstall would "restore" this session's own recorders.
        if self._previous is None:
            self._previous = (_registry, _tracer)
        set_registry(self.registry)
        set_tracer(self.tracer)
        return self

    def uninstall(self) -> None:
        if self._previous is not None:
            set_registry(self._previous[0])
            set_tracer(self._previous[1])
            self._previous = None

    def flush(self) -> List[str]:
        """Write every output path named in the config; returns the paths."""
        written: List[str] = []
        config = self.config
        if config is None:
            return written
        from .export import write_chrome_trace, write_jsonl, write_prometheus

        trace_out = getattr(config, "trace_out", None)
        if trace_out and self.tracer.enabled:
            write_chrome_trace(trace_out, self.tracer)
            written.append(trace_out)
        metrics_out = getattr(config, "metrics_out", None)
        if metrics_out and self.registry.enabled:
            write_prometheus(metrics_out, self.registry)
            written.append(metrics_out)
        jsonl_out = getattr(config, "jsonl_out", None)
        if jsonl_out:
            write_jsonl(
                jsonl_out,
                self.tracer if self.tracer.enabled else None,
                self.registry if self.registry.enabled else None,
            )
            written.append(jsonl_out)
        if self.sink is not None:
            self.sink.close()
            written.append(self.sink.path)
        return written

    def __enter__(self) -> "Observability":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()
        self.uninstall()


def configure(config=None, install: bool = True) -> Observability:
    """Create (and by default install) a live telemetry session.

    ``config`` is an :class:`repro.config.ObservabilityConfig` (or any object
    with its attributes); ``None`` enables both recorders with no outputs.
    """
    session = Observability(config=config)
    if install:
        session.install()
    return session


_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_LOG_HANDLER_FLAG = "_repro_obs_handler"


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """Wire the ``repro`` logger tree to stderr at a verbosity level.

    ``0`` keeps the library quiet (WARNING), ``1`` (``-v``) shows per-run
    INFO lines, ``2+`` (``-vv``) turns on DEBUG from the hot paths.
    Idempotent: re-invocation adjusts the level instead of stacking handlers.
    """
    level = {0: logging.WARNING, 1: logging.INFO}.get(max(0, verbosity), logging.DEBUG)
    root = logging.getLogger("repro")
    handler = None
    for existing in root.handlers:
        if getattr(existing, _LOG_HANDLER_FLAG, False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        setattr(handler, _LOG_HANDLER_FLAG, True)
        root.addHandler(handler)
    handler.setLevel(level)
    root.setLevel(level)
    return root
