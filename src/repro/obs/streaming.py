"""Streaming telemetry: bounded-memory span capture for long runs.

The in-memory :class:`~repro.obs.tracing.Tracer` holds every span, which
caps trace size far below the million-request serving runs the roadmap
targets.  Attach a :class:`JsonlSpanWriter` to a tracer
(``ObservabilityConfig(jsonl_stream_out=...)``, ``--jsonl-stream-out`` on
the CLI) and every finished span is written to a JSON-lines file instead of
the list, so memory stays at one flush buffer however long the run.  Line
format is exactly the in-memory exporter's (:func:`repro.obs.export.to_jsonl`),
so a streamed file is byte-identical to an after-the-fact export of the same
spans.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, TextIO

from ..errors import ConfigurationError, ObservabilityError
from .tracing import SpanRecord


class JsonlSpanWriter:
    """Incremental JSONL span writer with flush-on-threshold.

    Buffers serialized lines and writes them out every ``flush_threshold``
    spans (and on :meth:`close`), so a crash loses at most one buffer.  The
    produced file is byte-identical to ``to_jsonl(tracer)`` over the same
    spans with no registry attached.
    """

    def __init__(self, path: str, flush_threshold: int = 512) -> None:
        if flush_threshold < 1:
            raise ConfigurationError("flush_threshold must be >= 1")
        self.path = path
        self.flush_threshold = flush_threshold
        self.lines_written = 0
        self.flushes = 0
        self._buffer: List[str] = []
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle: Optional[TextIO] = open(path, "w", encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._handle is None

    def write(self, span: SpanRecord) -> None:
        if self._handle is None:
            raise ObservabilityError(
                f"JSONL span writer for {self.path} is closed"
            )
        self._buffer.append(json.dumps(span.to_dict(), sort_keys=True))
        if len(self._buffer) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        if not self._buffer or self._handle is None:
            return
        self._handle.write("\n".join(self._buffer) + "\n")
        self._handle.flush()
        self.lines_written += len(self._buffer)
        self.flushes += 1
        self._buffer.clear()

    def close(self) -> None:
        if self._handle is None:
            return
        self.flush()
        self._handle.close()
        self._handle = None
