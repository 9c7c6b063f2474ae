"""Metrics registry: labeled counters, gauges, and streaming histograms.

The registry is the numeric half of the observability layer (tracing is the
temporal half).  Instruments follow the Prometheus data model so the text
exporter in :mod:`repro.obs.export` is a straight serialization:

* :class:`Counter` — monotone totals (pages fetched, GC invocations);
* :class:`Gauge` — last-value samples (queue depth, utilization);
* :class:`Histogram` — fixed-bucket streaming distributions with p50/p95/p99
  summaries interpolated from the bucket counts (per-tile latency).

Reports that keep every raw sample (serving, fleet, attribution) use the
exact :func:`sample_percentile` / :func:`sample_quantiles` instead.

Every instrument supports labels (``counter.inc(1, channel=3)``), and
re-requesting a name from a registry returns the existing instrument, so hot
paths can look instruments up on every call without growing state.

Disabled observability must cost nothing: until someone installs a live
registry, the ``registry`` field of :mod:`repro.obs.hooks` holds the shared
off value, and every call site tests ``registry.enabled`` before it touches
an instrument.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, WorkloadError

#: The tail summary latency reports carry, as ``(label, percentile)`` pairs.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
    ("p99.9", 99.9),
)

# Label sets are stored as sorted tuples so lookup is hashable + order-free.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared bookkeeping for one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def samples(self) -> List[Tuple[LabelKey, float]]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Instrument):
    """A value that can move both ways (queue depth, utilization)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


# Default buckets span sub-microsecond device events to multi-second runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


class _HistogramState:
    """Bucket counts plus running aggregates for one label set."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # trailing +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, buckets: Sequence[float]) -> None:
        """Fold one observation in (``buckets`` are the family's bounds)."""
        self.bucket_counts[bucket_index(buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)


def bucket_index(buckets: Sequence[float], value: float) -> int:
    """Index of the first bucket containing ``value`` (``le`` semantics)."""
    for i, bound in enumerate(buckets):
        if value <= bound:
            return i
    return len(buckets)


def percentile_from_state(
    buckets: Sequence[float], state: _HistogramState, p: float, name: str = ""
) -> float:
    """The ``p``-th percentile (0-100) interpolated from bucket counts."""
    if not (0.0 <= p <= 100.0):
        raise ConfigurationError("percentile must be in [0, 100]")
    if state.count == 0:
        raise ConfigurationError(f"histogram {name} has no observations")
    rank = p / 100.0 * state.count
    cumulative = 0
    for i, bucket_count in enumerate(state.bucket_counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            lower = buckets[i - 1] if i > 0 else 0.0
            lower = max(lower, state.min) if cumulative == 0 else lower
            if i >= len(buckets):  # +Inf bucket: no upper bound
                return state.max
            upper = buckets[i]
            fraction = (rank - cumulative) / bucket_count
            estimate = lower + fraction * (upper - lower)
            return min(max(estimate, state.min), state.max)
        cumulative += bucket_count
    return state.max


def sample_percentile(samples: np.ndarray, q: float, empty: str) -> float:
    """The exact ``q``-th percentile (0-100) of raw ``samples``.

    numpy's linear interpolation between order statistics, not the bucket
    estimate of :meth:`Histogram.percentile`.  Raises
    :class:`~repro.errors.WorkloadError` with message ``empty`` when there
    are no samples, and when ``q`` is out of range.
    """
    if len(samples) == 0:
        raise WorkloadError(empty)
    if not 0.0 <= q <= 100.0:
        raise WorkloadError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(samples, q))


def sample_quantiles(
    samples: np.ndarray,
    quantiles: Sequence[Tuple[str, float]] = SUMMARY_QUANTILES,
) -> Dict[str, float]:
    """Exact percentiles of non-empty ``samples``, keyed by label."""
    return {label: float(np.percentile(samples, q)) for label, q in quantiles}


class Histogram(_Instrument):
    """Fixed-bucket streaming histogram with interpolated percentiles.

    Observations land in the first bucket whose upper bound contains them
    (Prometheus ``le`` semantics).  Percentiles are linearly interpolated
    within the containing bucket, clamped to the observed min/max so exact
    values survive single-bucket distributions.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError("histogram buckets must be sorted and unique")
        self.buckets = bounds
        self._states: Dict[LabelKey, _HistogramState] = {}

    def _state(self, labels: Dict[str, object]) -> _HistogramState:
        key = _label_key(labels)
        state = self._states.get(key)
        if state is None:
            state = _HistogramState(len(self.buckets))
            self._states[key] = state
        return state

    def observe(self, value: float, **labels: object) -> None:
        value = float(value)
        with self._lock:
            self._state(labels).observe(value, self.buckets)

    def count(self, **labels: object) -> int:
        state = self._states.get(_label_key(labels))
        return state.count if state else 0

    def sum(self, **labels: object) -> float:
        state = self._states.get(_label_key(labels))
        return state.sum if state else 0.0

    def percentile(self, p: float, **labels: object) -> float:
        """The ``p``-th percentile (0-100), bucket-interpolated."""
        if not (0.0 <= p <= 100.0):
            raise ConfigurationError("percentile must be in [0, 100]")
        state = self._states.get(_label_key(labels))
        if state is None or state.count == 0:
            raise ConfigurationError(f"histogram {self.name} has no observations")
        return percentile_from_state(self.buckets, state, p, name=self.name)

    def quantiles(self, **labels: object) -> Dict[str, float]:
        """The :data:`SUMMARY_QUANTILES` tail summary, bucket-interpolated."""
        return {
            name: self.percentile(q, **labels) for name, q in SUMMARY_QUANTILES
        }

    def quantiles_or_none(self, **labels: object) -> Optional[Dict[str, float]]:
        """:meth:`quantiles`, or ``None`` when nothing was observed.

        Reporting paths summarize histograms that may legitimately be empty
        (a run that shed everything, a fault class that never fired); this
        keeps them free of try/except around :meth:`percentile`.
        """
        state = self._states.get(_label_key(labels))
        if state is None or state.count == 0:
            return None
        return self.quantiles(**labels)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        """(labels, sum) pairs — bucket detail is exporter-specific."""
        with self._lock:
            return sorted((key, state.sum) for key, state in self._states.items())

    def states(self) -> List[Tuple[LabelKey, "_HistogramState"]]:
        with self._lock:
            return sorted(self._states.items(), key=lambda kv: kv[0])


class MetricsRegistry:
    """Name-keyed instrument store, usable globally or injected.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the instrument, later calls return it, and requesting an
    existing name as a different kind raises :class:`ConfigurationError`.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def __iter__(self) -> Iterable[_Instrument]:
        return iter(self.instruments())

    def __len__(self) -> int:
        return len(self._instruments)

