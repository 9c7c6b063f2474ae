"""Performance-regression differ for bench/metrics JSON artifacts.

``repro perf-diff baseline.json candidate.json`` compares two metric files
(``benchmarks/results/BENCH_*.json``, ``repro serve --out`` payloads, or any
JSON with numeric leaves), applies per-metric tolerance bands, and exits
nonzero on regression — so the bench trajectories checked into
``benchmarks/results/`` are *enforced*, not just recorded.

Mechanics:

* :func:`flatten_metrics` turns nested JSON into ``dotted.path`` -> float
  (lists are indexed: ``trajectory.2.p99_ms``); booleans count as 0/1 so
  flags like ``slo_attained`` regress loudly.
* A :class:`Tolerance` is an ``fnmatch`` glob over the dotted path, a
  relative band, and a direction: latency-like metrics only regress upward,
  goodput-like metrics only regress downward.  First matching tolerance
  wins; unmatched keys get ``default_rel_tol`` in both directions.
* A key present in the baseline but missing from the candidate is a
  regression (the metric disappeared); a new key is reported but harmless.

Pure functions over the two parsed documents: byte-identical inputs produce
a byte-identical :class:`PerfDiffReport`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError

#: Tolerance directions.
HIGHER_IS_WORSE = "higher_is_worse"
LOWER_IS_WORSE = "lower_is_worse"
BOTH = "both"
_DIRECTIONS = (HIGHER_IS_WORSE, LOWER_IS_WORSE, BOTH)

#: Guard for relative deltas against a ~zero baseline.
_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """One tolerance band: glob pattern, relative width, direction."""

    pattern: str
    rel_tol: float
    direction: str = BOTH

    def __post_init__(self) -> None:
        if not self.rel_tol >= 0:  # also rejects NaN, which no delta exceeds
            raise ConfigurationError(
                f"tolerance must be non-negative, got {self.rel_tol!r}"
            )
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )

    def matches(self, key: str) -> bool:
        return fnmatchcase(key, self.pattern)


#: The documented default bands (DESIGN.md §11): tail latency may drift 10%,
#: throughput-like metrics 5% down, attainment/retention 2% down.  Metadata
#: echoes (seeds, configured rates, model fit constants) are exempt.
DEFAULT_TOLERANCES: Tuple[Tolerance, ...] = (
    Tolerance("*seed*", math.inf, BOTH),
    Tolerance("*duration*", math.inf, BOTH),
    Tolerance("*rate_multiplier*", math.inf, BOTH),
    Tolerance("*arrived*", math.inf, BOTH),
    Tolerance("*knee*", math.inf, BOTH),
    Tolerance("*base_s*", math.inf, BOTH),
    Tolerance("*per_query_s*", math.inf, BOTH),
    # Wall-clock measurements vary with host load; sim-derived metrics carry
    # the real signal.  A committed wall-clock rate comes from another host,
    # so its band is wide; host speed is gated by a same-runner A/B instead.
    Tolerance("*wall_s*", math.inf, BOTH),
    Tolerance("*per_second*", 0.50, LOWER_IS_WORSE),
    Tolerance("*qps*", 0.05, LOWER_IS_WORSE),
    Tolerance("*goodput*", 0.05, LOWER_IS_WORSE),
    Tolerance("*p99*", 0.10, HIGHER_IS_WORSE),
    Tolerance("*p95*", 0.10, HIGHER_IS_WORSE),
    Tolerance("*p50*", 0.10, HIGHER_IS_WORSE),
    Tolerance("*latency*", 0.10, HIGHER_IS_WORSE),
    Tolerance("*shed_rate*", 0.10, HIGHER_IS_WORSE),
    Tolerance("*slo_attainment*", 0.02, LOWER_IS_WORSE),
    Tolerance("*slo_attained*", 0.0, LOWER_IS_WORSE),
    Tolerance("*retention*", 0.02, LOWER_IS_WORSE),
    Tolerance("*degrade_level*", 0.0, HIGHER_IS_WORSE),
)

#: Band for keys no tolerance matches (both directions).
DEFAULT_REL_TOL = 0.05

JsonValue = Union[None, bool, int, float, str, Sequence["JsonValue"], Mapping[str, "JsonValue"]]

# Entry statuses.
STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_MISSING = "missing"  # in candidate
STATUS_NEW = "new"  # only in candidate


def flatten_metrics(value: JsonValue, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a JSON document as ``dotted.path`` -> float."""
    out: Dict[str, float] = {}
    if isinstance(value, bool):
        out[prefix] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, Mapping):
        for key in value:
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(value[key], path))
    elif isinstance(value, Sequence) and not isinstance(value, str):
        for index, item in enumerate(value):
            path = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten_metrics(item, path))
    # strings / nulls carry no perf signal
    return out


def load_metrics_file(path: str) -> Dict[str, float]:
    """Parse a JSON file and flatten it to numeric leaves."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    return flatten_metrics(document)


@dataclass(frozen=True)
class DiffEntry:
    """One metric's comparison outcome."""

    key: str
    baseline: Optional[float]
    candidate: Optional[float]
    rel_delta: Optional[float]  # (candidate - baseline) / |baseline|
    rel_tol: float
    direction: str
    status: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "rel_delta": self.rel_delta,
            "rel_tol": None if math.isinf(self.rel_tol) else self.rel_tol,
            "direction": self.direction,
            "status": self.status,
        }


@dataclass
class PerfDiffReport:
    """Every compared key plus the regression verdict."""

    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_REGRESSION]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_IMPROVEMENT]

    @property
    def new_keys(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_NEW]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "compared": len(self.entries),
            "regressions": [e.to_dict() for e in self.regressions],
            "improvements": [e.to_dict() for e in self.improvements],
            "new_keys": [e.key for e in self.new_keys],
        }

    def render(self, show_ok: bool = False) -> str:
        lines: List[str] = []
        for entry in self.entries:
            if entry.status == STATUS_OK and not show_ok:
                continue
            if entry.status == STATUS_NEW:
                lines.append(f"NEW         {entry.key} = {entry.candidate}")
                continue
            if entry.status == STATUS_MISSING:
                lines.append(
                    f"MISSING     {entry.key} (baseline {entry.baseline})"
                )
                continue
            delta = (
                "n/a" if entry.rel_delta is None else f"{entry.rel_delta:+.2%}"
            )
            band = (
                "exempt" if math.isinf(entry.rel_tol)
                else f"±{entry.rel_tol:.0%} {entry.direction}"
            )
            lines.append(
                f"{entry.status.upper():<11} {entry.key}: "
                f"{entry.baseline} -> {entry.candidate} ({delta}, band {band})"
            )
        verdict = "OK" if self.ok else f"{len(self.regressions)} REGRESSION(S)"
        lines.append(
            f"perf-diff: {verdict} across {len(self.entries)} compared metrics"
        )
        return "\n".join(lines)


def _pick_tolerance(
    key: str, tolerances: Sequence[Tolerance], default_rel_tol: float
) -> Tolerance:
    for tolerance in tolerances:
        if tolerance.matches(key):
            return tolerance
    return Tolerance("*", default_rel_tol, BOTH)


def _classify(
    baseline: float, candidate: float, tolerance: Tolerance
) -> Tuple[Optional[float], str]:
    """(relative delta, status) for one present-in-both key."""
    if baseline == candidate or (math.isnan(baseline) and math.isnan(candidate)):
        return 0.0, STATUS_OK
    scale = max(abs(baseline), _ABS_FLOOR)
    rel = (candidate - baseline) / scale
    if math.isinf(tolerance.rel_tol):
        return rel, STATUS_OK
    if math.isnan(candidate):  # NaN compares false, so no band would flag it
        return rel, STATUS_REGRESSION
    worse = (
        (rel > tolerance.rel_tol and tolerance.direction != LOWER_IS_WORSE)
        or (rel < -tolerance.rel_tol and tolerance.direction != HIGHER_IS_WORSE)
    )
    if worse:
        return rel, STATUS_REGRESSION
    if abs(rel) > tolerance.rel_tol:
        return rel, STATUS_IMPROVEMENT
    return rel, STATUS_OK


def diff_metrics(
    baseline: Mapping[str, float],
    candidate: Mapping[str, float],
    tolerances: Sequence[Tolerance] = DEFAULT_TOLERANCES,
    default_rel_tol: float = DEFAULT_REL_TOL,
) -> PerfDiffReport:
    """Compare two flattened metric maps under the tolerance bands."""
    if not default_rel_tol >= 0:
        raise ConfigurationError(
            f"default tolerance must be non-negative, got {default_rel_tol!r}"
        )
    report = PerfDiffReport()
    for key in sorted(set(baseline) | set(candidate)):
        tolerance = _pick_tolerance(key, tolerances, default_rel_tol)
        base = baseline.get(key)
        cand = candidate.get(key)
        if base is None:
            report.entries.append(
                DiffEntry(key, None, cand, None, tolerance.rel_tol,
                          tolerance.direction, STATUS_NEW)
            )
            continue
        if cand is None:
            status = (
                STATUS_OK if math.isinf(tolerance.rel_tol) else STATUS_REGRESSION
            )
            report.entries.append(
                DiffEntry(key, base, None, None, tolerance.rel_tol,
                          tolerance.direction, status)
            )
            continue
        rel, status = _classify(base, cand, tolerance)
        report.entries.append(
            DiffEntry(key, base, cand, rel, tolerance.rel_tol,
                      tolerance.direction, status)
        )
    return report


def parse_tolerance_spec(spec: str) -> Tolerance:
    """Parse a CLI ``PATTERN=REL[:DIRECTION]`` tolerance override."""
    if "=" not in spec:
        raise ConfigurationError(
            f"tolerance spec {spec!r} must look like PATTERN=REL[:DIRECTION]"
        )
    pattern, _, rest = spec.partition("=")
    value, _, direction = rest.partition(":")
    try:
        rel_tol = float(value)
    except ValueError as exc:
        raise ConfigurationError(
            f"tolerance value in {spec!r} is not a number"
        ) from exc
    return Tolerance(pattern, rel_tol, direction or BOTH)


def diff_files(
    baseline_path: str,
    candidate_path: str,
    extra_tolerances: Sequence[Tolerance] = (),
    default_rel_tol: float = DEFAULT_REL_TOL,
) -> PerfDiffReport:
    """Load, flatten, and diff two JSON metric files.

    ``extra_tolerances`` take precedence over the defaults (first match
    wins), so CLI overrides can tighten or loosen any band.
    """
    tolerances = tuple(extra_tolerances) + DEFAULT_TOLERANCES
    return diff_metrics(
        load_metrics_file(baseline_path),
        load_metrics_file(candidate_path),
        tolerances=tolerances,
        default_rel_tol=default_rel_tol,
    )


def update_baseline(
    baseline_path: str,
    candidate_path: str,
    run_dir: Optional[str] = None,
    seed: int = 0,
) -> Optional[str]:
    """Rewrite the checked-in baseline JSON with the candidate document.

    The candidate is re-serialized (``indent=2, sort_keys=True``) so the
    checked-in file stays canonically formatted regardless of how the bench
    wrote it.  When ``run_dir`` is given, a run manifest recording the
    update (old and new flattened metrics, content digest of the new
    baseline) is registered there, so baseline bumps leave an audit trail
    instead of a bare diff; returns the manifest path, else ``None``.
    """
    old_metrics = (
        load_metrics_file(baseline_path)
        if os.path.exists(baseline_path)
        else {}
    )
    with open(candidate_path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{candidate_path} is not valid JSON: {exc}"
            ) from exc
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if run_dir is None:
        return None
    # Late import: repro.obs.runs imports this module.
    from .runs import RunManifest, RunRegistry

    manifest = RunManifest.build(
        label="perf-baseline-update",
        seed=seed,
        config={"baseline": baseline_path, "candidate": candidate_path},
        workload={"kind": "perf-diff-baseline-update"},
        metrics={
            "old": dict(old_metrics),
            "new": flatten_metrics(document),
        },
    )
    manifest.add_artifact("baseline", baseline_path)
    return RunRegistry(run_dir).register(manifest)
