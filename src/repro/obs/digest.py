"""Deterministic state digests and run-to-run divergence detection.

A simulation run is a pure function of its seed, so two runs of the same
scenario should walk *identical* internal states.  This module makes that
checkable: a :class:`DigestRecorder` samples a small counter snapshot every
``interval`` steps (event-queue clock, queue depths, completion counters),
canonicalizes it to JSON, and hashes it.  The resulting digest sequence is
tiny — O(run length / interval) — and rides along in the run manifest
(:mod:`repro.obs.runs`), where :func:`diverge_digest_entries` can answer the
question every cross-run comparison rests on: *are these two runs the same,
and if not, where did they first diverge?*

Digest payloads deliberately carry only simulated-clock quantities and
integer counters; wall time never enters a digest, so digests are
byte-identical across hosts for a given seed.  Each captured digest is also
emitted as an instant on the tracer's ``DIGEST_TRACK`` so Chrome-trace
exports show the checkpoints inline with the spans they bracket.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from . import hooks
from .tracing import DIGEST_TRACK, SpanRecord

#: Hex digits kept from the sha256 — plenty to make collisions between two
#: runs of the same scenario practically impossible, short enough to read.
DIGEST_HEX_CHARS = 16


def canonical_json(payload: object) -> str:
    """The canonical (sorted-key, compact) JSON form used for hashing."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"digest payload is not JSON-canonicalizable: {exc}"
        ) from exc


def state_digest(payload: object) -> str:
    """Short sha256 hex digest of a payload's canonical JSON form."""
    encoded = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:DIGEST_HEX_CHARS]


@dataclass(frozen=True)
class DigestEntry:
    """One captured state checkpoint.

    ``tick`` is the recorder's step count at capture (its position in the
    run), ``sim_time`` the simulated clock, ``state`` the counter snapshot
    the digest was computed over (kept so a divergence report can say *what*
    differed, not just *that* something did).
    """

    index: int
    tick: int
    sim_time: float
    digest: str
    state: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "tick": self.tick,
            "sim_time": self.sim_time,
            "digest": self.digest,
            "state": dict(self.state),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DigestEntry":
        return cls(
            index=int(data["index"]),  # type: ignore[arg-type]
            tick=int(data["tick"]),  # type: ignore[arg-type]
            sim_time=float(data["sim_time"]),  # type: ignore[arg-type]
            digest=str(data["digest"]),
            state=dict(data.get("state", {})),  # type: ignore[arg-type]
        )


class DigestRecorder:
    """Samples deterministic state digests every ``interval`` ticks.

    Call :meth:`tick` once per simulation step (event pop, tile, matrix
    cell) with the current sim time and the counter snapshot; every
    ``interval``-th call captures a digest.  :meth:`capture` forces one
    (used for the end-of-run summary digest so even a tail perturbation
    shorter than one interval is caught).
    """

    def __init__(self, interval: int = 256, label: str = "run") -> None:
        if interval < 1:
            raise ConfigurationError("digest interval must be >= 1")
        self.interval = interval
        self.label = label
        self.entries: List[DigestEntry] = []
        self._ticks = 0

    @property
    def ticks(self) -> int:
        return self._ticks

    def tick(self, sim_time: float, **state: object) -> Optional[DigestEntry]:
        """Count one step; capture a digest on every ``interval``-th call."""
        self._ticks += 1
        if self._ticks % self.interval:
            return None
        return self.capture(sim_time, **state)

    def capture(self, sim_time: float, **state: object) -> DigestEntry:
        """Unconditionally capture one digest at the current step count."""
        payload = {
            "label": self.label,
            "tick": self._ticks,
            "sim_time": float(sim_time),
            "state": state,
        }
        entry = DigestEntry(
            index=len(self.entries),
            tick=self._ticks,
            sim_time=float(sim_time),
            digest=state_digest(payload),
            state=dict(state),
        )
        self.entries.append(entry)
        tracer = hooks.current().tracer
        if tracer.enabled:
            tracer.instant(
                f"digest/{self.label}/{entry.index}",
                sim_time=entry.sim_time,
                track=DIGEST_TRACK,
                attrs={"digest": entry.digest, "tick": entry.tick},
            )
        return entry


@dataclass(frozen=True)
class Divergence:
    """The first digest mismatch between two runs."""

    index: int
    tick_a: Optional[int]
    tick_b: Optional[int]
    sim_time_a: Optional[float]
    sim_time_b: Optional[float]
    digest_a: Optional[str]
    digest_b: Optional[str]
    changed_keys: List[str]
    state_a: Dict[str, object]
    state_b: Dict[str, object]
    last_match_index: Optional[int]
    last_match_sim_time: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "tick_a": self.tick_a,
            "tick_b": self.tick_b,
            "sim_time_a": self.sim_time_a,
            "sim_time_b": self.sim_time_b,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "changed_keys": list(self.changed_keys),
            "state_a": dict(self.state_a),
            "state_b": dict(self.state_b),
            "last_match_index": self.last_match_index,
            "last_match_sim_time": self.last_match_sim_time,
        }


@dataclass
class DivergenceReport:
    """Outcome of comparing two runs' digest tracks."""

    run_a: str
    run_b: str
    compared: int
    total_a: int
    total_b: int
    divergence: Optional[Divergence] = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_a": self.run_a,
            "run_b": self.run_b,
            "compared": self.compared,
            "total_a": self.total_a,
            "total_b": self.total_b,
            "diverged": self.diverged,
            "divergence": (
                self.divergence.to_dict() if self.divergence else None
            ),
        }

    def render(self) -> str:
        lines = [
            f"divergence check: {self.run_a} vs {self.run_b} "
            f"({self.compared} digests compared; "
            f"{self.total_a} vs {self.total_b} recorded)"
        ]
        if self.divergence is None:
            lines.append("no divergence: digest tracks are identical")
            return "\n".join(lines)
        div = self.divergence
        if div.digest_a is None or div.digest_b is None:
            present = "a" if div.digest_b is None else "b"
            lines.append(
                f"DIVERGED at digest #{div.index}: run {present} has digests "
                "past the other's end (runs differ in length)"
            )
        else:
            lines.append(
                f"DIVERGED at digest #{div.index} "
                f"(sim t={div.sim_time_a:.6g}s vs {div.sim_time_b:.6g}s): "
                f"{div.digest_a} != {div.digest_b}"
            )
            if div.changed_keys:
                for key in div.changed_keys:
                    lines.append(
                        f"  {key}: {div.state_a.get(key)!r} "
                        f"-> {div.state_b.get(key)!r}"
                    )
        if div.last_match_index is not None:
            lines.append(
                f"  last matching digest: #{div.last_match_index} "
                f"at sim t={div.last_match_sim_time:.6g}s"
            )
        return "\n".join(lines)


def _changed_keys(
    state_a: Mapping[str, object], state_b: Mapping[str, object]
) -> List[str]:
    keys = sorted(set(state_a) | set(state_b))
    return [k for k in keys if state_a.get(k) != state_b.get(k)]


def diverge_digest_entries(
    entries_a: Sequence[DigestEntry],
    entries_b: Sequence[DigestEntry],
    run_a: str = "a",
    run_b: str = "b",
) -> DivergenceReport:
    """Find the first digest mismatch between two recorded digest tracks.

    Entries are compared pairwise in index order; the first differing digest
    (or, failing that, a length mismatch) is the divergence point.  Two
    empty tracks compare equal — a run that recorded no digests carries no
    divergence evidence either way.
    """
    compared = min(len(entries_a), len(entries_b))
    report = DivergenceReport(
        run_a=run_a,
        run_b=run_b,
        compared=compared,
        total_a=len(entries_a),
        total_b=len(entries_b),
    )
    last_match: Optional[DigestEntry] = None
    for i in range(compared):
        a, b = entries_a[i], entries_b[i]
        if a.digest == b.digest:
            last_match = a
            continue
        report.divergence = Divergence(
            index=i,
            tick_a=a.tick,
            tick_b=b.tick,
            sim_time_a=a.sim_time,
            sim_time_b=b.sim_time,
            digest_a=a.digest,
            digest_b=b.digest,
            changed_keys=_changed_keys(a.state, b.state),
            state_a=dict(a.state),
            state_b=dict(b.state),
            last_match_index=last_match.index if last_match else None,
            last_match_sim_time=last_match.sim_time if last_match else None,
        )
        return report
    if len(entries_a) != len(entries_b):
        longer = entries_a if len(entries_a) > len(entries_b) else entries_b
        extra = longer[compared]
        report.divergence = Divergence(
            index=compared,
            tick_a=extra.tick if longer is entries_a else None,
            tick_b=extra.tick if longer is entries_b else None,
            sim_time_a=extra.sim_time if longer is entries_a else None,
            sim_time_b=extra.sim_time if longer is entries_b else None,
            digest_a=extra.digest if longer is entries_a else None,
            digest_b=extra.digest if longer is entries_b else None,
            changed_keys=[],
            state_a=dict(extra.state) if longer is entries_a else {},
            state_b=dict(extra.state) if longer is entries_b else {},
            last_match_index=last_match.index if last_match else None,
            last_match_sim_time=last_match.sim_time if last_match else None,
        )
    return report


def spans_in_window(
    spans: Iterable[SpanRecord],
    start: Optional[float],
    end: Optional[float],
) -> List[SpanRecord]:
    """Sim-clocked spans overlapping ``[start, end]`` — divergence context.

    Given the span log of a diverged run (e.g. read back from a streamed
    JSONL artifact), returns the spans surrounding the first mismatched
    digest: everything whose sim window overlaps the interval between the
    last matching digest and the divergence point.
    """
    out: List[SpanRecord] = []
    for span in spans:
        if span.sim_start is None or span.sim_end is None:
            continue
        if start is not None and span.sim_end < start:
            continue
        if end is not None and span.sim_start > end:
            continue
        out.append(span)
    return out
