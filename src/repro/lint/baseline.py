"""Baseline (grandfathered-findings) support for reprolint.

A baseline file records findings that are understood and deliberately kept;
``repro lint`` exits zero when every current finding matches a baseline
entry.  Every entry **must** carry a non-empty ``justification`` — an entry
without one fails loading, so grandfathering is never silent.

Two entry formats coexist:

* **v2** (current) — entries key on ``(rule, symbol, message)`` where
  ``symbol`` is the fully-qualified enclosing symbol
  (``repro.cluster.engine.ClusterSimulator.run``).  Neither half moves when
  unrelated edits shift line numbers or the file is renamed in place, so
  refactors don't churn the baseline.  ``path``/``line``/``code`` are kept
  as human-facing hints only.
* **v1** (legacy, read-only) — entries key on ``(rule, path-suffix,
  code-or-line)``.  :meth:`Baseline.load` still accepts them so an old
  baseline keeps working; ``repro lint --update-baseline`` rewrites it in
  v2 carrying the justifications over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .findings import Finding

BASELINE_FILENAME = "reprolint-baseline.json"
_VERSION = 2


class BaselineError(ValueError):
    """The baseline file is malformed or has an unjustified entry."""


@dataclass
class BaselineEntry:
    """One grandfathered finding.

    A v2 entry has ``symbol`` and/or ``message`` set and matches on
    ``(rule, symbol, message)``; a legacy v1 entry has neither and matches
    on ``(rule, path-suffix, code-or-line)``.
    """

    rule: str
    path: str
    justification: str
    code: str = ""
    line: int = 0
    symbol: str = ""
    message: str = ""

    @property
    def is_v2(self) -> bool:
        return bool(self.symbol or self.message)

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        if self.is_v2:
            if self.symbol and self.symbol != finding.symbol:
                return False
            if self.message and self.message != finding.message:
                return False
            return True
        # v1 legacy matching: path suffix plus code text (or line fallback).
        if not _path_suffix_match(self.path, finding.path):
            return False
        if self.code:
            return self.code == finding.code
        return self.line == finding.line

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "symbol": self.symbol,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "justification": self.justification,
        }


def _path_suffix_match(a: str, b: str) -> bool:
    pa = Path(a).as_posix().lstrip("./")
    pb = Path(b).as_posix().lstrip("./")
    return pa == pb or pa.endswith("/" + pb) or pb.endswith("/" + pa)


@dataclass
class Baseline:
    """A set of grandfathered findings loaded from (or saved to) JSON."""

    entries: List[BaselineEntry] = field(default_factory=list)
    path: str = ""
    version: int = _VERSION

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise BaselineError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise BaselineError(f"{path}: expected an object with 'entries'")
        version = int(payload.get("version", 1))
        entries: List[BaselineEntry] = []
        for index, raw in enumerate(payload["entries"]):
            justification = str(raw.get("justification", "")).strip()
            if not justification or justification.startswith("TODO"):
                raise BaselineError(
                    f"{path}: entry {index} ({raw.get('rule')}, "
                    f"{raw.get('path')}) has no justification; every "
                    "grandfathered finding must say why it is kept"
                )
            entries.append(
                BaselineEntry(
                    rule=str(raw["rule"]),
                    path=str(raw.get("path", "")),
                    justification=justification,
                    code=str(raw.get("code", "")),
                    line=int(raw.get("line", 0)),
                    symbol=str(raw.get("symbol", "")),
                    message=str(raw.get("message", "")),
                )
            )
        return cls(entries=entries, path=str(path), version=version)

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "version": _VERSION,
            "entries": [entry.to_json() for entry in self.entries],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    def is_known(self, finding: Finding) -> bool:
        return any(entry.matches(finding) for entry in self.entries)

    def split(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Partition findings into ``(new, grandfathered)``."""
        new: List[Finding] = []
        known: List[Finding] = []
        for finding in findings:
            (known if self.is_known(finding) else new).append(finding)
        return new, known

    def unused_entries(self, findings: Sequence[Finding]) -> List[BaselineEntry]:
        """Entries that no current finding matches (stale grandfathering)."""
        return [
            entry
            for entry in self.entries
            if not any(entry.matches(f) for f in findings)
        ]

    @classmethod
    def from_findings(
        cls,
        findings: Sequence[Finding],
        justification: str = "TODO: justify this grandfathered finding",
    ) -> "Baseline":
        return cls(
            entries=[
                BaselineEntry(
                    rule=f.rule,
                    path=f.path,
                    justification=justification,
                    code=f.code,
                    line=f.line,
                    symbol=f.symbol,
                    message=f.message,
                )
                for f in findings
            ]
        )

    def migrated(self, findings: Sequence[Finding]) -> "Baseline":
        """A v2 baseline re-keyed against the current findings.

        Each finding that matches an existing entry (v1 or v2) becomes a v2
        entry carrying that entry's justification; entries no current
        finding matches are dropped (they were stale).  This is the engine
        behind ``repro lint --update-baseline``.
        """
        migrated: List[BaselineEntry] = []
        seen: set = set()
        for finding in findings:
            source: Optional[BaselineEntry] = None
            for entry in self.entries:
                if entry.matches(finding):
                    source = entry
                    break
            if source is None:
                continue
            key = (finding.rule, finding.symbol, finding.message)
            if key in seen:
                continue
            seen.add(key)
            migrated.append(
                BaselineEntry(
                    rule=finding.rule,
                    path=finding.path,
                    justification=source.justification,
                    code=finding.code,
                    line=finding.line,
                    symbol=finding.symbol,
                    message=finding.message,
                )
            )
        return Baseline(entries=migrated, path=self.path)


def discover_baseline(paths: Sequence[Union[str, Path]]) -> Union[Path, None]:
    """Find ``reprolint-baseline.json`` near the lint targets.

    Looks in the current directory, then each ancestor of the first target
    path — so ``python -m repro.lint src/repro`` run from the repo root finds
    the checked-in baseline without a flag.
    """
    candidates: List[Path] = [Path.cwd() / BASELINE_FILENAME]
    if paths:
        first = Path(paths[0]).resolve()
        for ancestor in [first, *first.parents]:
            candidates.append(ancestor / BASELINE_FILENAME)
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None
