"""Finding and severity primitives shared by the reprolint engine and rules.

A :class:`Finding` is one diagnostic anchored to a file/line/column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict


class Severity(enum.IntEnum):
    """How bad a finding is.  Any severity fails the lint run; the level is
    informational so downstream tooling can triage."""

    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.severity.label}: "
            f"{self.message} [{self.rule}]"
        )

    def format_github(self) -> str:
        """GitHub Actions workflow-command form (inline PR annotations)."""
        level = "error" if self.severity is Severity.ERROR else "warning"
        # Workflow-command property values must not contain newlines or the
        # :: delimiter; findings never do, but stay defensive.
        message = self.message.replace("\n", " ").replace("::", ":")
        return (
            f"::{level} file={self.path},line={self.line},col={self.col},"
            f"title=reprolint {self.rule}::{message}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.label,
            "message": self.message,
        }
