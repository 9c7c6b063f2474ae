"""Plain-text rendering of experiment outputs (the bench harness's tables)."""

from __future__ import annotations

from typing import List, Sequence

from ..errors import WorkloadError


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table; every row must match the header arity."""
    for row in rows:
        if len(row) != len(headers):
            raise WorkloadError(
                f"row {row!r} has {len(row)} cells, header has {len(headers)}"
            )
    cells: List[List[str]] = [[str(h) for h in headers]]
    cells += [[_fmt(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(rule)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_seconds(seconds: float) -> str:
    """Adaptive time formatting for report rows."""
    if seconds >= 1.0:
        return f"{seconds:.3g} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3g} us"
    return f"{seconds * 1e9:.3g} ns"
