"""ASCII figure rendering: horizontal bar charts for terminal reports.

The bench harness records tables; the examples additionally render the
paper's figures as horizontal ASCII bar charts so a terminal run *looks*
like the evaluation section.  Pure text, deterministic width, no plotting
dependencies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import WorkloadError

DEFAULT_WIDTH = 48


def bar_chart(
    items: Sequence[Tuple[str, float]],
    title: str = "",
    width: int = DEFAULT_WIDTH,
    unit: str = "",
    reference: Optional[float] = None,
) -> str:
    """Horizontal bar chart; bars scale to the max value.

    ``reference`` draws a marker column at that value (e.g. the paper's
    number) so measured-vs-published gaps are visible at a glance.
    """
    if not items:
        raise WorkloadError("bar_chart needs at least one item")
    if width < 8:
        raise WorkloadError("width must be >= 8")
    values = [v for _, v in items]
    if any(v < 0 for v in values):
        raise WorkloadError("bar_chart values must be non-negative")
    peak = max(max(values), reference or 0.0)
    if peak == 0:
        peak = 1.0
    label_width = max(len(label) for label, _ in items)
    lines: List[str] = []
    if title:
        lines.append(title)
    marker = None
    if reference is not None:
        marker = min(width - 1, int(round(reference / peak * width)))
    for label, value in items:
        filled = int(round(value / peak * width))
        bar = list("#" * filled + " " * (width - filled))
        if marker is not None and marker < len(bar):
            bar[marker] = "|" if bar[marker] == " " else "+"
        lines.append(
            f"{label.ljust(label_width)} {''.join(bar)} {value:.4g}{unit}"
        )
    if reference is not None:
        lines.append(
            f"{''.ljust(label_width)} {' ' * (marker or 0)}^ paper: {reference:.4g}{unit}"
        )
    return "\n".join(lines)
