"""The ranked :class:`AblationReport`: JSON + markdown emission.

One report = one campaign's champion metrics, per-cell metric table, and
the importance ranking from :mod:`repro.ablate.importance`.  Serialization
is canonical (sorted keys, indent 2, trailing newline) so a parallel run
and a serial run of the same spec write byte-identical files — the
determinism contract the engine's tests pin.

``BENCH_ablation.json`` in ``benchmarks/results/`` is this document.  It
holds only simulated fields, so CI regenerates it and requires it to match
the checked-in file byte for byte (``git diff --exit-code``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..errors import AblationError
from .importance import (
    ImportanceEntry,
    _score_entry,
    require_complete,
    score_importance,
)
from .matrix import RunMatrix


@dataclass
class AblationReport:
    """Everything a campaign produced, ready to serialize."""

    campaign: str
    runner: str
    mode: str
    seed: int
    champion_id: str
    champion_metrics: Dict[str, float]
    cells: Dict[str, Dict[str, float]]
    ranking: List[ImportanceEntry] = field(default_factory=list)
    resumed_cells: int = 0
    executed_cells: int = 0

    def entry(self, axis: str, level: str) -> ImportanceEntry:
        for candidate in self.ranking:
            if candidate.axis == axis and candidate.level == level:
                return candidate
        raise AblationError(
            f"report has no importance entry for {axis}={level}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "runner": self.runner,
            "mode": self.mode,
            "seed": self.seed,
            "champion_id": self.champion_id,
            "champion_metrics": dict(self.champion_metrics),
            "cells": {k: dict(v) for k, v in self.cells.items()},
            "ranking": [entry.to_dict() for entry in self.ranking],
            "resumed_cells": self.resumed_cells,
            "executed_cells": self.executed_cells,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_markdown(self) -> str:
        """The ranking as a markdown document (tables, most harmful first)."""
        lines = [
            f"# Ablation report: {self.campaign}",
            "",
            f"- runner: `{self.runner}`, mode: `{self.mode}`, "
            f"seed: {self.seed}",
            f"- cells: {len(self.cells)} "
            f"({self.executed_cells} executed, "
            f"{self.resumed_cells} resumed), champion `{self.champion_id}`",
            "",
            "## Champion metrics",
            "",
            "| metric | value |",
            "| --- | ---: |",
        ]
        for name in sorted(self.champion_metrics):
            lines.append(f"| {name} | {self.champion_metrics[name]:.6g} |")
        lines += [
            "",
            "## Component importance (most harmful ablation first)",
            "",
            "| rank | axis | champion | ablated to | harm | sign | pairs |",
            "| ---: | --- | --- | --- | ---: | ---: | ---: |",
        ]
        for entry in self.ranking:
            lines.append(
                f"| {entry.rank} | {entry.axis} | {entry.champion_level} "
                f"| {entry.level} | {entry.harm_score:+.4f} "
                f"| {entry.sign:+d} | {entry.pairs} |"
            )
        for entry in self.ranking:
            lines += [
                "",
                f"### {entry.axis}: {entry.champion_level} -> {entry.level}",
                "",
                "| metric | champion | ablated | direction | harm |",
                "| --- | ---: | ---: | --- | ---: |",
            ]
            for delta in entry.deltas:
                harm = "-" if delta.harm is None else f"{delta.harm:+.4f}"
                direction = delta.direction or "unscored"
                lines.append(
                    f"| {delta.metric} | {delta.champion:.6g} "
                    f"| {delta.ablated:.6g} | {direction} | {harm} |"
                )
        return "\n".join(lines) + "\n"


def build_report(
    matrix: RunMatrix,
    results: Mapping[str, Mapping[str, float]],
    resumed_cells: int = 0,
    executed_cells: int = 0,
    allow_partial: bool = False,
) -> AblationReport:
    """Assemble the ranked report from a matrix and its cell metrics.

    ``allow_partial`` skips cells absent from ``results`` (useful while a
    campaign is still running); the champion cell is always required,
    because every importance delta is measured against it.
    """
    spec = matrix.spec
    champion = matrix.champion
    if not allow_partial:
        require_complete(matrix, results)
    if champion.cell_id not in results:
        raise AblationError(
            f"campaign {spec.name!r} has no champion result "
            f"({champion.cell_id}); importance cannot be scored"
        )
    ranking = score_importance(matrix, results)
    if spec.mode == "ab" and not ranking:
        # Multi-axis challenger: no single-axis matched pair exists, so
        # score the challenger cell against the champion directly.
        entry = _ab_entry(matrix, results)
        if entry is not None:
            entry.rank = 1
            ranking = [entry]
    ordered_cells = {
        cell.cell_id: {k: float(v) for k, v in results[cell.cell_id].items()}
        for cell in matrix.cells
        if cell.cell_id in results
    }
    return AblationReport(
        campaign=spec.name,
        runner=spec.runner,
        mode=spec.mode,
        seed=spec.seed,
        champion_id=champion.cell_id,
        champion_metrics=dict(ordered_cells[champion.cell_id]),
        cells=ordered_cells,
        ranking=ranking,
        resumed_cells=resumed_cells,
        executed_cells=executed_cells,
    )


def _ab_entry(
    matrix: RunMatrix, results: Mapping[str, Mapping[str, float]]
) -> Optional[ImportanceEntry]:
    challenger_cells = [c for c in matrix.cells if not c.is_champion]
    if not challenger_cells:
        return None
    challenger = challenger_cells[0]
    diff = sorted(
        k
        for k, v in challenger.assignment.items()
        if matrix.champion.assignment.get(k) != v
    )
    entry = _score_entry(
        axis_name="+".join(diff),
        level="challenger",
        champion_level="champion",
        pairs=[(matrix.champion, challenger)],
        results=results,
    )
    return entry
