"""Deep pass: the package layering contract.

The architecture layers top-down — ``serve`` drives ``core``, which drives
``ssd``, which sits on ``units``/``config`` — and the contract only stays
true while no lower layer grows an import of a higher one.  This pass checks
every resolved import edge in the :class:`~repro.lint.project.ProjectGraph`
against an *explicit allowlist*: any cross-package edge not in the matrix is
a finding, so a new back-edge fails CI the moment it is written rather than
surfacing later as an import cycle or an untestable module.

The matrix is intentionally written down in full (not inferred from the
current tree): it is the documentation of record for "who may import whom",
mirrored as a table in DESIGN.md §8.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .findings import Finding
from .project import DeepRule, ProjectGraph

#: Units every package may import freely: leaf utilities with no sim state
#: (errors, units), the config layer that roots all seeds, observability
#: (importable everywhere by design — the zero-overhead guard keeps it out of
#: the hot path), and the lint package itself (the simsan runtime guard is
#: consumed by sim layers the same way obs is), and the lazy-export helper
#: every package ``__init__`` calls.
UNIVERSAL: Tuple[str, ...] = (
    "repro._lazy",
    "repro.errors",
    "repro.units",
    "repro.obs",
    "repro.config",
    "repro.lint",
)

#: Allowed cross-package import edges beyond :data:`UNIVERSAL`, keyed by the
#: importing unit.  ``repro`` is the package root (its ``__init__``);
#: top-level modules like ``repro.cli`` are their own unit.  Nothing may
#: import ``repro.cli`` — the CLI is the outermost shell.
ALLOWED_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "repro": ("repro.core",),
    "repro.__main__": ("repro.cli",),
    "repro.analysis": (
        "repro.baselines",
        "repro.cfp32",
        "repro.core",
        "repro.layout",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.ablate": (
        "repro.cfp32",
        "repro.cluster",
        "repro.core",
        "repro.faults",
        "repro.serve",
        "repro.workloads",
    ),
    "repro.baselines": ("repro.workloads",),
    "repro.cfp32": (),
    "repro.cli": (
        "repro",
        "repro.ablate",
        "repro.analysis",
        "repro.cluster",
        "repro.core",
        "repro.faults",
        "repro.serve",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.cluster": (
        "repro.faults",
        "repro.serve",
    ),
    "repro.config": (),
    "repro.core": (
        "repro.cfp32",
        "repro.layout",
        "repro.screening",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.errors": (),
    "repro.faults": (
        "repro",
        "repro.analysis",
        "repro.core",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.layout": (),
    "repro.lint": (),
    "repro.obs": ("repro", "repro.analysis"),
    "repro.screening": (),
    "repro.serve": (
        "repro.core",
        "repro.layout",
        "repro.workloads",
    ),
    "repro.ssd": (),
    "repro.units": (),
    "repro.workloads": (),
}


def allowed(importer: str, imported: str) -> bool:
    """True when the layering matrix permits ``importer`` -> ``imported``."""
    if imported in UNIVERSAL:
        return True
    return imported in ALLOWED_IMPORTS.get(importer, ())


class LayeringContract(DeepRule):
    name = "layering-contract"
    description = "cross-package import not in the layering allowlist"
    rationale = (
        "the serve → core → ssd → units layering is what keeps each layer "
        "independently testable and the determinism contract local; any new "
        "cross-package edge must be added to the matrix deliberately, in the "
        "same commit that justifies it"
    )

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        for (src, dst), edges in sorted(project.package_edges().items()):
            if allowed(src, dst):
                continue
            for edge in edges:
                info = project.modules[edge.module]
                yield self.finding(
                    info,
                    edge.node,
                    f"{src} may not import {dst} "
                    f"(imports {edge.target}); the layering matrix in "
                    f"repro.lint.layering has no such edge — add it "
                    f"deliberately or route through an allowed layer",
                )
