"""Run provenance: manifests, a file-based registry, and run comparison.

Every simulated experiment in this repo is supposed to be a pure function
of its configuration and seed — but until a run is *named* by those inputs,
"same run" is a claim, not a check.  This module closes that gap:

* :class:`RunManifest` snapshots what a run *was*: a stable run ID derived
  from (canonical config digest, seed, workload spec, package version), the
  full parameter snapshot, an artifact index (paths plus content digests),
  summary metrics, and the deterministic digest track recorded by
  :class:`~repro.obs.digest.DigestRecorder`;
* :class:`RunRegistry` is the dumbest durable store that works: one JSON
  file per run under a ``runs/`` directory, listable and queryable, with no
  daemon and no lockfile — re-registering an identical run is a no-op
  overwrite because the run ID *is* the content identity;
* :func:`compare_runs` diffs two manifests' summary metrics through the
  perf-diff tolerance machinery; :func:`diverge_runs` replays their digest
  tracks through :func:`~repro.obs.digest.diverge_digest_entries` to find
  the first state mismatch.

Two runs with the same run ID should never diverge; a divergence between
them is a determinism bug by definition, which is exactly what CI's
determinism smoke job asserts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from .digest import (
    DigestEntry,
    DivergenceReport,
    diverge_digest_entries,
    state_digest,
)
from .perfdiff import (
    DEFAULT_REL_TOL,
    DEFAULT_TOLERANCES,
    PerfDiffReport,
    Tolerance,
    diff_metrics,
    flatten_metrics,
)

#: Manifest schema version — bump on incompatible field changes.
MANIFEST_SCHEMA = 1


def package_version() -> str:
    """The installed :mod:`repro` version, resolved lazily.

    Lazy because ``repro/__init__`` assigns ``__version__`` *after* importing
    the subpackages (including this one); a module-level import here would
    read it before it exists.
    """
    import repro

    return str(getattr(repro, "__version__", "0"))


def config_digest(config: Mapping[str, object]) -> str:
    """Digest of a parameter snapshot's canonical JSON form."""
    return state_digest(dict(config))


def file_digest(path: str) -> str:
    """Full sha256 of a file's bytes (artifact content identity)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def derive_run_id(
    config: Mapping[str, object],
    seed: int,
    workload: Mapping[str, object],
    version: Optional[str] = None,
) -> str:
    """Stable run identity: hash of (config digest, seed, workload, version).

    Two runs agree on their run ID exactly when they were launched from the
    same inputs — which is the precondition for expecting their digest
    tracks to match.
    """
    payload = {
        "config_digest": config_digest(config),
        "seed": int(seed),
        "workload": dict(workload),
        "version": version if version is not None else package_version(),
    }
    return state_digest(payload)


@dataclass
class RunManifest:
    """Everything needed to identify, re-launch, and compare one run."""

    run_id: str
    label: str
    seed: int
    config: Dict[str, object]
    workload: Dict[str, object]
    version: str
    metrics: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, Dict[str, str]] = field(default_factory=dict)
    digests: List[DigestEntry] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        label: str,
        seed: int,
        config: Mapping[str, object],
        workload: Mapping[str, object],
        metrics: Optional[Mapping[str, object]] = None,
        digests: Optional[Sequence[DigestEntry]] = None,
    ) -> "RunManifest":
        """Construct a manifest, deriving the run ID from its inputs."""
        version = package_version()
        return cls(
            run_id=derive_run_id(config, seed, workload, version),
            label=label,
            seed=int(seed),
            config=dict(config),
            workload=dict(workload),
            version=version,
            metrics=dict(metrics or {}),
            digests=list(digests or []),
        )

    @property
    def config_digest(self) -> str:
        return config_digest(self.config)

    def add_artifact(self, name: str, path: str) -> Dict[str, str]:
        """Index an artifact by name, recording its path and content digest."""
        if not os.path.exists(path):
            raise ObservabilityError(
                f"artifact {name!r} points at a missing file: {path}"
            )
        entry = {"path": path, "sha256": file_digest(path)}
        self.artifacts[name] = entry
        return entry

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "label": self.label,
            "seed": self.seed,
            "config": dict(self.config),
            "config_digest": self.config_digest,
            "workload": dict(self.workload),
            "version": self.version,
            "metrics": dict(self.metrics),
            "artifacts": {k: dict(v) for k, v in sorted(self.artifacts.items())},
            "digests": [entry.to_dict() for entry in self.digests],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        digests_raw = data.get("digests", [])
        artifacts_raw = data.get("artifacts", {})
        return cls(
            run_id=str(data["run_id"]),
            label=str(data.get("label", "")),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            config=dict(data.get("config", {})),  # type: ignore[arg-type]
            workload=dict(data.get("workload", {})),  # type: ignore[arg-type]
            version=str(data.get("version", "0")),
            metrics=dict(data.get("metrics", {})),  # type: ignore[arg-type]
            artifacts={
                str(name): {str(k): str(v) for k, v in entry.items()}
                for name, entry in dict(artifacts_raw).items()  # type: ignore[arg-type]
            },
            digests=[
                DigestEntry.from_dict(entry)
                for entry in list(digests_raw)  # type: ignore[arg-type]
            ],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ObservabilityError(f"no run manifest at {path}") from exc
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"run manifest {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def summary_line(self) -> str:
        """One human-scannable line for ``repro runs list``."""
        return (
            f"{self.run_id}  label={self.label or '-'}  seed={self.seed}  "
            f"digests={len(self.digests)}  artifacts={len(self.artifacts)}  "
            f"v{self.version}"
        )


class RunRegistry:
    """File-per-run manifest store under one directory.

    ``register`` writes ``<root>/<run_id>.json``; lookups re-read from disk
    so concurrent writers (two CI runs into the same artifact dir) compose —
    last identical write wins, and identical runs write identical bytes.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path_for(self, run_id: str) -> str:
        return os.path.join(self.root, f"{run_id}.json")

    def register(self, manifest: RunManifest) -> str:
        """Persist a manifest; returns the file path written."""
        path = self.path_for(manifest.run_id)
        manifest.save(path)
        return path

    def run_ids(self) -> List[str]:
        """All registered run IDs, sorted (stable listing order)."""
        ids = [
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        ]
        return sorted(ids)

    def get(self, run_id: str) -> RunManifest:
        """Load one manifest; unambiguous prefixes of a run ID also resolve."""
        path = self.path_for(run_id)
        if not os.path.exists(path):
            matches = [rid for rid in self.run_ids() if rid.startswith(run_id)]
            if len(matches) == 1:
                path = self.path_for(matches[0])
            elif len(matches) > 1:
                raise ObservabilityError(
                    f"run id prefix {run_id!r} is ambiguous in {self.root}: "
                    + ", ".join(matches)
                )
            else:
                raise ObservabilityError(
                    f"no run {run_id!r} registered under {self.root} "
                    f"(known: {', '.join(self.run_ids()) or 'none'})"
                )
        return RunManifest.load(path)

    def manifests(self) -> List[RunManifest]:
        return [self.get(run_id) for run_id in self.run_ids()]

    def query(
        self,
        label: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[RunManifest]:
        """Manifests filtered by exact label and/or seed, in run-ID order."""
        out = []
        for manifest in self.manifests():
            if label is not None and manifest.label != label:
                continue
            if seed is not None and manifest.seed != seed:
                continue
            out.append(manifest)
        return out


def compare_runs(
    a: RunManifest,
    b: RunManifest,
    tolerances: Sequence[Tolerance] = (),
    default_rel_tol: float = DEFAULT_REL_TOL,
) -> PerfDiffReport:
    """Diff two manifests' summary metrics under the perf-diff bands."""
    merged = tuple(tolerances) + DEFAULT_TOLERANCES
    return diff_metrics(
        flatten_metrics(dict(a.metrics)),
        flatten_metrics(dict(b.metrics)),
        tolerances=merged,
        default_rel_tol=default_rel_tol,
    )


def compare_many(
    baseline: RunManifest,
    candidates: Sequence[RunManifest],
    tolerances: Sequence[Tolerance] = (),
    default_rel_tol: float = DEFAULT_REL_TOL,
) -> List[Tuple[RunManifest, PerfDiffReport]]:
    """Diff each candidate against one shared baseline (N-way compare).

    Campaign cells all measure against the champion, so an N-way compare is
    N pairwise diffs anchored on the first run — returned in candidate
    order as ``(candidate, report)`` pairs.  Candidates with no summary
    metrics still produce a (trivially empty) report rather than raising;
    callers decide whether empty means "skip" or "fail".
    """
    return [
        (
            candidate,
            compare_runs(
                baseline,
                candidate,
                tolerances=tolerances,
                default_rel_tol=default_rel_tol,
            ),
        )
        for candidate in candidates
    ]


def diverge_runs(a: RunManifest, b: RunManifest) -> DivergenceReport:
    """First state divergence between two runs' recorded digest tracks."""
    return diverge_digest_entries(
        a.digests, b.digests, run_a=a.run_id, run_b=b.run_id
    )
