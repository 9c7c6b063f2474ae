"""Exception hierarchy for the ECSSD reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
distinguishing configuration mistakes from runtime device faults.  It also
holds :func:`candidate_ids`, the one check of candidate-id dtypes that the
screening and layout packages share.
"""

from __future__ import annotations

import numpy as np


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class CapacityError(ReproError):
    """A placement or write would exceed a device's capacity."""


class AddressError(ReproError):
    """A logical or physical address is malformed or unmapped."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ProtocolError(ReproError):
    """The ECSSD API was used out of order (e.g. inference before deploy)."""


class FormatError(ReproError):
    """CFP32 encoding/decoding received malformed data."""


class WorkloadError(ReproError):
    """A benchmark or synthetic workload request is invalid."""


class ObservabilityError(ReproError):
    """Telemetry recording or run-provenance bookkeeping failed.

    Raised when a bounded recorder would silently lose data (an in-memory
    tracer over its span cap with no streaming sink attached), a streaming
    sink is used after close, or a run manifest/registry lookup fails.
    """


class AblationError(ReproError):
    """An ablation campaign cannot be planned, executed, or scored.

    Raised for unknown runners, cell results that disagree with the
    spec-derived cell identity (a version or spec drift mid-campaign), and
    importance scoring over an incomplete result set.
    """


def candidate_ids(candidates: object) -> np.ndarray:
    """Candidate label/vector ids as int64; floats and bools are refused.

    Casting would truncate ``0.7`` to label 0, so a non-integer array raises
    :class:`WorkloadError` instead.  An empty array of any dtype is allowed
    (``np.asarray([])`` is float64).
    """
    array = np.asarray(candidates)
    if array.dtype.kind not in "iu" and array.size:
        raise WorkloadError(f"candidate ids must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)
