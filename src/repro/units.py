"""Unit helpers and conversions used across the simulator.

Everything in the timing model is expressed in SI base units internally:
seconds for time, bytes for sizes, bytes/second for bandwidth, and
operations/second for compute throughput.  These helpers keep the call sites
readable (``4 * KiB``, ``gbps(1.0)``) and centralize the binary/decimal
convention: storage capacities use binary prefixes (KiB/MiB/GiB/TiB) while
bandwidths use the decimal convention the paper quotes (1 GB/s = 1e9 B/s).
"""

from __future__ import annotations

# --- Binary size prefixes (capacities) -------------------------------------
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# --- Decimal prefixes (bandwidths, rates) -----------------------------------
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

# --- Time -------------------------------------------------------------------
SECOND = 1.0
MILLISECOND = 1e-3
MICROSECOND = 1e-6
NANOSECOND = 1e-9


def gbps(value: float) -> float:
    """Bandwidth in GB/s (decimal) expressed in bytes/second."""
    return value * GB


def gflops(value: float) -> float:
    """Compute throughput in GFLOPS expressed in FLOP/s."""
    return value * 1e9


def gops(value: float) -> float:
    """Compute throughput in GOPS expressed in ops/s."""
    return value * 1e9


def us(value: float) -> float:
    """Microseconds expressed in seconds."""
    return value * MICROSECOND


def ms(value: float) -> float:
    """Milliseconds expressed in seconds."""
    return value * MILLISECOND


def ns(value: float) -> float:
    """Nanoseconds expressed in seconds."""
    return value * NANOSECOND


def transfer_time(num_bytes: float, bandwidth_bps: float) -> float:
    """Time in seconds to move ``num_bytes`` over a ``bandwidth_bps`` link.

    Zero bytes take zero time; a zero-bandwidth link with nonzero payload is a
    configuration error surfaced as ``ValueError`` rather than ``inf`` so that
    broken configs fail loudly in tests.
    """
    if num_bytes < 0:
        raise ValueError(f"negative transfer size: {num_bytes}")
    if num_bytes == 0:
        return 0.0
    if bandwidth_bps <= 0:
        raise ValueError(f"non-positive bandwidth: {bandwidth_bps}")
    return num_bytes / bandwidth_bps


def pretty_bytes(num_bytes: float) -> str:
    """Human-readable byte count using binary prefixes (``1.5 GiB``)."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(value) < 1024 or unit == "PiB":
            return f"{value:.4g} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    raise AssertionError("unreachable")
