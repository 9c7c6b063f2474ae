"""Fault configuration and the seeded, replayable :class:`FaultPlan`.

A :class:`FaultConfig` names every knob of the reliability subsystem — the
RBER surface, the ECC ladder, and the injectable component-fault classes —
and :meth:`FaultConfig.disabled` is the zero-overhead default the rest of
the stack sees when no faults are requested.

A :class:`FaultPlan` is the *materialized* schedule of component faults for
one run: channel stuck-offline windows, DRAM bit flips in the 4-bit
screener table, and command timeouts.  Everything stochastic is drawn once,
at plan-build time, from ``np.random.default_rng((seed, salt))`` streams
(the repo's seeded-RNG idiom), so two plans built from the same config are
bit-identical and a run can be replayed exactly.  Per-event decisions that
must not depend on call order (weak-page selection, timeout ordinals) use a
Knuth multiplicative hash of the entity id instead of RNG state, which
keeps them stable under any interleaving of reads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..units import us
from .model import EccConfig

# Knuth's multiplicative hash constant (2^32 / golden ratio) — a *hash*,
# not an RNG: per-entity uniforms derived from it are independent of call
# order, which makes weak-page and timeout selections replay-stable.
_HASH_MULTIPLIER = 2654435761
_HASH_MODULUS = 2 ** 32

# Salt values for the independent seeded RNG sub-streams of one plan.
_SALT_OFFLINE = 1
_SALT_DRAM = 2
# (salt 3 is reserved by FaultPlan.command_times_out's hash stream)
_SALT_NODE_CRASH = 4
_SALT_PARTITION = 5
_SALT_SLOW_NODE = 6


def hash_uniform(entity: int, seed: int, salt: int = 0) -> float:
    """Deterministic uniform in [0, 1) for an entity id (order-independent)."""
    mixed = (entity * _HASH_MULTIPLIER + seed * 40503 + salt * 69069) % _HASH_MODULUS
    return mixed / _HASH_MODULUS


@dataclass(frozen=True)
class FaultConfig:
    """Every knob of the fault-injection and reliability subsystem.

    ``enabled=False`` (via :meth:`disabled`) turns the whole subsystem into
    a no-op: no call site pays any cost and all timings are bit-identical
    to a build without the subsystem.  ``rber_scale`` is the sweep axis the
    fault matrix and the reliability bench walk; ``mean_pe_cycles`` and
    ``deployment_age`` set the wear/retention operating point the analytic
    pipeline assumes (the event-driven path reads real per-block wear from
    the FTL instead).
    """

    enabled: bool = True
    seed: int = 0
    # --- RBER surface ------------------------------------------------------
    rber_base: float = 1e-4
    rber_scale: float = 1.0
    pe_ref: float = 3000.0
    pe_exp: float = 2.0
    retention_ref: float = 90.0 * 24.0 * 3600.0
    mean_pe_cycles: float = 0.0
    deployment_age: float = 0.0
    # --- ECC ladder --------------------------------------------------------
    ecc: EccConfig = field(default_factory=EccConfig)
    # --- component faults --------------------------------------------------
    offline_windows: int = 0  # channel stuck-offline windows over the horizon
    offline_duration: float = 2e-3  # seconds per window
    dram_flips: int = 0  # bit flips in the 4-bit screener table
    timeout_rate: float = 0.0  # fraction of flash commands that time out once
    # --- controller resilience policy -------------------------------------
    max_command_retries: int = 3
    retry_backoff: float = us(100.0)
    timeout_penalty: float = us(500.0)
    # --- plan horizon ------------------------------------------------------
    horizon: float = 1.0  # simulated seconds the component-fault plan covers

    def __post_init__(self) -> None:
        if self.rber_base <= 0 or self.rber_scale < 0:
            raise ConfigurationError("rber_base must be positive, rber_scale >= 0")
        if self.pe_ref <= 0 or self.retention_ref <= 0:
            raise ConfigurationError("pe_ref/retention_ref must be positive")
        if self.mean_pe_cycles < 0 or self.deployment_age < 0:
            raise ConfigurationError("wear/retention operating point cannot be negative")
        if self.offline_windows < 0 or self.dram_flips < 0:
            raise ConfigurationError("fault counts cannot be negative")
        if self.offline_duration < 0:
            raise ConfigurationError("offline_duration cannot be negative")
        if not (0.0 <= self.timeout_rate < 1.0):
            raise ConfigurationError("timeout_rate must be in [0, 1)")
        if self.max_command_retries < 0:
            raise ConfigurationError("max_command_retries cannot be negative")
        if self.retry_backoff < 0 or self.timeout_penalty < 0:
            raise ConfigurationError("retry timing cannot be negative")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")

    @classmethod
    def disabled(cls) -> "FaultConfig":
        """The zero-overhead default: the subsystem is completely inert."""
        return cls(enabled=False)


@dataclass(frozen=True)
class OfflineWindow:
    """One component-fault window during which a channel is stuck offline."""

    channel: int
    start: float
    end: float

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


class FaultPlan:
    """The materialized, replayable fault schedule for one run."""

    def __init__(
        self,
        config: FaultConfig,
        windows: List[OfflineWindow],
        dram_flip_fractions: np.ndarray,
    ) -> None:
        self.config = config
        self.windows: List[OfflineWindow] = sorted(
            windows, key=lambda w: (w.channel, w.start)
        )
        self.dram_flip_fractions = np.sort(
            np.asarray(dram_flip_fractions, dtype=np.float64)
        )
        # Per-channel sorted window lists for O(log n) release queries.
        self._per_channel: dict = {}
        for window in self.windows:
            self._per_channel.setdefault(window.channel, []).append(window)
        self._starts = {
            channel: [w.start for w in ws]
            for channel, ws in sorted(self._per_channel.items())
        }

    @classmethod
    def build(cls, config: FaultConfig, channels: int) -> "FaultPlan":
        """Materialize the component-fault schedule from the seeded RNG."""
        if channels <= 0:
            raise ConfigurationError("channels must be positive")
        windows: List[OfflineWindow] = []
        if config.offline_windows > 0:
            rng = np.random.default_rng((config.seed, _SALT_OFFLINE))
            chans = rng.integers(0, channels, size=config.offline_windows)
            starts = rng.uniform(0.0, config.horizon, size=config.offline_windows)
            for channel, start in zip(chans.tolist(), starts.tolist()):
                windows.append(
                    OfflineWindow(
                        channel=int(channel),
                        start=float(start),
                        end=float(start) + config.offline_duration,
                    )
                )
        if config.dram_flips > 0:
            rng = np.random.default_rng((config.seed, _SALT_DRAM))
            fractions = rng.uniform(0.0, 1.0, size=config.dram_flips)
        else:
            fractions = np.empty(0, dtype=np.float64)
        return cls(config, windows, fractions)

    # --- channel offline windows ------------------------------------------
    def offline_release(self, channel: int, time: float) -> float:
        """When ``channel`` is next usable at or after ``time``.

        Returns ``time`` itself when no window covers it; otherwise the end
        of the covering window (windows never extend each other: a command
        released at a window's end re-checks against later windows only).
        """
        windows = self._per_channel.get(channel)
        if not windows:
            return time
        starts = self._starts[channel]
        release = time
        index = bisect.bisect_right(starts, release) - 1
        while index >= 0 and index < len(windows):
            window = windows[index]
            if window.covers(release):
                release = window.end
                index = bisect.bisect_right(starts, release) - 1
            else:
                break
        return release

    # --- DRAM bit flips ----------------------------------------------------
    def flipped_labels(self, num_labels: int) -> np.ndarray:
        """Labels whose 4-bit screener row a DRAM flip corrupted (sorted)."""
        if num_labels <= 0 or self.dram_flip_fractions.size == 0:
            return np.empty(0, dtype=np.int64)
        labels = np.minimum(
            (self.dram_flip_fractions * num_labels).astype(np.int64),
            num_labels - 1,
        )
        return np.unique(labels)

    # --- command timeouts --------------------------------------------------
    def command_times_out(self, ordinal: int) -> bool:
        """Whether flash command ``ordinal`` suffers a (transient) timeout."""
        rate = self.config.timeout_rate
        if rate <= 0.0:
            return False
        return hash_uniform(ordinal, self.config.seed, salt=3) < rate

    def to_dict(self) -> dict:
        """JSON-safe summary (sorted, no wall-clock content)."""
        return {
            "offline_windows": [
                {"channel": w.channel, "start": w.start, "end": w.end}
                for w in self.windows
            ],
            "dram_flips": int(self.dram_flip_fractions.size),
            "timeout_rate": self.config.timeout_rate,
            "seed": self.config.seed,
        }


# ---------------------------------------------------------------------------
# Cluster-level (node/interconnect) fault classes
# ---------------------------------------------------------------------------

# State-change edge kinds emitted by :meth:`ClusterFaultPlan.edges`, in
# tie-break order at equal timestamps: a node must come *up* before a
# same-instant crash elsewhere is processed, so recovery never races a
# re-dispatch decision made in the same event-loop pop.
EDGE_NODE_UP = 0
EDGE_NODE_DOWN = 1
EDGE_PARTITION_HEAL = 2
EDGE_PARTITION_START = 3
EDGE_SLOW_END = 4
EDGE_SLOW_START = 5


@dataclass(frozen=True)
class ClusterFaultConfig:
    """Knobs for the fleet-level fault classes the cluster simulator injects.

    Counts say *how many* windows of each class the plan materializes over
    ``horizon`` simulated seconds; durations and the slow-node ``slow_factor``
    say how bad each window is.  :meth:`disabled` is the inert default; the
    ``repro cluster`` CLI builds one from a ``--fault-plan`` spec string via
    :meth:`from_spec`.

    Float fields are checked with negated comparisons, so a NaN is rejected
    here, at construction, rather than silently dropping windows or failing
    partway through a run.
    """

    enabled: bool = True
    seed: int = 0
    node_crashes: int = 0
    crash_duration: float = 0.5
    partitions: int = 0
    partition_duration: float = 0.25
    slow_nodes: int = 0
    slow_duration: float = 1.0
    slow_factor: float = 3.0
    horizon: float = 10.0

    def __post_init__(self) -> None:
        if self.node_crashes < 0 or self.partitions < 0 or self.slow_nodes < 0:
            raise ConfigurationError("cluster fault counts cannot be negative")
        if not 0 <= self.crash_duration < math.inf:
            raise ConfigurationError("crash_duration must be non-negative and finite")
        if not 0 <= self.partition_duration < math.inf:
            raise ConfigurationError(
                "partition_duration must be non-negative and finite"
            )
        if not self.slow_duration >= 0:
            raise ConfigurationError("slow_duration cannot be negative")
        if not 1.0 <= self.slow_factor < math.inf:
            raise ConfigurationError(
                "slow_factor must be >= 1 (1 = no brownout) and finite"
            )
        if not 0 < self.horizon < math.inf:
            raise ConfigurationError("horizon must be positive and finite")

    @classmethod
    def disabled(cls) -> "ClusterFaultConfig":
        """The zero-overhead default: no cluster faults are materialized."""
        return cls(enabled=False)

    @classmethod
    def from_spec(
        cls, spec: str, seed: int, horizon: float
    ) -> "ClusterFaultConfig":
        """Parse a ``node-crash=2,partition=1,slow-node=2`` CLI spec string."""
        counts = {"node-crash": 0, "partition": 0, "slow-node": 0}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(
                    f"bad fault-plan entry {part!r}: expected class=count"
                )
            name, _, raw = part.partition("=")
            name = name.strip()
            if name not in counts:
                raise ConfigurationError(
                    f"unknown cluster fault class {name!r}; "
                    f"expected one of {sorted(counts)}"
                )
            try:
                counts[name] = int(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad count for fault class {name!r}: {raw!r}"
                ) from exc
        return cls(
            seed=seed,
            horizon=horizon,
            node_crashes=counts["node-crash"],
            partitions=counts["partition"],
            slow_nodes=counts["slow-node"],
        )


@dataclass(frozen=True)
class NodeCrashWindow:
    """One window during which a data node is down (crash-stop, then reboot)."""

    node: int
    start: float
    end: float

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class PartitionWindow:
    """One window during which two racks cannot reach each other.

    ``rack_a < rack_b`` always; nodes inside the same rack stay connected,
    and racks outside the pair are unaffected (single-link failure model).
    """

    rack_a: int
    rack_b: int
    start: float
    end: float

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end

    def severs(self, rack_x: int, rack_y: int) -> bool:
        """Whether this window cuts the ``rack_x`` <-> ``rack_y`` link."""
        lo, hi = (rack_x, rack_y) if rack_x <= rack_y else (rack_y, rack_x)
        return (lo, hi) == (self.rack_a, self.rack_b)


@dataclass(frozen=True)
class SlowNodeWindow:
    """One brownout window multiplying a data node's service time."""

    node: int
    start: float
    end: float
    factor: float

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


class ClusterFaultPlan:
    """The materialized, replayable fleet-level fault schedule for one run.

    Built once from seeded ``default_rng((seed, salt))`` streams (one salt
    per fault class), so two plans from the same config are bit-identical
    and a cluster run — including its failover timeline — replays exactly.
    """

    def __init__(
        self,
        config: ClusterFaultConfig,
        crashes: List[NodeCrashWindow],
        partitions: List[PartitionWindow],
        slow_windows: List[SlowNodeWindow],
    ) -> None:
        self.config = config
        self.crashes = sorted(crashes, key=lambda w: (w.start, w.node))
        self.partitions = sorted(
            partitions, key=lambda w: (w.start, w.rack_a, w.rack_b)
        )
        self.slow_windows = sorted(slow_windows, key=lambda w: (w.start, w.node))
        #: data nodes with at least one brownout window; every other node's
        #: :meth:`slowdown` is 1.0 at all times
        self.slowed_nodes = frozenset(w.node for w in self.slow_windows)

    @classmethod
    def build(
        cls, config: ClusterFaultConfig, nodes: int, racks: int
    ) -> "ClusterFaultPlan":
        """Materialize the fleet fault schedule from the seeded RNG streams."""
        if nodes <= 0 or racks <= 0:
            raise ConfigurationError("nodes and racks must be positive")
        if not config.enabled:
            return cls(config, [], [], [])
        crashes: List[NodeCrashWindow] = []
        if config.node_crashes > 0:
            rng = np.random.default_rng((config.seed, _SALT_NODE_CRASH))
            victims = rng.integers(0, nodes, size=config.node_crashes)
            starts = rng.uniform(0.0, config.horizon, size=config.node_crashes)
            for node, start in zip(victims.tolist(), starts.tolist()):
                crashes.append(
                    NodeCrashWindow(
                        node=int(node),
                        start=float(start),
                        end=float(start) + config.crash_duration,
                    )
                )
        partitions: List[PartitionWindow] = []
        if config.partitions > 0:
            if racks < 2:
                raise ConfigurationError(
                    "interconnect partitions need at least 2 racks"
                )
            rng = np.random.default_rng((config.seed, _SALT_PARTITION))
            first = rng.integers(0, racks, size=config.partitions)
            second = rng.integers(0, racks - 1, size=config.partitions)
            starts = rng.uniform(0.0, config.horizon, size=config.partitions)
            for a, b, start in zip(
                first.tolist(), second.tolist(), starts.tolist()
            ):
                other = int(b) + (1 if int(b) >= int(a) else 0)
                lo, hi = sorted((int(a), other))
                partitions.append(
                    PartitionWindow(
                        rack_a=lo,
                        rack_b=hi,
                        start=float(start),
                        end=float(start) + config.partition_duration,
                    )
                )
        slow_windows: List[SlowNodeWindow] = []
        if config.slow_nodes > 0:
            rng = np.random.default_rng((config.seed, _SALT_SLOW_NODE))
            victims = rng.integers(0, nodes, size=config.slow_nodes)
            starts = rng.uniform(0.0, config.horizon, size=config.slow_nodes)
            for node, start in zip(victims.tolist(), starts.tolist()):
                slow_windows.append(
                    SlowNodeWindow(
                        node=int(node),
                        start=float(start),
                        end=float(start) + config.slow_duration,
                        factor=config.slow_factor,
                    )
                )
        return cls(config, crashes, partitions, slow_windows)

    # --- point-in-time queries ---------------------------------------------
    def node_alive(self, node: int, time: float) -> bool:
        """Whether data node ``node`` is up at ``time``."""
        return not any(w.node == node and w.covers(time) for w in self.crashes)

    def slowdown(self, node: int, time: float) -> float:
        """Brownout multiplier (>= 1) on ``node``'s service time at ``time``."""
        factor = 1.0
        for window in self.slow_windows:
            if window.node == node and window.covers(time):
                factor = max(factor, window.factor)
        return factor

    def reachable(self, rack_x: int, rack_y: int, time: float) -> bool:
        """Whether racks ``rack_x`` and ``rack_y`` can talk at ``time``."""
        if rack_x == rack_y:
            return True
        return not any(
            w.severs(rack_x, rack_y) and w.covers(time) for w in self.partitions
        )

    # --- event-loop integration --------------------------------------------
    def edges(self) -> List[tuple]:
        """All state-change edges as sorted ``(time, kind, payload)`` tuples.

        Kinds are the ``EDGE_*`` constants; ties at one timestamp resolve
        recovery-before-failure (up < down, heal < start) so a same-instant
        crash never observes a stale down state.  Payloads are ints (node)
        or ``(rack_a, rack_b)`` / ``(node, factor)`` tuples.
        """
        edges: List[tuple] = []
        for crash in self.crashes:
            edges.append((crash.start, EDGE_NODE_DOWN, crash.node))
            edges.append((crash.end, EDGE_NODE_UP, crash.node))
        for part in self.partitions:
            edges.append((part.start, EDGE_PARTITION_START, (part.rack_a, part.rack_b)))
            edges.append((part.end, EDGE_PARTITION_HEAL, (part.rack_a, part.rack_b)))
        for slow in self.slow_windows:
            edges.append((slow.start, EDGE_SLOW_START, (slow.node, slow.factor)))
            edges.append((slow.end, EDGE_SLOW_END, (slow.node, slow.factor)))
        return sorted(edges, key=lambda e: (e[0], e[1], repr(e[2])))

    def to_dict(self) -> dict:
        """JSON-safe summary (sorted, no wall-clock content)."""
        return {
            "node_crashes": [
                {"node": w.node, "start": w.start, "end": w.end}
                for w in self.crashes
            ],
            "partitions": [
                {
                    "rack_a": w.rack_a,
                    "rack_b": w.rack_b,
                    "start": w.start,
                    "end": w.end,
                }
                for w in self.partitions
            ],
            "slow_nodes": [
                {
                    "node": w.node,
                    "start": w.start,
                    "end": w.end,
                    "factor": w.factor,
                }
                for w in self.slow_windows
            ],
            "seed": self.config.seed,
        }
