"""Per-channel flash controller: command queues and die interleaving.

The controller receives ``(kind, address)`` command batches (a
:class:`FlashCommand` is one) routed by the device, issues them to its
channel, and reports per-batch completion times.  Reads to
different dies overlap their sense phases; the channel bus serializes the
data-out phases.  This is exactly the mechanism behind the paper's
channel-level bandwidth utilization numbers: a channel's finish time for a
tile is the makespan of the commands queued on it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from ..errors import SimulationError
from ..obs.hooks import current
from .channel import Channel
from .geometry import FlashGeometry, PhysicalAddress

logger = logging.getLogger(__name__)


class CommandKind(enum.Enum):
    """Page-level flash command types."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


_READ = CommandKind.READ
_PROGRAM = CommandKind.PROGRAM
_ERASE = CommandKind.ERASE


class _CommandFields(NamedTuple):
    kind: CommandKind
    address: PhysicalAddress


class FlashCommand(_CommandFields):
    """One page-level flash command addressed to a physical page.

    An immutable ``(kind, address)`` tuple.  When constructed with a
    ``geometry``, the address is validated against the device fan-out
    immediately (raising :class:`~repro.errors.AddressError` naming the
    offending field) instead of first failing inside
    :meth:`FlashController.submit`.  The geometry is not stored:
    :meth:`FlashController.submit` checks every address against its own
    geometry regardless, so the device's page path routes plain
    ``(kind, address)`` pairs and builds no command objects.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: CommandKind,
        address: PhysicalAddress,
        geometry: Optional[FlashGeometry] = None,
    ) -> "FlashCommand":
        if geometry is not None:
            geometry.check(address)
        return tuple.__new__(cls, (kind, address))


@dataclass
class BatchResult:
    """Timing of one command batch on one channel.

    ``failed`` lists the addresses whose reads came back uncorrectable
    (empty unless fault injection is active) — the die and bus time was
    still spent, but the data is lost to the caller.
    """

    channel: int
    commands: int
    start: float
    finish: float
    failed: List[PhysicalAddress] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.finish - self.start


class FlashController:
    """Controller for a single channel.

    ``submit`` issues commands in order but exploits die-level parallelism:
    each command's sense begins as soon as its die is free, and transfers
    serialize on the bus.  The FTL's per-command firmware overhead is added as
    an issue-side delay so that command setup costs scale with queue depth.
    """

    def __init__(
        self,
        channel: Channel,
        geometry: FlashGeometry,
        command_overhead: float = 0.0,
    ) -> None:
        self.channel = channel
        self.geometry = geometry
        self.command_overhead = command_overhead
        self.commands_issued = 0
        self._dies_per_package = geometry.config.dies_per_package

    def submit(self, now: float, commands: Iterable[FlashCommand]) -> BatchResult:
        """Issue ``commands`` starting at ``now``; returns batch timing.

        ``commands`` are ``(kind, address)`` pairs; a :class:`FlashCommand`
        is one.  Every address is checked against the geometry and this
        channel before the first command is issued, so a bad command raises
        with the channel, its dies and ``commands_issued`` untouched.
        """
        commands = list(commands)
        geometry = self.geometry
        channel = self.channel
        channel_index = channel.index
        for _kind, address in commands:
            geometry.check(address)
            if address.channel != channel_index:
                raise SimulationError(
                    f"command for channel {address.channel} sent to controller"
                    f" of channel {channel_index}"
                )
        hooks = current()
        registry = hooks.registry
        injector = hooks.injector
        # Flags are read once per batch: a toggle applies from the next submit.
        metrics_on = registry.enabled
        faults_on = injector.enabled
        kind_counts: Dict[CommandKind, int] = {}
        latency_histogram: Any = (
            registry.histogram(
                "flash_command_latency_seconds",
                "per-command flash latency, by channel and kind",
            )
            if metrics_on
            else None
        )
        start = now
        finish = now
        issue_time = now
        failed: List[PhysicalAddress] = []
        overhead = self.command_overhead
        dies_per_package = self._dies_per_package
        read_page = channel.read_page
        program_page = channel.program_page
        for kind, address in commands:
            die_index = address.package * dies_per_package + address.die
            issue_time += overhead
            extra_sense = 0.0
            if faults_on:
                issue_time = self._fault_delays(injector, issue_time)
                if kind is _READ:
                    outcome = injector.read_outcome(issue_time, address)
                    extra_sense = outcome.extra_latency
                    if not outcome.correctable:
                        failed.append(address)
                elif kind is _PROGRAM:
                    injector.on_program(address, issue_time)
            if kind is _READ:
                end = read_page(issue_time, die_index, extra_sense)[1]
            elif kind is _PROGRAM:
                end = program_page(issue_time, die_index)[1]
            elif kind is _ERASE:
                end = channel.erase_block(issue_time, die_index)[1]
            else:  # pragma: no cover - enum is exhaustive
                raise SimulationError(f"unknown command kind {kind!r}")
            if end > finish:
                finish = end
            if metrics_on:
                kind_counts[kind] = kind_counts.get(kind, 0) + 1
                latency_histogram.observe(
                    end - issue_time, channel=channel_index, kind=kind.value
                )
        count = len(commands)
        self.commands_issued += count
        if kind_counts:
            counter = registry.counter(
                "flash_commands_total",
                "flash commands issued by the event simulator",
            )
            for kind, kind_count in kind_counts.items():
                counter.inc(
                    kind_count, channel=self.channel.index, kind=kind.value
                )
            logger.debug(
                "channel %d: %d commands in [%.6f, %.6f]",
                self.channel.index, count, start, finish,
            )
        return BatchResult(
            channel=self.channel.index,
            commands=count,
            start=start,
            finish=finish,
            failed=failed,
        )

    def _fault_delays(self, injector, issue_time: float) -> float:
        """Apply offline windows and bounded timeout retries to one command.

        The retry policy is deterministic and *bounded* (the no-hang
        invariant): a timed-out command pays ``timeout_penalty`` plus a
        linearly growing ``retry_backoff`` per attempt, and after
        ``max_command_retries`` attempts the controller escalates to a
        reset and forces the operation through rather than looping.
        """
        release = injector.offline_release(self.channel.index, issue_time)
        if release > issue_time:
            self.channel.block_until(release)
            issue_time = release
        config = injector.config
        for attempt in range(config.max_command_retries + 1):
            if not injector.next_command_times_out():
                break
            if attempt >= config.max_command_retries:
                break  # retry budget exhausted: escalate (reset), proceed
            issue_time += config.timeout_penalty + (attempt + 1) * config.retry_backoff
            release = injector.offline_release(self.channel.index, issue_time)
            if release > issue_time:
                self.channel.block_until(release)
                issue_time = release
        return issue_time

    def _local_die(self, address: PhysicalAddress) -> int:
        return address.package * self._dies_per_package + address.die

