"""Flash command tracing: observability for the event simulator.

Wraps per-channel controllers so every submitted command is logged as a
:class:`TraceEvent` with its issue time, channel, die, kind, and completion.
The trace supports the analyses MQSim users run: per-channel/die busy
timelines, queue-depth statistics, and gap analysis (the idle bubbles that
scheduling policies fight).  Tests use it to *prove* timing properties
instead of inferring them from aggregate counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from .controller import BatchResult, CommandKind, FlashCommand, FlashController


@dataclass(frozen=True)
class TraceEvent:
    """One flash command's lifetime.

    ``queue_time`` / ``service_time`` / ``transfer_time`` decompose the
    latency for the critical-path profiler: waiting (busy die or bus,
    firmware overhead, fault stalls) vs. array time vs. bus data movement.
    They default to zero so pre-existing hand-built events stay valid.
    """

    sequence: int
    channel: int
    package: int
    die: int
    kind: CommandKind
    submit_time: float
    finish_time: float
    queue_time: float = 0.0
    service_time: float = 0.0
    transfer_time: float = 0.0

    @property
    def latency(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def die_key(self) -> tuple:
        return (self.channel, self.package, self.die)


@dataclass
class CommandTrace:
    """A recorded sequence of flash commands plus analyses over it."""

    events: List[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    # --- analyses --------------------------------------------------------------
    def per_channel_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for event in self.events:
            counts[event.channel] = counts.get(event.channel, 0) + 1
        return counts

    def per_die_counts(self) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for event in self.events:
            counts[event.die_key] = counts.get(event.die_key, 0) + 1
        return counts

    def makespan(self) -> float:
        if not self.events:
            return 0.0
        start = min(e.submit_time for e in self.events)
        finish = max(e.finish_time for e in self.events)
        return finish - start

    def mean_latency(self, kind: Optional[CommandKind] = None) -> float:
        matching = [
            e.latency for e in self.events if kind is None or e.kind is kind
        ]
        if not matching:
            raise SimulationError("no events of the requested kind")
        return sum(matching) / len(matching)

    def max_queue_depth(self) -> int:
        """Peak number of in-flight commands (submitted, not finished)."""
        points = []
        for event in self.events:
            points.append((event.submit_time, 1))
            points.append((event.finish_time, -1))
        points.sort(key=lambda p: (p[0], p[1]))
        depth = 0
        peak = 0
        for _time, delta in points:
            depth += delta
            peak = max(peak, depth)
        return peak

    def queue_depth_timeline(self) -> List[Tuple[float, int]]:
        """(time, in-flight depth) step function over the trace window.

        Each entry is the depth *after* the change at that time; submits and
        finishes at the same instant net out before the point is recorded.
        """
        points: List[Tuple[float, int]] = []
        for event in self.events:
            points.append((event.submit_time, 1))
            points.append((event.finish_time, -1))
        points.sort(key=lambda p: (p[0], p[1]))
        timeline: List[Tuple[float, int]] = []
        depth = 0
        for time, delta in points:
            depth += delta
            if timeline and timeline[-1][0] == time:
                timeline[-1] = (time, depth)
            else:
                timeline.append((time, depth))
        return timeline

    def queue_depth_percentile(self, p: float) -> float:
        """Time-weighted ``p``-th percentile (0-100) of the in-flight depth.

        Weighted by how long each depth level persisted, so a brief burst to
        depth 50 does not dominate a trace that idles at depth 2.
        """
        if not (0.0 <= p <= 100.0):
            raise SimulationError("percentile must be in [0, 100]")
        timeline = self.queue_depth_timeline()
        if not timeline:
            raise SimulationError("queue depth percentile of an empty trace")
        weighted: Dict[int, float] = {}
        for (time, depth), (next_time, _next) in zip(timeline, timeline[1:]):
            duration = next_time - time
            if duration > 0:
                weighted[depth] = weighted.get(depth, 0.0) + duration
        if not weighted:  # all events instantaneous: fall back to peak
            return float(self.max_queue_depth())
        total = sum(weighted.values())
        rank = p / 100.0 * total
        cumulative = 0.0
        for depth in sorted(weighted):
            cumulative += weighted[depth]
            if cumulative >= rank:
                return float(depth)
        return float(max(weighted))

    def to_chrome_events(self) -> List[dict]:
        """This trace as Chrome trace-event dicts (one per command).

        Delegates to :func:`repro.obs.export.command_trace_events`, the
        single TraceEvent-to-Chrome conversion path shared with
        :meth:`repro.obs.tracing.Tracer.add_command_trace`.
        """
        from ..obs.export import command_trace_events

        return command_trace_events(self.events)


class TracingController:
    """A :class:`FlashController` that records every command it issues."""

    def __init__(self, controller: FlashController, trace: CommandTrace) -> None:
        self.controller = controller
        self.trace = trace
        self._sequence = 0

    def submit(self, now: float, commands: Iterable[FlashCommand]) -> BatchResult:
        batch = list(commands)
        # Issue one-by-one so per-command finish times are observable.
        start = now
        finish = now
        for command in batch:
            result = self.controller.submit(start, [command])
            # The wrapped controller issued exactly one command, so the
            # channel's last-op phase record describes it; any remaining
            # latency (firmware overhead, fault stalls) is queueing.
            phases = self.controller.channel.last_op_phases
            service = phases.service
            transfer = phases.transfer
            queue = max(0.0, (result.finish - start) - service - transfer)
            self.trace.append(
                TraceEvent(
                    sequence=self._sequence,
                    channel=command.address.channel,
                    package=command.address.package,
                    die=command.address.die,
                    kind=command.kind,
                    submit_time=start,
                    finish_time=result.finish,
                    queue_time=queue,
                    service_time=service,
                    transfer_time=transfer,
                )
            )
            self._sequence += 1
            finish = max(finish, result.finish)
        return BatchResult(
            channel=self.controller.channel.index,
            commands=len(batch),
            start=now,
            finish=finish,
        )
