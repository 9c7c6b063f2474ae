"""Channel command scheduling policies.

The base :class:`repro.ssd.controller.FlashController` issues commands in
FIFO order: each command's sense starts when its die frees up, and transfers
serialize on the bus in arrival order.  When a batch lands unevenly across a
channel's dies, FIFO leaves the bus idle while a hot die churns through
back-to-back senses.

:class:`DieAwareScheduler` reorders a batch before issue so that commands
rotate across dies (round-robin over per-die queues).  This keeps every
die's sense pipeline primed and is the scheduling discipline implied by the
paper's 1 GB/s-per-channel streaming assumption.  The ablation bench
(`benchmarks/test_ablations.py`) quantifies the gap between the two
policies — it is the measured component of the stream-interference penalty
documented in DESIGN.md §6.
"""

from __future__ import annotations

import enum
import logging
from collections import defaultdict
from typing import Callable, Dict, Iterable, List

from ..obs.hooks import current
from .controller import BatchResult, FlashCommand, FlashController

logger = logging.getLogger(__name__)


class SchedulingPolicy(enum.Enum):
    """How a controller orders one batch of channel commands."""

    FIFO = "fifo"
    DIE_ROUND_ROBIN = "die_round_robin"


def reorder_round_robin(
    commands: List[FlashCommand], die_of: Dict[int, int]
) -> List[FlashCommand]:
    """Interleave commands round-robin across their target dies.

    ``die_of`` maps the command's position in ``commands`` to its die index.
    Relative order *within* one die is preserved (no read reordering across
    the same page register).
    """
    queues: Dict[int, List[FlashCommand]] = defaultdict(list)
    order: List[int] = []
    for index, command in enumerate(commands):
        die = die_of[index]
        if die not in queues:
            order.append(die)
        queues[die].append(command)
    for die in queues:
        if die not in order:  # pragma: no cover - defensive
            order.append(die)
    out: List[FlashCommand] = []
    cursors = {die: 0 for die in queues}
    remaining = len(commands)
    while remaining:
        for die in order:
            cursor = cursors[die]
            if cursor < len(queues[die]):
                out.append(queues[die][cursor])
                cursors[die] = cursor + 1
                remaining -= 1
    return out


class ScheduledController:
    """Wraps a :class:`FlashController` with a scheduling policy."""

    def __init__(
        self,
        controller: FlashController,
        policy: SchedulingPolicy = SchedulingPolicy.DIE_ROUND_ROBIN,
    ) -> None:
        self.controller = controller
        self.policy = policy

    def submit(self, now: float, commands: Iterable[FlashCommand]) -> BatchResult:
        batch = list(commands)
        if self.policy is SchedulingPolicy.DIE_ROUND_ROBIN and len(batch) > 1:
            die_of = {
                index: self.controller._local_die(command.address)
                for index, command in enumerate(batch)
            }
            batch = reorder_round_robin(batch, die_of)
        result = self.controller.submit(now, batch)
        registry = current().registry
        if registry.enabled and batch:
            registry.counter(
                "flash_sched_batches_total", "scheduled channel batches, by policy"
            ).inc(policy=self.policy.value, channel=result.channel)
            registry.histogram(
                "flash_sched_batch_makespan_seconds",
                "per-batch channel makespan under the active policy",
            ).observe(result.makespan, policy=self.policy.value)
            logger.debug(
                "policy %s: %d commands on channel %d, makespan %.6fs",
                self.policy.value, len(batch), result.channel, result.makespan,
            )
        return result


def compare_policies(
    make_controller: Callable[[], FlashController],
    commands: List[FlashCommand],
) -> Dict[str, float]:
    """Makespan of the same batch under each policy (fresh controllers).

    ``make_controller`` must build an independent :class:`FlashController`
    per call so the policies do not share die/bus state.
    """
    results: Dict[str, float] = {}
    for policy in SchedulingPolicy:
        controller = ScheduledController(make_controller(), policy=policy)
        results[policy.value] = controller.submit(0.0, commands).makespan
    return results
