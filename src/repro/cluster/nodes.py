"""Node state for the fleet simulator: service nodes and data nodes.

A **service node** is the stateless request plane: it owns one
:class:`~repro.serve.node.ServiceNodeCore` (the exact admission /
deadline-batching / degradation machinery the single-deployment driver
uses) plus a :class:`~repro.cluster.cache.HotLabelCache`, and tracks its
own in-flight request count so admission sees true pending depth.

A **data node** is the storage plane: it wraps one ECSSD device's service
model behind ``slots`` concurrent task slots (channel-level parallelism)
and a FIFO overflow queue.  The node holds *state only* — who is running,
who is queued, how much busy time accrued; all timing decisions live in
the engine so the event order stays on one heap.

:class:`ShardTask` is the unit of fan-out work: one shard's slice of one
batch, shipped from a service node to a data-node replica.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Tuple

from ..errors import SimulationError
from ..serve.node import ServiceNodeCore
from .cache import HotLabelCache


@dataclass
class ShardTask:
    """One shard's slice of one batch, in flight to or on a data node.

    ``exec_time`` is the on-node execution cost *excluding* slowdowns (the
    engine applies brownout and crawler factors at start time, when they
    are knowable); ``end`` is set once the task actually starts.
    """

    task_id: int
    batch_id: int
    shard: int
    size: int
    service_node: int
    exec_time: float
    bytes_out: int
    bytes_back: int
    node: int = -1  # data node currently responsible (-1 = unassigned)
    ready_at: float = 0.0  # when the request bytes land on the node
    started_at: float = -1.0  # slot-occupancy start (-1 = not started)
    end: float = -1.0  # slot-release time once started (-1 = not started)
    stolen: bool = False
    end_seq: int = -1  # kernel seq of the live completion event


@dataclass
class BatchState:
    """One dispatched batch awaiting its shard tasks and merge."""

    batch_id: int
    service_node: int
    size: int
    request_ids: Tuple[int, ...]
    level: int
    dispatch_time: float
    remaining: int
    merge_cost: float = 0.0  # §7.1 top-k merge time once all shards land
    last_result_at: float = 0.0  # max over shard tasks of result arrival


class ServiceNode:
    """One stateless frontend: admission + batching + degrade + cache."""

    def __init__(
        self, index: int, rack: int, core: ServiceNodeCore, cache: HotLabelCache
    ) -> None:
        self.index = index
        self.rack = rack
        self.core = core
        self.cache = cache
        self.active = True
        self.outstanding_requests = 0  # dispatched, not yet merged
        self.arrived = 0
        self.shed = 0
        self.cache_hits = 0

    @property
    def depth(self) -> int:
        return self.core.depth


class DataNode:
    """One storage backend: ``slots`` concurrent tasks + a FIFO queue."""

    def __init__(self, index: int, rack: int, slots: int) -> None:
        if slots <= 0:
            raise SimulationError("data node needs at least one task slot")
        self.index = index
        self.rack = rack
        self.slots = slots
        self.alive = True
        self.running: Dict[int, ShardTask] = {}
        self.pending: Deque[ShardTask] = deque()
        self.busy_time = 0.0
        self.tasks_done = 0
        self.steals = 0

    @property
    def outstanding(self) -> int:
        """Tasks this node is responsible for (running + queued)."""
        return len(self.running) + len(self.pending)

    def has_free_slot(self) -> bool:
        return len(self.running) < self.slots

    def start(self, task: ShardTask, end: float) -> None:
        """Occupy a slot with ``task`` until ``end``."""
        if not self.has_free_slot():
            raise SimulationError(
                f"data node {self.index} has no free slot for task {task.task_id}"
            )
        task.node = self.index
        task.end = end
        self.running[task.task_id] = task

    def finish(self, task_id: int, exec_spent: float) -> ShardTask:
        """Release the slot held by ``task_id``, accruing busy time."""
        task = self.running.pop(task_id, None)
        if task is None:
            raise SimulationError(
                f"data node {self.index} finishing unknown task {task_id}"
            )
        self.busy_time += exec_spent
        self.tasks_done += 1
        return task


@dataclass
class FleetCounters:
    """The engine's integer counters, digested every event pop."""

    completed: int = 0
    shed: int = 0
    cache_hits: int = 0
    tasks_done: int = 0
    steals: int = 0
    redispatches: int = 0
    parked: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    batches: int = 0
    extra: Dict[str, int] = field(default_factory=dict)
