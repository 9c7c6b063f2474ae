"""Tests for the channel command scheduler (repro.ssd.scheduler)."""

import numpy as np
import pytest

from repro.config import FlashConfig
from repro.ssd.channel import Channel
from repro.ssd.controller import CommandKind, FlashCommand, FlashController
from repro.ssd.geometry import FlashGeometry, PhysicalAddress
from repro.ssd.scheduler import (
    ScheduledController,
    SchedulingPolicy,
    compare_policies,
    reorder_round_robin,
)
from repro.units import us


def config() -> FlashConfig:
    return FlashConfig(
        channels=1,
        packages_per_channel=4,
        dies_per_package=2,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=16,
        read_latency=us(30),
    )


def read(pkg, die, page=0, block=0):
    return FlashCommand(CommandKind.READ, PhysicalAddress(0, pkg, die, 0, block, page))


def make_controller() -> FlashController:
    cfg = config()
    return FlashController(Channel(0, cfg), FlashGeometry(cfg), command_overhead=0.0)


class TestReorder:
    def test_round_robin_interleaves_dies(self):
        commands = [read(0, 0, page=p) for p in range(3)] + [read(1, 0), read(2, 0)]
        die_of = {0: 0, 1: 0, 2: 0, 3: 2, 4: 4}
        out = reorder_round_robin(commands, die_of)
        # First three issued commands hit three distinct dies.
        first_dies = [(c.address.package, c.address.die) for c in out[:3]]
        assert len(set(first_dies)) == 3

    def test_within_die_order_preserved(self):
        commands = [read(0, 0, page=p) for p in (5, 1, 9)]
        die_of = {0: 0, 1: 0, 2: 0}
        out = reorder_round_robin(commands, die_of)
        assert [c.address.page for c in out] == [5, 1, 9]

    def test_all_commands_kept(self):
        rng = np.random.default_rng(0)
        commands = [read(int(rng.integers(0, 4)), int(rng.integers(0, 2)),
                         page=int(i)) for i in range(20)]
        die_of = {i: c.address.package * 2 + c.address.die
                  for i, c in enumerate(commands)}
        out = reorder_round_robin(commands, die_of)
        assert sorted(c.address.page for c in out) == list(range(20))


class TestScheduledController:
    def test_fifo_equals_plain_controller(self):
        commands = [read(0, 0, page=p) for p in range(4)]
        plain = make_controller().submit(0.0, commands)
        fifo = ScheduledController(
            make_controller(), policy=SchedulingPolicy.FIFO
        ).submit(0.0, commands)
        assert fifo.finish == pytest.approx(plain.finish)

    def test_round_robin_beats_fifo_on_skewed_batches(self):
        # 6 reads on die (0,0), then 1 each on two other dies: FIFO leaves
        # the other dies idle until the end; round-robin overlaps senses.
        commands = [read(0, 0, page=p) for p in range(6)] + [read(1, 0), read(2, 0)]
        results = compare_policies(make_controller, commands)
        assert results["die_round_robin"] < results["fifo"]

    def test_policies_equal_on_balanced_batches(self):
        commands = [read(pkg, die) for pkg in range(4) for die in range(2)]
        results = compare_policies(make_controller, commands)
        assert results["die_round_robin"] == pytest.approx(results["fifo"], rel=0.05)

    def test_single_command_passthrough(self):
        ctrl = ScheduledController(make_controller())
        result = ctrl.submit(0.0, [read(0, 0)])
        assert result.commands == 1


class TestSchedulerStudyDriver:
    def test_study_returns_both_policies(self):
        from repro.analysis.ablations import scheduler_study

        results = scheduler_study(pages=24)
        policies = {r.policy for r in results}
        assert policies == {"fifo", "die_round_robin"}
        by_policy = {r.policy: r.makespan for r in results}
        assert by_policy["die_round_robin"] <= by_policy["fifo"]
