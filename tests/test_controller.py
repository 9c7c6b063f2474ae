"""Tests for the per-channel flash controller (repro.ssd.controller)."""

import pytest

from repro.config import FlashConfig
from repro.errors import AddressError, SimulationError
from repro.ssd.channel import Channel
from repro.ssd.controller import CommandKind, FlashCommand, FlashController
from repro.ssd.geometry import FlashGeometry, PhysicalAddress
from repro.units import us


def config() -> FlashConfig:
    return FlashConfig(
        channels=2,
        packages_per_channel=2,
        dies_per_package=2,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=8,
        read_latency=us(30),
    )


def make_controller(channel_index=0, overhead=0.0):
    cfg = config()
    channel = Channel(channel_index, cfg)
    return FlashController(channel, FlashGeometry(cfg), command_overhead=overhead)


def read(ch, pkg=0, die=0, block=0, page=0):
    return FlashCommand(CommandKind.READ, PhysicalAddress(ch, pkg, die, 0, block, page))


class TestSubmit:
    def test_empty_batch_is_instant(self):
        ctrl = make_controller()
        result = ctrl.submit(1.0, [])
        assert result.start == result.finish == 1.0
        assert result.commands == 0

    def test_single_read_timing(self):
        ctrl = make_controller()
        result = ctrl.submit(0.0, [read(0)])
        assert result.finish == pytest.approx(us(30) + 4096 / 1e9)

    def test_multi_die_batch_overlaps_senses(self):
        ctrl = make_controller()
        batch = [read(0, pkg=0, die=0), read(0, pkg=0, die=1), read(0, pkg=1, die=0)]
        result = ctrl.submit(0.0, batch)
        # Senses overlap; the bus serializes 3 transfers after the sense.
        assert result.finish == pytest.approx(us(30) + 3 * 4096 / 1e9)

    def test_same_die_batch_serializes(self):
        ctrl = make_controller()
        result = ctrl.submit(0.0, [read(0, page=0), read(0, page=1)])
        assert result.finish >= 2 * us(30)

    def test_command_overhead_staggers_issues(self):
        fast = make_controller(overhead=0.0).submit(0.0, [read(0), read(0, die=1)])
        slow = make_controller(overhead=us(5)).submit(0.0, [read(0), read(0, die=1)])
        assert slow.finish > fast.finish

    def test_program_and_erase_kinds(self):
        ctrl = make_controller()
        prog = FlashCommand(
            CommandKind.PROGRAM, PhysicalAddress(0, 0, 0, 0, 0, 0)
        )
        erase = FlashCommand(
            CommandKind.ERASE, PhysicalAddress(0, 1, 0, 0, 0, 0)
        )
        result = ctrl.submit(0.0, [prog, erase])
        assert result.commands == 2
        assert result.finish >= us(3500)

    def test_wrong_channel_rejected(self):
        ctrl = make_controller(channel_index=0)
        with pytest.raises(SimulationError):
            ctrl.submit(0.0, [read(1)])

    @pytest.mark.parametrize(
        "bad, error",
        [(read(0, block=99), AddressError), (read(1), SimulationError)],
        ids=["fanout-overflow", "wrong-channel"],
    )
    def test_validates_every_command_before_any_runs(self, bad, error):
        ctrl = make_controller()
        channel = ctrl.channel
        with pytest.raises(error):
            ctrl.submit(0.0, [read(0), bad])
        assert channel.pages_transferred == 0
        assert (channel.bus.free_at, channel.bus.busy_time) == (0.0, 0.0)
        assert channel.bus.acquisitions == 0
        assert [
            (die.free_at, die.busy_time, die.reads, die.programs, die.erases)
            for die in channel.dies
        ] == [(0.0, 0.0, 0, 0, 0)] * len(channel.dies)
        assert channel.last_op_phases == (0.0, 0.0, 0.0)
        assert ctrl.commands_issued == 0

    def test_counter(self):
        ctrl = make_controller()
        ctrl.submit(0.0, [read(0), read(0, die=1)])
        assert ctrl.commands_issued == 2

    def test_makespan_property(self):
        ctrl = make_controller()
        result = ctrl.submit(2.0, [read(0)])
        assert result.makespan == pytest.approx(result.finish - 2.0)


class TestCommandConstructionValidation:
    """FlashCommand with a geometry validates its address at construction."""

    def geometry(self) -> FlashGeometry:
        return FlashGeometry(config())

    def command(self, **overrides):
        fields = dict(ch=0, pkg=0, die=0, plane=0, block=0, page=0)
        fields.update(overrides)
        return FlashCommand(
            CommandKind.READ,
            PhysicalAddress(
                fields["ch"], fields["pkg"], fields["die"],
                fields["plane"], fields["block"], fields["page"],
            ),
            self.geometry(),
        )

    def test_valid_address_accepted(self):
        command = self.command(ch=1, pkg=1, die=1, block=3, page=7)
        assert command.address.channel == 1

    @pytest.mark.parametrize(
        "overrides,field_name",
        [
            (dict(ch=2), "channel"),
            (dict(pkg=2), "package"),
            (dict(die=2), "die"),
            (dict(plane=1), "plane"),
            (dict(block=4), "block"),
            (dict(page=8), "page"),
        ],
    )
    def test_out_of_fanout_field_named(self, overrides, field_name):
        with pytest.raises(AddressError) as excinfo:
            self.command(**overrides)
        assert field_name in str(excinfo.value)

    def test_geometry_excluded_from_equality_and_repr(self):
        bare = FlashCommand(
            CommandKind.READ, PhysicalAddress(0, 0, 0, 0, 0, 0)
        )
        checked = self.command()
        assert bare == checked
        assert "geometry" not in repr(checked)

    def test_geometry_excluded_from_hash(self):
        bare = FlashCommand(CommandKind.READ, PhysicalAddress(0, 0, 0, 0, 1, 2))
        checked = self.command(block=1, page=2)
        larger = FlashGeometry(FlashConfig(
            channels=2, packages_per_channel=2, dies_per_package=2,
            planes_per_die=1, blocks_per_plane=64, pages_per_block=8,
        ))
        foreign = FlashCommand(
            CommandKind.READ, PhysicalAddress(0, 0, 0, 0, 1, 2), larger
        )
        assert bare == checked == foreign
        assert hash(bare) == hash(checked) == hash(foreign)
        assert len({bare, checked, foreign}) == 1
        assert bare != FlashCommand(
            CommandKind.PROGRAM, PhysicalAddress(0, 0, 0, 0, 1, 2)
        )

    def test_repr_is_pinned(self):
        expected = (
            "FlashCommand(kind=<CommandKind.READ: 'read'>, address="
            "PhysicalAddress(channel=1, package=0, die=1, plane=0, block=3, page=7))"
        )
        assert repr(self.command(ch=1, die=1, block=3, page=7)) == expected
        bare = FlashCommand(CommandKind.READ, PhysicalAddress(1, 0, 1, 0, 3, 7))
        assert repr(bare) == expected

    def test_construction_raises_address_error_with_exact_text(self):
        with pytest.raises(AddressError) as excinfo:
            self.command(block=4, page=9)
        assert str(excinfo.value) == (
            "block=4 exceeds fan-out 4 in PhysicalAddress(channel=0, package=0,"
            " die=0, plane=0, block=4, page=9)"
        )

    def test_command_is_a_plain_kind_address_tuple(self):
        command = self.command(ch=1, block=3)
        address = PhysicalAddress(1, 0, 0, 0, 3, 0)
        assert command == (CommandKind.READ, address)
        kind, routed_to = command
        assert (kind, routed_to, len(command)) == (CommandKind.READ, address, 2)
        assert not hasattr(command, "geometry")

    def test_geometry_free_command_still_validated_at_submit(self):
        ctrl = make_controller()
        bad = FlashCommand(
            CommandKind.READ, PhysicalAddress(0, 0, 0, 0, 99, 0)
        )
        with pytest.raises(AddressError) as excinfo:
            ctrl.submit(0.0, [bad])
        assert str(excinfo.value) == f"block=99 exceeds fan-out 4 in {bad.address!r}"

    def test_command_from_another_geometry_validated_at_submit(self):
        ctrl = make_controller()
        larger = FlashGeometry(FlashConfig(
            channels=2, packages_per_channel=2, dies_per_package=2,
            planes_per_die=1, blocks_per_plane=64, pages_per_block=8,
        ))
        foreign = FlashCommand(
            CommandKind.READ, PhysicalAddress(0, 0, 0, 0, 9, 0), larger
        )
        with pytest.raises(AddressError):
            ctrl.submit(0.0, [foreign])
        assert ctrl.commands_issued == 0
