"""Tests for the NAND die and channel models (repro.ssd.nand, .channel)."""

import pytest

from repro.config import FlashConfig
from repro.errors import SimulationError
from repro.ssd.channel import Channel, OpPhases
from repro.ssd.controller import CommandKind, FlashCommand, FlashController
from repro.ssd.geometry import FlashGeometry, PhysicalAddress
from repro.ssd.nand import Die, FlashOperation, NandTiming
from repro.ssd.trace import CommandTrace, TracingController
from repro.units import us


def config() -> FlashConfig:
    return FlashConfig(
        channels=2,
        packages_per_channel=2,
        dies_per_package=2,
        planes_per_die=2,
        blocks_per_plane=4,
        pages_per_block=8,
        read_latency=us(30),
        program_latency=us(660),
        erase_latency=us(3500),
    )


class TestNandTiming:
    def test_from_config(self):
        t = NandTiming.from_config(config())
        assert t.read == pytest.approx(us(30))
        assert t.program == pytest.approx(us(660))
        assert t.erase == pytest.approx(us(3500))

    def test_latency_dispatch(self):
        t = NandTiming.from_config(config())
        assert t.latency(FlashOperation.READ) == t.read
        assert t.latency(FlashOperation.PROGRAM) == t.program
        assert t.latency(FlashOperation.ERASE) == t.erase


class TestDie:
    def test_read_occupies_die(self):
        die = Die(0, NandTiming.from_config(config()))
        start, end = die.execute(0.0, FlashOperation.READ)
        assert (start, end) == (0.0, pytest.approx(us(30)))
        start2, end2 = die.execute(0.0, FlashOperation.READ)
        assert start2 == pytest.approx(us(30))

    def test_counters(self):
        die = Die(0, NandTiming.from_config(config()))
        die.execute(0.0, FlashOperation.READ)
        die.execute(0.0, FlashOperation.PROGRAM)
        die.execute(0.0, FlashOperation.ERASE)
        assert (die.reads, die.programs, die.erases) == (1, 1, 1)

    def test_reset(self):
        die = Die(0, NandTiming.from_config(config()))
        die.execute(0.0, FlashOperation.READ)
        die.reset()
        assert die.reads == 0
        assert die.free_at == 0.0


class TestChannel:
    def test_read_page_sense_then_transfer(self):
        ch = Channel(0, config())
        start, end = ch.read_page(0.0, die_index=0)
        # End = sense + bus transfer of one 4 KiB page at 1 GB/s.
        assert end == pytest.approx(us(30) + 4096 / 1e9)

    def test_parallel_senses_serial_transfers(self):
        ch = Channel(0, config())
        ends = [ch.read_page(0.0, die_index=d)[1] for d in range(4)]
        # All four dies sense concurrently; transfers queue on the bus.
        page = 4096 / 1e9
        for i, end in enumerate(sorted(ends)):
            assert end == pytest.approx(us(30) + (i + 1) * page)

    def test_same_die_reads_serialize_senses(self):
        # The second sense waits for the first (one array op at a time);
        # its transfer then starts as soon as both sense and bus are free.
        ch = Channel(0, config())
        ch.read_page(0.0, die_index=0)
        _, end = ch.read_page(0.0, die_index=0)
        assert end == pytest.approx(2 * us(30) + 4096 / 1e9, rel=1e-6)

    def test_program_transfers_then_programs(self):
        ch = Channel(0, config())
        start, end = ch.program_page(0.0, die_index=1)
        assert end == pytest.approx(4096 / 1e9 + us(660))

    def test_erase_skips_bus(self):
        ch = Channel(0, config())
        _, end = ch.erase_block(0.0, die_index=2)
        assert end == pytest.approx(us(3500))
        assert ch.bus.busy_time == 0.0

    def test_accounting(self):
        ch = Channel(0, config())
        ch.read_page(0.0, 0)
        ch.program_page(0.0, 1)
        assert ch.pages_transferred == 2
        assert ch.bytes_transferred == 2 * 4096

    def test_bad_die_rejected(self):
        ch = Channel(0, config())
        with pytest.raises(SimulationError):
            ch.read_page(0.0, die_index=99)

    def test_free_at_covers_dies_and_bus(self):
        ch = Channel(0, config())
        _, end = ch.program_page(0.0, die_index=0)
        assert ch.free_at == pytest.approx(end)

    def test_bus_utilization(self):
        ch = Channel(0, config())
        _, end = ch.read_page(0.0, 0)
        util = ch.bus_utilization(end)
        assert 0 < util < 1

    def test_reset(self):
        ch = Channel(0, config())
        ch.read_page(0.0, 0)
        ch.reset()
        assert ch.pages_transferred == 0
        assert ch.free_at == 0.0


def hexes(values) -> tuple:
    return tuple(float(v).hex() for v in values)


class TestLastOpPhasesPin:
    """``Channel.last_op_phases`` and traced phase times, pinned bit-for-bit."""

    # (queue, service, transfer) of read, read with extra sense, program
    # and erase, as float.hex().
    EXPECTED_OPS = [
        (
            "0x0.0p+0",
            "0x1.f75104d551d68p-16",
            "0x1.12e0be826d698p-18",
        ),
        (
            "0x1.e68a0d349be8fp-16",
            "0x1.3660e51d25aacp-15",
            "0x1.12e0be826d690p-18",
        ),
        (
            "0x1.21cf43dbb32adp-14",
            "0x1.5a07b352a8438p-11",
            "0x1.12e0be826d690p-18",
        ),
        (
            "0x1.0c6f7a0b5ed8dp-14",
            "0x1.cac083126e978p-9",
            "0x0.0p+0",
        ),
    ]
    EXPECTED_SUBMIT = (
        "0x1.b76dc88e01685p-16",
        "0x1.f75104d551d68p-16",
        "0x1.12e0be826d690p-18",
    )
    # (submit, finish, queue, service, transfer) per traced command.
    EXPECTED_TRACE = [
        (
            "0x0.0p+0",
            "0x1.2ecb91dbac860p-15",
            "0x1.0c6f7a0b5ed90p-19",
            "0x1.f75104d551d68p-16",
            "0x1.12e0be826d698p-18",
        ),
        (
            "0x0.0p+0",
            "0x1.6f1a2ded67e6bp-11",
            "0x1.2ecb91dbac85dp-15",
            "0x1.5a07b352a8438p-11",
            "0x1.12e0be826d698p-18",
        ),
        (
            "0x0.0p+0",
            "0x1.7383c17c47e06p-15",
            "0x1.55fc9d05451fcp-17",
            "0x1.f75104d551d68p-16",
            "0x1.12e0be826d698p-18",
        ),
        (
            "0x0.0p+0",
            "0x1.153a0a232ab89p-14",
            "0x1.0c6f7a0b5ed8dp-15",
            "0x1.f75104d551d66p-16",
            "0x1.12e0be826d690p-18",
        ),
        (
            "0x0.0p+0",
            "0x1.cb039ef0f16f3p-9",
            "0x1.0c6f7a0b5ec00p-19",
            "0x1.cac083126e978p-9",
            "0x0.0p+0",
        ),
        (
            "0x0.0p+0",
            "0x1.7ed4b61412756p-11",
            "0x1.153a0a232ab87p-14",
            "0x1.5a07b352a8438p-11",
            "0x1.12e0be826d690p-18",
        ),
        (
            "0x0.0p+0",
            "0x1.379621f37865bp-14",
            "0x1.5127a9abfa331p-15",
            "0x1.f75104d551d66p-16",
            "0x1.12e0be826d690p-18",
        ),
    ]

    def test_each_operation_kind(self):
        ch = Channel(0, config())
        observed = []
        ch.read_page(0.0, die_index=0)
        observed.append(ch.last_op_phases)
        ch.read_page(1e-6, die_index=0, extra_sense=us(7))
        observed.append(ch.last_op_phases)
        ch.program_page(2e-6, die_index=1)
        observed.append(ch.last_op_phases)
        ch.erase_block(3e-6, die_index=0)
        observed.append(ch.last_op_phases)
        assert all(type(phases) is OpPhases for phases in observed)
        assert [hexes(phases) for phases in observed] == self.EXPECTED_OPS

    def test_last_command_of_a_submit(self):
        cfg = config()
        ctrl = FlashController(Channel(0, cfg), FlashGeometry(cfg), us(2))
        ctrl.submit(0.0, self.mixed_batch(cfg))
        assert hexes(ctrl.channel.last_op_phases) == self.EXPECTED_SUBMIT

    def test_traced_phase_times(self):
        cfg = config()
        trace = CommandTrace()
        ctrl = FlashController(Channel(0, cfg), FlashGeometry(cfg), us(2))
        TracingController(ctrl, trace).submit(0.0, self.mixed_batch(cfg))
        observed = [
            hexes((e.submit_time, e.finish_time, e.queue_time, e.service_time,
                   e.transfer_time))
            for e in trace.events
        ]
        assert observed == self.EXPECTED_TRACE

    @staticmethod
    def mixed_batch(cfg):
        geometry = FlashGeometry(cfg)

        def command(kind, package, die, block=0, page=0):
            address = PhysicalAddress(0, package, die, 0, block, page)
            return FlashCommand(kind, address, geometry)

        return [
            command(CommandKind.READ, 0, 0),
            command(CommandKind.PROGRAM, 0, 1),
            command(CommandKind.READ, 1, 0),
            command(CommandKind.READ, 0, 0, page=1),
            command(CommandKind.ERASE, 1, 1, block=2),
            command(CommandKind.PROGRAM, 0, 0, block=1),
            command(CommandKind.READ, 1, 0, page=3),
        ]
