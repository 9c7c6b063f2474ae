"""Tests for the NAND die and channel models (repro.ssd.nand, .channel)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig
from repro.errors import SimulationError
from repro.ssd.channel import Channel, OpPhases
from repro.ssd.controller import CommandKind, FlashCommand, FlashController
from repro.ssd.events import Resource
from repro.ssd.geometry import FlashGeometry, PhysicalAddress
from repro.ssd.nand import FlashOperation, NandTiming
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
    """A die's reservation, priced by its channel's operations."""

    def test_read_occupies_die(self):
        ch = Channel(0, config())
        start, _ = ch.read_page(0.0, die_index=0)
        assert (start, ch.dies[0].free_at) == (0.0, pytest.approx(us(30)))
        start2, _ = ch.read_page(0.0, die_index=0)
        assert start2 == pytest.approx(us(30))

    def test_counters(self):
        ch = Channel(0, config())
        ch.read_page(0.0, die_index=0)
        ch.program_page(0.0, die_index=0)
        ch.erase_block(0.0, die_index=0)
        die = ch.dies[0]
        assert (die.reads, die.programs, die.erases) == (1, 1, 1)

    def test_reset(self):
        ch = Channel(0, config())
        ch.read_page(0.0, die_index=0)
        ch.reset()
        assert ch.dies[0].reads == 0
        assert ch.dies[0].free_at == 0.0


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

    def test_bad_die_rejected(self):
        ch = Channel(0, config())
        with pytest.raises(SimulationError):
            ch.read_page(0.0, die_index=99)

    @pytest.mark.parametrize("extra", [math.nan, math.inf])
    def test_read_rejects_non_finite_extra_sense(self, extra):
        ch = Channel(0, config())
        with pytest.raises(SimulationError):
            ch.read_page(0.0, 0, extra)
        die = ch.dies[0]
        assert (die.free_at, die.busy_time, die.reads) == (0.0, 0.0, 0)

    @pytest.mark.parametrize(
        "op, args",
        [
            ("read_page", (0.0, 4)),
            ("read_page", (0.0, -1)),
            ("read_page", (0.0, 0, -1e-9)),
            ("read_page", (math.nan, 0)),
            ("read_page", (math.inf, 0)),
            ("program_page", (0.0, 4)),
            ("program_page", (-math.inf, 0)),
            ("program_page", (math.nan, 1)),
            ("erase_block", (0.0, -1)),
            ("erase_block", (math.nan, 0)),
        ],
        ids=[
            "read-die-past-end", "read-negative-die", "read-negative-extra",
            "read-nan-now", "read-inf-now", "program-die-past-end",
            "program-minus-inf-now", "program-nan-now", "erase-negative-die",
            "erase-nan-now",
        ],
    )
    def test_rejected_operation_leaves_state_untouched(self, op, args):
        ch = Channel(0, config())
        ch.read_page(0.0, 0)
        ch.program_page(1e-6, 1)
        before = channel_state(ch)
        with pytest.raises(SimulationError):
            getattr(ch, op)(*args)
        assert channel_state(ch) == before

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


def channel_state(ch) -> tuple:
    """Every timing value (as ``float.hex``) and counter a channel holds."""
    return (
        ch.bus.free_at.hex(),
        ch.bus.busy_time.hex(),
        ch.bus.acquisitions,
        tuple(
            (die.free_at.hex(), die.busy_time.hex(), die.reads, die.programs, die.erases)
            for die in ch.dies
        ),
        ch.pages_transferred,
        hexes(ch.last_op_phases),
    )


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


class _ReferenceDie:
    """The die before the channel priced it inline: ``execute`` → ``acquire``."""

    def __init__(self, timing: NandTiming) -> None:
        self.timing = timing
        self.resource = Resource(name="die")
        self.reads = self.programs = self.erases = 0

    @property
    def free_at(self) -> float:
        return self.resource.free_at

    @property
    def busy_time(self) -> float:
        return self.resource.busy_time

    def execute(self, now, op, extra=0.0):
        if extra < 0:
            raise SimulationError(f"negative extra occupation {extra}")
        start, end = self.resource.acquire(now, self.timing.latency(op) + extra)
        if op is FlashOperation.READ:
            self.reads += 1
        elif op is FlashOperation.PROGRAM:
            self.programs += 1
        else:
            self.erases += 1
        return start, end


class _ReferenceChannel:
    """The channel's old call chain, kept as the oracle for its pricing."""

    def __init__(self, cfg: FlashConfig) -> None:
        self.bus = Resource(name="bus")
        timing = NandTiming.from_config(cfg)
        self.dies = [_ReferenceDie(timing) for _ in range(cfg.dies_per_channel)]
        self.page_transfer_time = cfg.page_transfer_time
        self.pages_transferred = 0
        self.last_op_phases = OpPhases(0.0, 0.0, 0.0)

    def _die(self, die_index):
        if not (0 <= die_index < len(self.dies)):
            raise SimulationError(f"die {die_index} outside the channel")
        return self.dies[die_index]

    def read_page(self, now, die_index, extra_sense=0.0):
        s0, s1 = self._die(die_index).execute(now, FlashOperation.READ, extra_sense)
        b0, b1 = self.bus.acquire(s1, self.page_transfer_time)
        self.last_op_phases = OpPhases((s0 - now) + (b0 - s1), s1 - s0, b1 - b0)
        self.pages_transferred += 1
        return s0, b1

    def program_page(self, now, die_index):
        die = self._die(die_index)
        b0, b1 = self.bus.acquire(now, self.page_transfer_time)
        s0, s1 = die.execute(b1, FlashOperation.PROGRAM)
        self.last_op_phases = OpPhases((b0 - now) + (s0 - b1), s1 - s0, b1 - b0)
        self.pages_transferred += 1
        return b0, s1

    def erase_block(self, now, die_index):
        s0, s1 = self._die(die_index).execute(now, FlashOperation.ERASE)
        self.last_op_phases = OpPhases(s0 - now, s1 - s0, 0.0)
        return s0, s1


# One step: (operation, die index, time mode, time gap, extra sense,
# non-finite time).  Die indices include one past each end; "tied" reuses
# the previous issue time, "gap" and "idle" advance it by the drawn gap
# scaled to queueing or to an idle channel, and "bad" issues at the drawn
# non-finite time.
_STEPS = st.tuples(
    st.sampled_from(["read_page", "read_page", "program_page", "erase_block"]),
    st.integers(min_value=-1, max_value=4),
    st.sampled_from(["tied", "tied", "gap", "gap", "idle", "bad"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=2e-4),
        st.sampled_from([-1e-6, -0.0, math.nan, math.inf, 5e-324]),
    ),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


class TestChannelPricingOracle:
    """The inline pricing against the old ``Die.execute`` → ``acquire`` chain."""

    @given(st.lists(_STEPS, min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_chain(self, steps):
        cfg = config()
        channel = Channel(0, cfg)
        reference = _ReferenceChannel(cfg)
        now = 0.0
        for op, die_index, mode, gap, extra, non_finite in steps:
            if mode == "gap":
                now += gap * us(50)
            elif mode == "idle":
                now += us(4000) + gap * us(4000)
            issue = non_finite if mode == "bad" else now
            args = (issue, die_index, extra) if op == "read_page" else (issue, die_index)
            outcomes = []
            for target in (channel, reference):
                try:
                    outcomes.append(hexes(getattr(target, op)(*args)))
                except SimulationError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1]
            assert channel_state(channel) == channel_state(reference)
