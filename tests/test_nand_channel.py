"""Tests for the NAND die and channel models (repro.ssd.nand, .channel)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig
from repro.errors import SimulationError
from repro.ssd.channel import Channel
from repro.ssd.events import Resource
from repro.ssd.nand import FlashOperation, NandTiming
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
    )


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

    def _die(self, die_index):
        if not (0 <= die_index < len(self.dies)):
            raise SimulationError(f"die {die_index} outside the channel")
        return self.dies[die_index]

    def read_page(self, now, die_index, extra_sense=0.0):
        s0, s1 = self._die(die_index).execute(now, FlashOperation.READ, extra_sense)
        b0, b1 = self.bus.acquire(s1, self.page_transfer_time)
        self.pages_transferred += 1
        return s0, b1

    def program_page(self, now, die_index):
        die = self._die(die_index)
        b0, b1 = self.bus.acquire(now, self.page_transfer_time)
        s0, s1 = die.execute(b1, FlashOperation.PROGRAM)
        self.pages_transferred += 1
        return b0, s1

    def erase_block(self, now, die_index):
        s0, s1 = self._die(die_index).execute(now, FlashOperation.ERASE)
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
