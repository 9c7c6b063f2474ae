"""Tests for the assembled SSD device (repro.ssd.device)."""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.obs import hooks
from repro.config import ECSSDConfig, FlashConfig
from repro.errors import AddressError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultConfig
from repro.ssd.controller import CommandKind, FlashCommand
from repro.ssd.device import SSDDevice
from repro.ssd.geometry import FlashGeometry, PhysicalAddress
from repro.units import us


def small_device() -> SSDDevice:
    flash = FlashConfig(
        channels=4,
        packages_per_channel=2,
        dies_per_package=2,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=32,
        read_latency=us(30),
    )
    return SSDDevice(ECSSDConfig(flash=flash))


def device_state(dev: SSDDevice) -> tuple:
    """Clock, link, DRAM, FTL and flash state of ``dev``, floats as hex."""
    ftl = dev.ftl
    return (
        dev.clock.hex(),
        [
            (link.free_at.hex(), link.busy_time.hex(), link.acquisitions)
            for link in (dev.host.downstream, dev.host.upstream, dev.dram.port)
        ],
        (dev.host.bytes_down, dev.host.bytes_up),
        (dev.dram.bytes_read, dev.dram.bytes_written),
        sorted(ftl._l2p.items()),
        sorted(ftl._p2l.items()),
        ftl.pages_written,
        [
            (ch.bus.free_at.hex(), ch.pages_transferred)
            + tuple((die.free_at.hex(), die.reads, die.programs) for die in ch.dies)
            for ch in dev.channels
        ],
    )


class TestSSDMode:
    def test_write_then_read_roundtrip(self):
        dev = small_device()
        t_write = dev.host_write(list(range(16)))
        assert t_write > 0
        t_read = dev.host_read(list(range(16)))
        assert t_read > t_write

    def test_write_spreads_programs_across_channels(self):
        dev = small_device()
        # LPAs spanning all channel ranges.
        lpas = [dev.ftl.channel_logical_range(c).start for c in range(4)]
        dev.host_write(lpas)
        programs = [sum(d.programs for d in ch.dies) for ch in dev.channels]
        assert all(p == 1 for p in programs)

    def test_each_page_address_is_checked_exactly_once(self, monkeypatch):
        dev = small_device()
        lpas = [
            dev.ftl.channel_logical_range(c).start + i for c in range(4) for i in range(4)
        ]
        # The first write opens each plane's active block; opening one checks
        # the block's base address once, through ``to_flat``.
        dev.host_write(lpas)
        checked = []
        check = FlashGeometry.check

        def counting_check(geometry, address):
            checked.append(address)
            check(geometry, address)

        monkeypatch.setattr(FlashGeometry, "check", counting_check)
        for operation in (dev.host_write, dev.host_read):
            checked.clear()
            operation(lpas)
            assert sorted(checked) == sorted(dev.ftl.lookup(lpa) for lpa in lpas)

    def test_out_of_range_write_burst_moves_nothing(self):
        dev = small_device()
        dev.host_write([0, 1, 5])
        before = device_state(dev)
        with pytest.raises(AddressError, match="outside user space"):
            dev.host_write([0, 1, 10**6])
        assert device_state(dev) == before

    @pytest.mark.parametrize("bad", [2.5, 1.0, "2", None])
    def test_non_integer_write_burst_moves_nothing(self, bad):
        dev = small_device()
        dev.host_write([0, 1, 5])
        before = device_state(dev)
        with pytest.raises(AddressError, match="not an integer"):
            dev.host_write([0, 1, bad])
        assert device_state(dev) == before

    @pytest.mark.parametrize(
        "bad", [1.0, 2.5, None, np.float64(5.0)],
        ids=["1.0", "2.5", "None", "np.float64(5.0)"],
    )
    def test_non_integer_read_burst_moves_nothing(self, bad):
        # 1.0 and np.float64(5.0) hash like mapped LPAs 1 and 5, so only the
        # integer check stands between them and a read of those pages.
        dev = small_device()
        dev.host_write([0, 1, 5])
        before = device_state(dev)
        with pytest.raises(AddressError, match="not an integer"):
            dev.host_read([bad])
        assert device_state(dev) == before

    def test_numpy_integer_write_burst_matches_int_burst(self):
        plain, numpy_ints = small_device(), small_device()
        assert plain.host_write([0, 1, 7]) == numpy_ints.host_write(
            np.array([0, 1, 7], dtype=np.int64)
        )
        assert device_state(plain) == device_state(numpy_ints)

    def test_numpy_integer_read_burst_matches_int_burst(self):
        plain, numpy_ints = small_device(), small_device()
        for dev in (plain, numpy_ints):
            dev.host_write([0, 1, 7])
        assert plain.host_read([0, 1, 7]) == numpy_ints.host_read(
            np.array([0, 1, 7], dtype=np.int64)
        )
        assert device_state(plain) == device_state(numpy_ints)

    def test_unmapped_read_burst_moves_nothing(self):
        dev = small_device()
        dev.host_write([0, 1])
        before = device_state(dev)
        with pytest.raises(AddressError, match="unmapped"):
            dev.host_read([0, 5])
        assert device_state(dev) == before

    @pytest.mark.xfail(
        strict=True,
        reason="host_write starts each channel's batch at the previous"
        " channel's finish; the fix is a re-baseline (ROADMAP item 8)",
    )
    def test_write_burst_starts_every_channel_at_its_ready_time(self):
        # One page on each of 4 channels against 4 pages on the 4 dies of
        # one channel: equal host-link and DRAM time, so equal ready times.
        # With every channel starting at the ready time, the spread burst
        # finishes no later (today: 2,663.5 us against 682.0 us).
        spread = small_device()
        per_channel = spread.ftl.user_pages_per_channel
        spread_done = spread.host_write([c * per_channel for c in range(4)])
        one_channel = small_device()
        one_channel_done = one_channel.host_write([0, 1, 2, 3])
        assert spread_done <= one_channel_done

    def test_clock_is_monotonic(self):
        dev = small_device()
        t1 = dev.host_write([0, 1])
        t2 = dev.host_write([2, 3])
        assert t2 >= t1

    def test_advance_clock_rejects_past(self):
        dev = small_device()
        dev.host_write([0])
        with pytest.raises(SimulationError):
            dev.advance_clock(0.0)


class TestFetchPages:
    def test_balanced_fetch_uses_all_channels(self):
        dev = small_device()
        addresses = [PhysicalAddress(c, 0, 0, 0, 0, p) for c in range(4) for p in range(3)]
        result = dev.fetch_pages(addresses, start=0.0)
        assert result.pages_per_channel == [3, 3, 3, 3]
        assert result.total_pages == 12

    def test_makespan_set_by_busiest_channel(self):
        dev = small_device()
        skewed = [PhysicalAddress(0, 0, 0, 0, 0, p) for p in range(8)]
        skewed += [PhysicalAddress(1, 0, 0, 0, 0, 0)]
        result = dev.fetch_pages(skewed, start=0.0)
        assert result.channel_finish[0] == result.finish
        assert result.channel_finish[1] < result.finish

    def test_imbalance_slows_fetch(self):
        dev1, dev2 = small_device(), small_device()
        balanced = [
            PhysicalAddress(c, p % 2, p // 2 % 2, 0, 0, p)
            for c in range(4)
            for p in range(4)
        ]
        skewed = [PhysicalAddress(0, p % 2, p // 2 % 2, 0, p // 4, p % 4) for p in range(16)]
        t_balanced = dev1.fetch_pages(balanced, start=0.0).makespan
        t_skewed = dev2.fetch_pages(skewed, start=0.0).makespan
        assert t_skewed > 2 * t_balanced

    def test_empty_fetch(self):
        dev = small_device()
        result = dev.fetch_pages([], start=5.0)
        assert result.finish == 5.0
        assert result.total_pages == 0
        assert result.utilization(dev.page_transfer_time) == 0.0

    def test_utilization_bounds(self):
        dev = small_device()
        addresses = [
            PhysicalAddress(c, p % 2, 0, 0, 0, p) for c in range(4) for p in range(4)
        ]
        result = dev.fetch_pages(addresses, start=0.0)
        util = result.utilization(dev.page_transfer_time)
        assert 0.0 < util <= 1.0

    @pytest.mark.parametrize(
        "bad", [PhysicalAddress(3, 0, 0, 0, 99, 0), PhysicalAddress(9, 0, 0, 0, 0, 0)]
    )
    def test_fetch_validates_every_address_before_any_channel_runs(self, bad):
        dev = small_device()
        good = [PhysicalAddress(c, 0, 0, 0, 0, 0) for c in range(4)]
        with pytest.raises(AddressError):
            dev.fetch_pages(good + [bad], start=0.0)
        assert [ch.pages_transferred for ch in dev.channels] == [0, 0, 0, 0]
        assert [ctrl.commands_issued for ctrl in dev.controllers] == [0, 0, 0, 0]


class TestHousekeeping:
    def test_reset_timing_clears_clock_and_counters(self):
        dev = small_device()
        dev.host_write(list(range(4)))
        dev.reset_timing()
        assert dev.clock == 0.0
        assert all(ch.pages_transferred == 0 for ch in dev.channels)

    def test_reset_keeps_mappings(self):
        dev = small_device()
        dev.host_write([7])
        dev.reset_timing()
        assert dev.ftl.is_mapped(7)

    def test_page_size_passthrough(self):
        dev = small_device()
        assert dev.page_size == 4096
        assert dev.page_transfer_time == pytest.approx(4096 / 1e9)

    def test_channel_bus_utilizations_shape(self):
        dev = small_device()
        t = dev.host_write(list(range(8)))
        utils = dev.channel_bus_utilizations(t)
        assert len(utils) == 4
        assert all(0 <= u <= 1 for u in utils)


class TestBitIdentityPin:
    """SSD-mode timing and GC bookkeeping, pinned bit-for-bit.

    Replays seeded mixed write/read bursts on the perfbench ``ssd-mixed``
    geometry (8 channels x 2 dies x 64 blocks x 16 pages) after filling 80%
    of every channel's user pages.  Any change to simulated timing,
    allocation order or GC victim choice moves the expected values.
    """

    BURSTS = 1500
    EXPECTED_DIGEST = (
        "09e34a37c613a157de8e8a2eeed0f5183cc7624bf2acff4142fce62363761e03"
    )
    EXPECTED_CLOCK = "0x1.f5d65330636c5p+2"
    EXPECTED_GC_EVENTS = 530
    EXPECTED_RELOCATED = 4696
    EXPECTED_ERASES = 530
    # sha256 of ``counters()``; totals are (bus acquisitions, pages
    # transferred, die reads, die programs, die erases, commands issued).
    EXPECTED_COUNTERS_DIGEST = (
        "b7fcae905d2abe6b580c8ec1573f0c8e465c07783ec0d55ad4aeea45dd900772"
    )
    EXPECTED_COUNTER_TOTALS = (35734, 35734, 16226, 19508, 0, 35734)

    def replay(self):
        flash = FlashConfig(
            channels=8,
            packages_per_channel=1,
            dies_per_package=2,
            planes_per_die=1,
            blocks_per_plane=64,
            pages_per_block=16,
        )
        device = SSDDevice(ECSSDConfig(flash=flash))
        per_channel = device.ftl.user_pages_per_channel
        filled = int(per_channel * 0.8)
        lpas = [
            lpa
            for c in range(flash.channels)
            for lpa in range(c * per_channel, c * per_channel + filled)
        ]
        for lo in range(0, len(lpas), 64):
            device.host_write(lpas[lo: lo + 64])
        rng = np.random.default_rng(20231017)
        writes = rng.random(self.BURSTS) < 0.3
        sizes = rng.integers(4, 29, size=self.BURSTS)
        picks = rng.integers(0, len(lpas), size=int(sizes.sum())).tolist()
        digest = hashlib.sha256()
        cursor = 0
        for write, size in zip(writes.tolist(), sizes.tolist()):
            burst = [lpas[p] for p in picks[cursor: cursor + size]]
            cursor += size
            finish = (device.host_write if write else device.host_read)(burst)
            digest.update(finish.hex().encode())
        return device, digest.hexdigest()

    def test_replay_is_bit_identical(self):
        device, digest = self.replay()
        ftl = device.ftl
        flash = device.config.flash
        erases = sum(
            ftl.block_erase_count(PhysicalAddress(channel, 0, die, 0, block, 0))
            for channel in range(flash.channels)
            for die in range(flash.dies_per_package)
            for block in range(flash.blocks_per_plane)
        )
        assert len(ftl.gc_events) > 0
        observed = (
            digest, device.clock.hex(), len(ftl.gc_events),
            ftl.pages_relocated, erases,
        )
        assert observed == (
            self.EXPECTED_DIGEST,
            self.EXPECTED_CLOCK,
            self.EXPECTED_GC_EVENTS,
            self.EXPECTED_RELOCATED,
            self.EXPECTED_ERASES,
        )

    @staticmethod
    def counters(device):
        """Per-resource counters of the replay, in a fixed order."""
        return (
            [
                (ch.bus.busy_time.hex(), ch.bus.acquisitions, ch.pages_transferred)
                for ch in device.channels
            ],
            [
                (die.reads, die.programs, die.erases, die.busy_time.hex())
                for ch in device.channels
                for die in ch.dies
            ],
            [ctrl.commands_issued for ctrl in device.controllers],
            [u.hex() for u in device.channel_bus_utilizations(device.clock)],
        )

    def test_resource_counters_are_bit_identical(self):
        device, _digest = self.replay()
        counters = self.counters(device)
        channels, dies, issued, _utilizations = counters
        digest = hashlib.sha256(repr(counters).encode()).hexdigest()
        totals = (
            sum(acquisitions for _busy, acquisitions, _pages in channels),
            sum(pages for _busy, _acquisitions, pages in channels),
            sum(reads for reads, _p, _e, _busy in dies),
            sum(programs for _r, programs, _e, _busy in dies),
            sum(erases for _r, _p, erases, _busy in dies),
            sum(issued),
        )
        assert (digest, totals) == (
            self.EXPECTED_COUNTERS_DIGEST, self.EXPECTED_COUNTER_TOTALS
        )

    def test_metrics_on_and_off_agree(self):
        """The metrics branches of the hot path never move simulated time."""
        _device, plain_digest = self.replay()
        with obs.configure() as session:
            device, digest = self.replay()
        assert (digest, device.clock.hex()) == (plain_digest, self.EXPECTED_CLOCK)
        counter = session.registry.get("flash_commands_total")
        issued = sum(ctrl.commands_issued for ctrl in device.controllers)
        assert counter.total() == issued


class TestFaultedBitIdentityPin:
    """The faulted SSD path (ECC ladder, weak pages, timeouts), pinned.

    Same geometry and fill as :class:`TestBitIdentityPin`, with a live
    :class:`FaultInjector` (non-zero RBER and command timeouts).  Bursts mix
    ``host_write``, ``host_read``, ``fetch_pages`` and direct controller
    ``submit`` calls.  Which reads come back uncorrectable depends on
    ``hash(address)``, so the failed addresses and the injector's ledger pin
    the address hash as well as the timing.
    """

    BURSTS = 1000
    EXPECTED_DIGEST = (
        "35918bff4c1b6349d005ae58c10b704fdcc89be3350e3184b0c96dd2c9852106"
    )
    EXPECTED_CLOCK = "0x1.c5affe3a11898p+2"
    # sha256 of the failed addresses' field tuples, in submit order.
    EXPECTED_FAILED_DIGEST = (
        "c873919554b480c25b27917f001cb76d834897a2755c858896be8052ae3b1f15"
    )
    EXPECTED_FAILED = 60
    # (reads attempted, tier counts, retries, timeouts, offline stalls)
    EXPECTED_LEDGER = (
        11695,
        (("fast", 0), ("retry", 11253), ("soft", 0), ("uncorrectable", 442)),
        24274,
        1508,
        3,
    )
    EXPECTED_GC_EVENTS = 165

    def replay(self):
        flash = FlashConfig(
            channels=8,
            packages_per_channel=1,
            dies_per_package=2,
            planes_per_die=1,
            blocks_per_plane=64,
            pages_per_block=16,
        )
        faults = FaultConfig(
            rber_scale=40.0, timeout_rate=0.05, offline_windows=6, horizon=8.0, seed=5
        )
        injector = FaultInjector(faults, channels=flash.channels)
        with hooks.installed(injector=injector):
            device = SSDDevice(ECSSDConfig(flash=flash))
            per_channel = device.ftl.user_pages_per_channel
            filled = int(per_channel * 0.8)
            lpas = [
                lpa
                for c in range(flash.channels)
                for lpa in range(c * per_channel, c * per_channel + filled)
            ]
            for lo in range(0, len(lpas), 64):
                device.host_write(lpas[lo: lo + 64])
            rng = np.random.default_rng(7)
            digest = hashlib.sha256()
            failed = []
            for _ in range(self.BURSTS):
                size = int(rng.integers(4, 29))
                picks = rng.integers(0, len(lpas), size=size).tolist()
                burst = [lpas[p] for p in picks]
                draw = rng.random()
                if draw < 0.3:
                    finish = device.host_write(burst)
                elif draw < 0.8:
                    finish = device.host_read(burst)
                elif draw < 0.9:
                    addresses = [device.ftl.lookup(lpa) for lpa in burst]
                    finish = device.fetch_pages(addresses).finish
                else:
                    channel = int(rng.integers(0, flash.channels))
                    commands = [
                        FlashCommand(
                            CommandKind.READ,
                            device.ftl.lookup(lpas[channel * filled + p % filled]),
                            device.geometry,
                        )
                        for p in picks
                    ]
                    result = device.controllers[channel].submit(device.clock, commands)
                    finish = result.finish
                    failed.extend(result.failed)
                    device.advance_clock(max(device.clock, finish))
                digest.update(finish.hex().encode())
            injector.check_conservation()
        ledger = (
            injector.reads_attempted,
            tuple(sorted(injector.tier_counts.items())),
            injector.retries_performed,
            injector.timeouts_injected,
            injector.offline_stalls,
        )
        return device, digest.hexdigest(), failed, ledger

    def test_faulted_replay_is_bit_identical(self):
        device, digest, failed, ledger = self.replay()
        fields = [
            (a.channel, a.package, a.die, a.plane, a.block, a.page) for a in failed
        ]
        failed_digest = hashlib.sha256(repr(fields).encode()).hexdigest()
        observed = (
            digest, device.clock.hex(), failed_digest, len(failed), ledger,
            len(device.ftl.gc_events),
        )
        assert observed == (
            self.EXPECTED_DIGEST,
            self.EXPECTED_CLOCK,
            self.EXPECTED_FAILED_DIGEST,
            self.EXPECTED_FAILED,
            self.EXPECTED_LEDGER,
            self.EXPECTED_GC_EVENTS,
        )
