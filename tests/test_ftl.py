"""Tests for the FTL: mapping, GC, wear leveling, channel ranges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashConfig
from repro.errors import AddressError, CapacityError, SimulationError
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import PhysicalAddress


def tiny_config(**overrides) -> FlashConfig:
    params = dict(
        channels=2,
        packages_per_channel=1,
        dies_per_package=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=4,
    )
    params.update(overrides)
    return FlashConfig(**params)


class TestChannelRanges:
    def test_ranges_are_disjoint_and_ordered(self):
        ftl = FlashTranslationLayer(tiny_config())
        r0 = ftl.channel_logical_range(0)
        r1 = ftl.channel_logical_range(1)
        assert r0.stop == r1.start
        assert len(r0) == len(r1) == ftl.user_pages_per_channel

    def test_user_capacity_excludes_overprovisioning(self):
        cfg = tiny_config()
        ftl = FlashTranslationLayer(cfg, op_ratio=0.25)
        assert ftl.user_pages_per_channel == int(cfg.pages_per_channel * 0.75)

    def test_channel_of_logical_matches_ranges(self):
        ftl = FlashTranslationLayer(tiny_config())
        for channel in range(2):
            for lpa in ftl.channel_logical_range(channel):
                assert ftl.channel_of_logical(lpa) == channel

    def test_out_of_range_rejected(self):
        ftl = FlashTranslationLayer(tiny_config())
        with pytest.raises(AddressError):
            ftl.channel_of_logical(ftl.user_pages)
        with pytest.raises(AddressError):
            ftl.channel_logical_range(5)


class TestMapping:
    def test_write_lands_on_assigned_channel(self):
        ftl = FlashTranslationLayer(tiny_config())
        for channel in range(2):
            lpa = ftl.channel_logical_range(channel).start
            assert ftl.write(lpa).channel == channel

    def test_lookup_returns_written_address(self):
        ftl = FlashTranslationLayer(tiny_config())
        addr = ftl.write(3)
        assert ftl.lookup(3) == addr

    def test_unmapped_lookup_fails(self):
        ftl = FlashTranslationLayer(tiny_config())
        with pytest.raises(AddressError):
            ftl.lookup(0)

    def test_overwrite_moves_physical_page(self):
        ftl = FlashTranslationLayer(tiny_config())
        first = ftl.write(0)
        second = ftl.write(0)
        assert first != second
        assert ftl.lookup(0) == second
        assert ftl.mapped_pages == 1

    def test_distinct_lpas_get_distinct_ppas(self):
        ftl = FlashTranslationLayer(tiny_config())
        seen = set()
        for lpa in range(10):
            addr = ftl.write(lpa)
            flat = ftl.geometry.to_flat(addr)
            assert flat not in seen
            seen.add(flat)


class TestGarbageCollection:
    def test_overwrite_churn_triggers_gc(self):
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        # Hammer a small working set far beyond one plane's capacity.
        for i in range(200):
            ftl.write(i % 3)
        assert ftl.gc_events, "GC never ran under overwrite churn"
        # All live data still resolvable.
        for lpa in range(3):
            ftl.lookup(lpa)

    def test_gc_preserves_mapping_contents(self):
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        stable = {10, 11}
        for lpa in stable:
            ftl.write(lpa)
        before = {lpa: ftl.geometry.to_flat(ftl.lookup(lpa)) for lpa in stable}
        for i in range(300):
            ftl.write(i % 4)
        # The stable pages are still mapped (possibly relocated).
        for lpa in stable:
            assert ftl.is_mapped(lpa)
        assert ftl.mapped_pages == len(stable | {0, 1, 2, 3})
        assert before  # silence unused warning; relocation is allowed

    def test_gc_victim_relocation_counted(self):
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        for i in range(300):
            ftl.write(i % 4)
        assert ftl.pages_relocated >= 0
        total_relocated = sum(e.relocated_pages for e in ftl.gc_events)
        assert total_relocated == ftl.pages_relocated

    def test_gc_dead_end_on_full_plane(self):
        """Filling channel 0, then churning LPA 0, must not exhaust the plane.

        The fill leaves every full block fully valid, so GC finds no victim
        and allocation drains the free heap.  When the last block fills, the
        victim it then picks still holds a valid page and no free block is
        left, so GC compacts that victim in place.
        """
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        ftl.write(0)
        for lpa in range(1, 29):
            ftl.write(lpa)
        for _ in range(40):
            ftl.write(0)
        assert_bookkeeping(ftl)
        assert ftl.mapped_pages == 29
        assert ftl.gc_events

    def test_refresh_without_free_block_compacts_in_place(self):
        """Refreshing a fully valid block with no free block left fills the
        open block, then reprograms the rest into the erased block."""
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        for lpa in range(29):
            ftl.write(lpa)
        plane = (0, 0, 0, 0)
        assert not ftl._planes[plane].free_heap
        assert ftl.refresh_block(plane, 0) == 4
        assert_bookkeeping(ftl)
        assert ftl.mapped_pages == 29
        state = ftl._planes[plane]
        assert state.active is state.blocks[0]
        assert state.blocks[0].erase_count == 1
        assert [ftl.lookup(lpa).block for lpa in range(4)] == [7, 7, 7, 0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            FlashTranslationLayer(tiny_config(), gc_threshold=0)
        with pytest.raises(SimulationError):
            FlashTranslationLayer(tiny_config(), op_ratio=0.9)


class TestWearLeveling:
    def test_erases_spread_across_blocks(self):
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        for i in range(600):
            ftl.write(i % 3)
        lo, hi, mean = ftl.wear_stats()
        assert hi >= 1, "no erases happened"
        # Min-wear allocation keeps the spread tight.
        assert hi - lo <= max(3, hi // 2)

    def test_wear_stats_empty_device(self):
        ftl = FlashTranslationLayer(tiny_config())
        assert ftl.wear_stats() == (0, 0, 0.0)


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_mapping_always_consistent(self, writes):
        """After any write sequence, every written LPA resolves to a unique
        physical page on its statically assigned channel."""
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        for lpa in writes:
            ftl.write(lpa)
        live = set(writes)
        flats = set()
        for lpa in live:
            addr = ftl.lookup(lpa)
            assert addr.channel == ftl.channel_of_logical(lpa)
            flat = ftl.geometry.to_flat(addr)
            assert flat not in flats
            flats.add(flat)
        assert ftl.mapped_pages == len(live)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "write", "write", "refresh"]),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=150,
            max_size=300,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_bookkeeping_survives_gc_and_refresh(self, ops):
        """Interleaved writes and refreshes keep every ledger exact.

        LPAs 0..28 cover all of channel 0's user space and 29..40 part of
        channel 1's, so the write share of any drawn sequence forces GC.
        """
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=2)
        for kind, lpa in ops:
            if kind == "write":
                ftl.write(lpa)
            else:
                refreshable = ftl.iter_refreshable_blocks()
                if refreshable:
                    ftl.refresh_block(*refreshable[lpa % len(refreshable)])
            assert_bookkeeping(ftl)
        assert ftl.gc_events


def assert_bookkeeping(ftl: FlashTranslationLayer) -> None:
    """Valid counts, valid bits and the two maps all agree.

    ``lookup`` builds each address from its block's stored prefix; it must
    equal the full decode of the mapped flat index.
    """
    total_valid = 0
    for state in ftl._planes.values():
        for block in state.blocks.values():
            assert block.valid_count == sum(block.valid)
            total_valid += block.valid_count
    assert len(ftl._l2p) == len(ftl._p2l)
    for lpa, flat in ftl._l2p.items():
        assert ftl._p2l[flat] == lpa
        address = ftl.lookup(lpa)
        assert type(address) is PhysicalAddress
        assert address == ftl.geometry.to_physical(flat)
    for flat in ftl._p2l:
        addr = ftl.geometry.to_physical(flat)
        plane_key = (addr.channel, addr.package, addr.die, addr.plane)
        assert ftl._planes[plane_key].blocks[addr.block].valid[addr.page]
    assert total_valid == ftl.mapped_pages


class TestCapacityExhaustion:
    """The exhausted-plane error carries enough state to diagnose it."""

    def exhaust(self):
        ftl = FlashTranslationLayer(tiny_config(), gc_threshold=1, op_ratio=0.0)
        for lpa in ftl.channel_logical_range(0):
            ftl.write(lpa)
        with pytest.raises(CapacityError) as excinfo:
            # Every page is valid, so GC has no victim and the overwrite's
            # relocation target cannot be allocated.
            ftl.write(ftl.channel_logical_range(0).start)
        return ftl, str(excinfo.value)

    def test_overfilled_plane_raises(self):
        self.exhaust()

    def test_error_reports_plane_state(self):
        ftl, message = self.exhaust()
        assert "no free blocks" in message
        assert f"/{ftl.config.blocks_per_plane} blocks touched" in message
        assert "valid pages pinned" in message
        assert "erase counts" in message
        assert "gc_threshold=1" in message
        assert "op_ratio=0.0" in message


class TestReliabilityHooks:
    def test_block_erase_count_ground_truth(self):
        ftl = FlashTranslationLayer(tiny_config())
        addr = ftl.write(0)
        assert ftl.block_erase_count(addr) == 0
        virgin = PhysicalAddress(1, 0, 0, 0, 7, 0)
        assert ftl.block_erase_count(virgin) == 0

    def test_refreshable_blocks_sorted_and_full(self):
        ftl = FlashTranslationLayer(tiny_config())
        for lpa in range(12):
            ftl.write(lpa)
        refreshable = ftl.iter_refreshable_blocks()
        assert refreshable == sorted(refreshable)
        for plane_key, block_index in refreshable:
            block = ftl._planes[plane_key].blocks[block_index]
            assert block.is_full and block.valid_pages > 0

    def test_refresh_preserves_mapping_and_bumps_wear(self):
        ftl = FlashTranslationLayer(tiny_config())
        lpas = list(range(12))
        for lpa in lpas:
            ftl.write(lpa)
        refreshable = ftl.iter_refreshable_blocks()
        assert refreshable
        plane_key, block_index = refreshable[0]
        before = ftl._planes[plane_key].blocks[block_index].valid_pages
        migrated = ftl.refresh_block(plane_key, block_index)
        assert migrated == before
        for lpa in lpas:
            ftl.lookup(lpa)
        assert ftl._planes[plane_key].blocks[block_index].erase_count >= 1

    def test_refresh_rejects_unwritten_or_open_blocks(self):
        ftl = FlashTranslationLayer(tiny_config())
        with pytest.raises(AddressError):
            ftl.refresh_block((0, 0, 0, 0), 5)
        ftl.write(0)  # opens (but does not fill) the active block
        active = ftl._planes[(0, 0, 0, 0)].active
        with pytest.raises(SimulationError):
            ftl.refresh_block((0, 0, 0, 0), active.block)
