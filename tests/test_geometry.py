"""Tests for flash geometry and address conversion (repro.ssd.geometry)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashConfig
from repro.errors import AddressError
from repro.ssd.geometry import FlashGeometry, LogicalAddress, PhysicalAddress


def small_config() -> FlashConfig:
    return FlashConfig(
        channels=4,
        packages_per_channel=2,
        dies_per_package=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
    )


@pytest.fixture
def geometry() -> FlashGeometry:
    return FlashGeometry(small_config())


class TestAddresses:
    def test_logical_rejects_negative(self):
        with pytest.raises(AddressError):
            LogicalAddress(-1)

    def test_physical_rejects_negative(self):
        with pytest.raises(AddressError):
            PhysicalAddress(0, 0, 0, 0, -1, 0)

    @pytest.mark.parametrize(
        "index, name",
        list(enumerate(("channel", "package", "die", "plane", "block", "page"))),
    )
    def test_physical_negative_message_names_first_field(self, index, name):
        fields = [0] * 6
        fields[index] = -1
        fields[5] = -2 if index < 5 else -1  # a later negative field too
        with pytest.raises(AddressError) as excinfo:
            PhysicalAddress(*fields)
        assert str(excinfo.value) == (
            f"negative {name} in PhysicalAddress(channel={fields[0]},"
            f" package={fields[1]}, die={fields[2]}, plane={fields[3]},"
            f" block={fields[4]}, page={fields[5]})"
        )

    def test_addresses_are_ordered(self):
        assert LogicalAddress(1) < LogicalAddress(2)
        assert PhysicalAddress(0, 0, 0, 0, 0, 1) < PhysicalAddress(0, 0, 0, 0, 0, 2)


class TestConversions:
    def test_zero_maps_to_origin(self, geometry):
        assert geometry.to_physical(0) == PhysicalAddress(0, 0, 0, 0, 0, 0)

    def test_last_page(self, geometry):
        last = geometry.total_pages - 1
        addr = geometry.to_physical(last)
        cfg = geometry.config
        assert addr.channel == cfg.channels - 1
        assert addr.page == cfg.pages_per_block - 1

    def test_channel_major_layout(self, geometry):
        # Page index pages_per_channel lands at the start of channel 1.
        addr = geometry.to_physical(geometry.pages_per_channel)
        assert addr == PhysicalAddress(1, 0, 0, 0, 0, 0)

    def test_out_of_range_rejected(self, geometry):
        with pytest.raises(AddressError):
            geometry.to_physical(geometry.total_pages)
        with pytest.raises(AddressError):
            geometry.to_physical(-1)

    def test_to_flat_checks_fanout(self, geometry):
        with pytest.raises(AddressError):
            geometry.to_flat(PhysicalAddress(99, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((4, 0, 0, 0, 0, 0), "channel=4 exceeds fan-out 4"),
            ((0, 2, 0, 0, 0, 0), "package=2 exceeds fan-out 2"),
            ((0, 0, 2, 0, 0, 0), "die=2 exceeds fan-out 2"),
            ((0, 0, 0, 2, 0, 0), "plane=2 exceeds fan-out 2"),
            ((0, 0, 0, 0, 8, 0), "block=8 exceeds fan-out 8"),
            ((0, 0, 0, 0, 0, 16), "page=16 exceeds fan-out 16"),
            ((0, 0, 0, 0, 99, 99), "block=99 exceeds fan-out 8"),
        ],
    )
    def test_check_names_first_offending_field(self, geometry, fields, message):
        addr = PhysicalAddress(*fields)
        with pytest.raises(AddressError) as excinfo:
            geometry.check(addr)
        assert str(excinfo.value) == f"{message} in {addr!r}"

    def test_split_matches_to_physical(self, geometry):
        for flat in range(0, geometry.total_pages, 7):
            addr = geometry.to_physical(flat)
            assert geometry.split(flat) == (
                (addr.channel, addr.package, addr.die, addr.plane),
                addr.block,
                addr.page,
            )

    def test_split_out_of_range_rejected(self, geometry):
        for flat in (-1, geometry.total_pages):
            with pytest.raises(AddressError) as excinfo:
                geometry.split(flat)
            assert str(excinfo.value) == (
                f"flat page {flat} outside [0, {geometry.total_pages})"
            )

    @given(st.integers(min_value=0, max_value=4 * 2 * 2 * 2 * 8 * 16 - 1))
    @settings(max_examples=200)
    def test_roundtrip(self, flat):
        geometry = FlashGeometry(small_config())
        assert geometry.to_flat(geometry.to_physical(flat)) == flat

    @given(
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 7),
        st.integers(0, 15),
    )
    @settings(max_examples=200)
    def test_roundtrip_structured(self, ch, pkg, die, plane, block, page):
        geometry = FlashGeometry(small_config())
        addr = PhysicalAddress(ch, pkg, die, plane, block, page)
        assert geometry.to_physical(geometry.to_flat(addr)) == addr


class TestDerivedViews:
    def test_channel_of_matches_decode(self, geometry):
        for flat in range(0, geometry.total_pages, 97):
            assert geometry.channel_of(flat) == geometry.to_physical(flat).channel

    def test_channel_of_bounds(self, geometry):
        with pytest.raises(AddressError):
            geometry.channel_of(geometry.total_pages)

    def test_die_index_is_global(self, geometry):
        # First page of channel 1 starts a new die index block.
        per_die = geometry.config.pages_per_die
        assert geometry.die_index_of(0) == 0
        assert geometry.die_index_of(per_die) == 1

    def test_channel_page_range(self, geometry):
        r = geometry.channel_page_range(1)
        assert r.start == geometry.pages_per_channel
        assert len(r) == geometry.pages_per_channel
        with pytest.raises(AddressError):
            geometry.channel_page_range(99)

    def test_iter_channels(self, geometry):
        assert list(geometry.iter_channels()) == [0, 1, 2, 3]

    def test_pages_for_bytes(self, geometry):
        page = geometry.page_size
        assert geometry.pages_for_bytes(0) == 0
        assert geometry.pages_for_bytes(1) == 1
        assert geometry.pages_for_bytes(page) == 1
        assert geometry.pages_for_bytes(page + 1) == 2
        with pytest.raises(AddressError):
            geometry.pages_for_bytes(-1)
