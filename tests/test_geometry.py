"""Tests for flash geometry and address conversion (repro.ssd.geometry)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FlashConfig
from repro.errors import AddressError, CapacityError
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import FlashGeometry, PhysicalAddress


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
        assert PhysicalAddress(0, 0, 0, 0, 0, 1) < PhysicalAddress(0, 0, 0, 0, 0, 2)

    def test_physical_repr_is_pinned(self):
        assert repr(PhysicalAddress(1, 2, 3, 4, 5, 6)) == (
            "PhysicalAddress(channel=1, package=2, die=3, plane=4, block=5, page=6)"
        )

    def test_physical_orders_field_by_field(self):
        ordered = [
            PhysicalAddress(0, 0, 0, 0, 0, 9),
            PhysicalAddress(0, 0, 0, 0, 1, 0),
            PhysicalAddress(0, 0, 0, 1, 0, 0),
            PhysicalAddress(0, 0, 1, 0, 0, 0),
            PhysicalAddress(0, 1, 0, 0, 0, 0),
            PhysicalAddress(1, 0, 0, 0, 0, 0),
        ]
        assert sorted(reversed(ordered)) == ordered
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        assert not PhysicalAddress(2, 0, 0, 0, 0, 0) < PhysicalAddress(1, 9, 9, 9, 9, 9)

    def test_physical_hash_is_field_tuple_hash(self):
        # FaultInjector.read_outcome feeds hash(address) into its per-page
        # uniforms, so this value is part of every faulted replay.
        for fields in ((0, 0, 0, 0, 0, 0), (3, 1, 1, 0, 7, 15), (7, 0, 1, 0, 63, 2)):
            a = PhysicalAddress(*fields)
            assert hash(a) == hash(
                (a.channel, a.package, a.die, a.plane, a.block, a.page)
            )
            assert hash(a) == hash(PhysicalAddress(*fields))

    @pytest.mark.parametrize(
        "name", ["channel", "package", "die", "plane", "block", "page"]
    )
    def test_physical_is_immutable(self, name):
        a = PhysicalAddress(1, 1, 1, 1, 1, 1)
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        assert a == PhysicalAddress(1, 1, 1, 1, 1, 1)

    def test_physical_is_a_plain_six_tuple(self):
        a = PhysicalAddress(1, 2, 3, 4, 5, 6)
        assert a == (1, 2, 3, 4, 5, 6)
        assert tuple(a) == (1, 2, 3, 4, 5, 6)
        assert len(a) == 6
        channel, _package, _die, _plane, block, page = a
        assert (channel, block, page) == (1, 5, 6)


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
        cfg = geometry.config
        for flat in range(0, geometry.total_pages, 7):
            addr = geometry.to_physical(flat)
            assert type(addr) is PhysicalAddress
            assert flat == (
                (
                    (
                        (addr.channel * cfg.packages_per_channel + addr.package)
                        * cfg.dies_per_package + addr.die
                    ) * cfg.planes_per_die + addr.plane
                ) * cfg.blocks_per_plane + addr.block
            ) * cfg.pages_per_block + addr.page

    def test_split_out_of_range_rejected(self, geometry):
        for flat in (-1, geometry.total_pages):
            with pytest.raises(AddressError) as excinfo:
                geometry.to_physical(flat)
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
    def test_channel_page_range(self, geometry):
        r = geometry.channel_page_range(1)
        assert r.start == geometry.pages_per_channel
        assert len(r) == geometry.pages_per_channel
        with pytest.raises(AddressError):
            geometry.channel_page_range(99)

    def test_pages_for_bytes(self, geometry):
        page = geometry.page_size
        assert geometry.pages_for_bytes(0) == 0
        assert geometry.pages_for_bytes(1) == 1
        assert geometry.pages_for_bytes(page) == 1
        assert geometry.pages_for_bytes(page + 1) == 2
        with pytest.raises(AddressError):
            geometry.pages_for_bytes(-1)


fan_out = st.integers(min_value=1, max_value=4)


@st.composite
def geometries(draw):
    return FlashGeometry(FlashConfig(
        channels=draw(fan_out),
        packages_per_channel=draw(fan_out),
        dies_per_package=draw(fan_out),
        planes_per_die=draw(fan_out),
        blocks_per_plane=draw(fan_out),
        pages_per_block=draw(fan_out),
    ))


class TestUncheckedConstruction:
    """Addresses derived from a flat index skip the per-field checks.

    ``to_physical`` and ``FlashTranslationLayer.write`` build their
    addresses without re-validating them; these properties show that the
    flat range check alone keeps every field inside the fan-out.
    """

    @given(geometries(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_in_range_flat_yields_valid_address(self, geometry, data):
        flat = data.draw(st.integers(0, geometry.total_pages - 1))
        addr = geometry.to_physical(flat)
        assert type(addr) is PhysicalAddress
        geometry.check(addr)
        assert min(addr) >= 0
        assert geometry.to_flat(addr) == flat

    @given(geometries(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_out_of_range_flat_rejected(self, geometry, data):
        flat = data.draw(
            st.one_of(
                st.integers(max_value=-1),
                st.integers(min_value=geometry.total_pages),
            )
        )
        with pytest.raises(AddressError):
            geometry.to_physical(flat)

    @given(geometries(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_ftl_write_address_matches_its_flat(self, geometry, data):
        ftl = FlashTranslationLayer(geometry.config, gc_threshold=1, op_ratio=0.0)
        lpas = data.draw(
            st.lists(st.integers(0, ftl.user_pages - 1), max_size=40)
        )
        for lpa in lpas:
            try:
                addr = ftl.write(lpa)
            except CapacityError:
                break
            assert type(addr) is PhysicalAddress
            assert addr == geometry.to_physical(ftl._l2p[lpa])
            assert ftl.lookup(lpa) == addr
