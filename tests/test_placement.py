"""Tests for the placement framework (repro.layout.placement)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.layout.placement import WeightPlacement, build_placement
from repro.layout.uniform import UniformInterleaving


def uniform_placement(num_vectors=64, channels=4, vector_bytes=4096, page=4096):
    return build_placement(
        UniformInterleaving(), num_vectors, channels, vector_bytes, page
    )


class TestBuildPlacement:
    def test_slots_are_dense_per_channel(self):
        pl = uniform_placement(num_vectors=16, channels=4)
        for channel in range(4):
            slots = np.sort(pl.slot_of[pl.channel_of == channel])
            np.testing.assert_array_equal(slots, np.arange(len(slots)))

    def test_strategy_name_recorded(self):
        assert uniform_placement().strategy_name == "uniform"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_placement(UniformInterleaving(), 0, 4, 4096, 4096)
        with pytest.raises(ConfigurationError):
            build_placement(UniformInterleaving(), 8, 0, 4096, 4096)
        with pytest.raises(ConfigurationError):
            build_placement(UniformInterleaving(), 8, 4, 0, 4096)


class TestPackingArithmetic:
    def test_page_sized_vectors(self):
        pl = uniform_placement(vector_bytes=4096, page=4096)
        assert pl.vectors_per_page == 1
        assert pl.pages_per_vector == 1

    def test_half_page_vectors_share(self):
        pl = uniform_placement(vector_bytes=2048, page=4096)
        assert pl.vectors_per_page == 2

    def test_multi_page_vectors(self):
        pl = uniform_placement(vector_bytes=6000, page=4096)
        assert pl.vectors_per_page == 0
        assert pl.pages_per_vector == 2

    def test_channel_pages_page_sized(self):
        pl = uniform_placement(num_vectors=64, channels=4, vector_bytes=4096)
        assert pl.channel_pages(0) == 16

    def test_channel_pages_shared(self):
        pl = uniform_placement(num_vectors=64, channels=4, vector_bytes=2048)
        assert pl.channel_pages(0) == 8


class TestPagesPerChannel:
    def test_empty_candidates(self):
        pl = uniform_placement()
        np.testing.assert_array_equal(pl.pages_per_channel(np.array([])), [0, 0, 0, 0])

    def test_counts_match_assignment(self):
        pl = uniform_placement(num_vectors=16, channels=4)
        counts = pl.pages_per_channel(np.arange(16))
        np.testing.assert_array_equal(counts, [4, 4, 4, 4])

    def test_shared_pages_counted_once(self):
        pl = uniform_placement(num_vectors=16, channels=4, vector_bytes=2048)
        # Vectors 0 and 4 share channel 0's first page.
        counts = pl.pages_per_channel(np.array([0, 4]))
        np.testing.assert_array_equal(counts, [1, 0, 0, 0])

    def test_multi_page_vectors_count_fully(self):
        pl = uniform_placement(num_vectors=8, channels=4, vector_bytes=6000)
        counts = pl.pages_per_channel(np.array([0, 1]))
        np.testing.assert_array_equal(counts, [2, 2, 0, 0])

    def test_late_pages_counted_from_their_span(self):
        # Only pages far into each channel are read; counting must not
        # depend on where the span starts.
        pl = uniform_placement(num_vectors=64, channels=4, vector_bytes=1024)
        counts = pl.pages_per_channel(np.arange(48, 64))
        np.testing.assert_array_equal(counts, [1, 1, 1, 1])

    def test_out_of_range_candidates_rejected(self):
        pl = uniform_placement(num_vectors=8)
        with pytest.raises(WorkloadError):
            pl.pages_per_channel(np.array([99]))
        with pytest.raises(WorkloadError):
            pl.pages_per_channel(np.array([-1]))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_total_pages_bounded_property(self, seed):
        """Page counts never exceed candidate count (sharing only merges)
        and cover every candidate's channel."""
        rng = np.random.default_rng(seed)
        num_vectors = int(rng.integers(8, 200))
        channels = int(rng.integers(1, 9))
        vector_bytes = int(rng.choice([1024, 2048, 4096, 6000]))
        pl = build_placement(
            UniformInterleaving(), num_vectors, channels, vector_bytes, 4096
        )
        k = int(rng.integers(1, num_vectors + 1))
        candidates = rng.choice(num_vectors, size=k, replace=False)
        counts = pl.pages_per_channel(candidates)
        assert counts.sum() <= k * max(1, pl.pages_per_vector)
        assert counts.sum() >= -(-k // max(1, pl.vectors_per_page or 1))
        touched = set(pl.channel_of[candidates].tolist())
        assert set(np.flatnonzero(counts).tolist()) <= touched

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_unique_key_reference(self, seed):
        """Sort-and-mask page dedup matches the np.unique formulation,
        repeated candidates included: vectors that span pages count each
        distinct (channel, slot) once."""
        rng = np.random.default_rng(seed)
        num_vectors = int(rng.integers(1, 300))
        channels = int(rng.integers(1, 9))
        vector_bytes = int(rng.choice([512, 1024, 2048, 4096, 6000]))
        pl = build_placement(
            UniformInterleaving(), num_vectors, channels, vector_bytes, 4096
        )
        candidates = rng.integers(0, num_vectors, size=int(rng.integers(1, 400)))
        expected = np.zeros(channels, dtype=np.int64)
        chans = pl.channel_of[candidates]
        if pl.vectors_per_page:
            pages = pl.slot_of[candidates] // pl.vectors_per_page
            keys = np.unique(chans.astype(np.int64) * (2**40) + pages)
            np.add.at(expected, (keys // (2**40)).astype(np.int64), 1)
        else:
            keys = np.unique(chans.astype(np.int64) * (2**40) + pl.slot_of[candidates])
            np.add.at(
                expected, (keys // (2**40)).astype(np.int64), pl.pages_per_vector
            )
        counts = pl.pages_per_channel(candidates)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)


def sorted_key_page_counts(placement, candidates):
    """The sort-and-mark-first-occurrences page count, kept as the oracle."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return np.zeros(placement.num_channels, dtype=np.int64)
    channels = placement.channel_of[candidates]
    units = placement.slot_of[candidates]
    if placement.vectors_per_page:
        units = units // placement.vectors_per_page
    keys = np.sort(channels.astype(np.int64) * (2**40) + units)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    counts = np.bincount(keys[first] // (2**40), minlength=placement.num_channels)
    if placement.vectors_per_page:
        return counts
    # A vector spanning pages reads all of them; distinct slots never share one.
    return counts * placement.pages_per_vector


@st.composite
def placements_and_candidates(draw):
    """A dense-slot placement (channels may stay empty), candidates with
    repeats, and an in-place edit of ``channel_of``."""
    channels = draw(st.integers(1, 6))
    # Vectors never use the last channel when ``spare`` is drawn.
    spare = draw(st.booleans()) and channels > 1
    used = channels - 1 if spare else channels
    num_vectors = draw(st.integers(1, 80))
    channel_of = np.array(
        draw(st.lists(st.integers(0, used - 1), min_size=num_vectors,
                      max_size=num_vectors)),
        dtype=np.int64,
    )
    slot_of = np.zeros(num_vectors, dtype=np.int64)
    for channel in range(channels):
        members = np.flatnonzero(channel_of == channel)
        slot_of[members] = np.arange(len(members))
    placement = WeightPlacement(
        num_vectors=num_vectors,
        num_channels=channels,
        vector_bytes=draw(st.sampled_from([256, 1000, 2048, 4096, 6000, 9000])),
        page_size=4096,
        channel_of=channel_of,
        slot_of=slot_of,
        strategy_name="drawn",
    )
    candidates = np.array(
        draw(st.lists(st.integers(0, num_vectors - 1), max_size=120)),
        dtype=np.int64,
    )
    edits = draw(st.lists(
        st.tuples(st.integers(0, num_vectors - 1), st.integers(0, channels - 1)),
        max_size=10,
    ))
    return placement, candidates, edits


class TestPagesPerChannelOracle:
    @given(placements_and_candidates())
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_key_reference(self, case):
        placement, candidates, edits = case
        for edited in (False, True):
            counts = placement.pages_per_channel(candidates)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(
                counts, sorted_key_page_counts(placement, candidates)
            )
            # The counts are the lengths of the deduplicated page lists,
            # repeated candidates and slots shared after an edit included.
            lists = placement.fetch_page_lists(candidates)
            for channel in range(placement.num_channels):
                assert len(lists.get(channel, [])) == counts[channel]
            # Placements are edited in place (re-interleaving): the next
            # call must see the new channels.
            for vector, channel in edits:
                placement.channel_of[vector] = channel

    def test_empty_channel_reads_nothing(self):
        placement = WeightPlacement(
            num_vectors=4, num_channels=3, vector_bytes=1024, page_size=4096,
            channel_of=np.array([0, 0, 2, 2]), slot_of=np.array([0, 1, 0, 1]),
            strategy_name="manual",
        )
        np.testing.assert_array_equal(
            placement.pages_per_channel(np.array([0, 1, 1, 2, 3])), [1, 0, 1]
        )


class TestCandidateIdTypes:
    @pytest.mark.parametrize(
        "bad", [np.array([0.7, 3.9]), np.array([True, False]), np.array([1.0])]
    )
    def test_pages_per_channel_rejects_non_integer_ids(self, bad):
        pl = uniform_placement()
        with pytest.raises(WorkloadError, match="must be integers"):
            pl.pages_per_channel(bad)

    @pytest.mark.parametrize(
        "bad", [np.array([0.7, 3.9]), np.array([True, False]), np.array([1.0])]
    )
    def test_fetch_page_lists_rejects_non_integer_ids(self, bad):
        pl = uniform_placement()
        with pytest.raises(WorkloadError, match="must be integers"):
            pl.fetch_page_lists(bad)

    def test_empty_untyped_candidates_allowed(self):
        pl = uniform_placement()
        np.testing.assert_array_equal(pl.pages_per_channel([]), [0, 0, 0, 0])
        assert pl.fetch_page_lists(np.asarray([])) == {}


class TestFetchPageLists:
    def test_lists_match_counts(self):
        pl = uniform_placement(num_vectors=32, channels=4)
        candidates = np.array([0, 1, 2, 5, 9, 13])
        counts = pl.pages_per_channel(candidates)
        lists = pl.fetch_page_lists(candidates)
        for channel, pages in lists.items():
            assert len(pages) == counts[channel]
            assert (np.diff(pages) > 0).all()

    def test_empty(self):
        pl = uniform_placement()
        assert pl.fetch_page_lists(np.array([])) == {}

    def test_multi_page_lists(self):
        pl = uniform_placement(num_vectors=8, channels=2, vector_bytes=8192)
        lists = pl.fetch_page_lists(np.array([0]))
        np.testing.assert_array_equal(lists[0], [0, 1])
