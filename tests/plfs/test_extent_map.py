"""Unit and property tests for the extent map (overlap resolution core)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plfs.index import ExtentMap


def seg(m):
    return m.segments()


class TestAssignBasics:
    def test_empty(self):
        m = ExtentMap()
        assert len(m) == 0
        assert m.extent_end() == 0
        assert seg(m) == []

    def test_single(self):
        m = ExtentMap()
        m.assign(10, 20, 1, 100)
        assert seg(m) == [(10, 20, 1, 100)]
        assert m.extent_end() == 20

    def test_zero_length_ignored(self):
        m = ExtentMap()
        m.assign(5, 5, 1, 0)
        m.assign(7, 3, 1, 0)
        assert len(m) == 0

    def test_disjoint_inserts_stay_sorted(self):
        m = ExtentMap()
        m.assign(30, 40, 3, 0)
        m.assign(0, 10, 1, 0)
        m.assign(15, 20, 2, 0)
        assert seg(m) == [(0, 10, 1, 0), (15, 20, 2, 0), (30, 40, 3, 0)]

    def test_adjacent_not_merged(self):
        m = ExtentMap()
        m.assign(0, 10, 1, 0)
        m.assign(10, 20, 2, 0)
        assert seg(m) == [(0, 10, 1, 0), (10, 20, 2, 0)]


class TestOverlapResolution:
    def test_exact_overwrite(self):
        m = ExtentMap()
        m.assign(0, 10, 1, 0)
        m.assign(0, 10, 2, 50)
        assert seg(m) == [(0, 10, 2, 50)]

    def test_overwrite_middle_splits(self):
        m = ExtentMap()
        m.assign(0, 30, 1, 0)
        m.assign(10, 20, 2, 77)
        assert seg(m) == [
            (0, 10, 1, 0),
            (10, 20, 2, 77),
            (20, 30, 1, 20),  # right fragment keeps phys advanced by 20
        ]

    def test_overwrite_left_edge(self):
        m = ExtentMap()
        m.assign(0, 30, 1, 0)
        m.assign(0, 10, 2, 0)
        assert seg(m) == [(0, 10, 2, 0), (10, 30, 1, 10)]

    def test_overwrite_right_edge(self):
        m = ExtentMap()
        m.assign(0, 30, 1, 0)
        m.assign(20, 30, 2, 0)
        assert seg(m) == [(0, 20, 1, 0), (20, 30, 2, 0)]

    def test_overwrite_spanning_multiple(self):
        m = ExtentMap()
        m.assign(0, 10, 1, 0)
        m.assign(10, 20, 2, 0)
        m.assign(20, 30, 3, 0)
        m.assign(5, 25, 9, 500)
        assert seg(m) == [(0, 5, 1, 0), (5, 25, 9, 500), (25, 30, 3, 5)]

    def test_overwrite_swallowing_everything(self):
        m = ExtentMap()
        for i in range(5):
            m.assign(i * 10, i * 10 + 10, i, 0)
        m.assign(0, 100, 42, 0)
        assert seg(m) == [(0, 100, 42, 0)]

    def test_new_extent_inside_hole(self):
        m = ExtentMap()
        m.assign(0, 10, 1, 0)
        m.assign(50, 60, 2, 0)
        m.assign(20, 30, 3, 0)
        assert seg(m) == [(0, 10, 1, 0), (20, 30, 3, 0), (50, 60, 2, 0)]


class TestAsArrays:
    def test_arrays_match_segments(self):
        m = ExtentMap()
        m.assign(0, 10, 1, 5)
        m.assign(20, 25, 2, 7)
        starts, lengths, drops, phys = m.as_arrays()
        assert starts.tolist() == [0, 20]
        assert lengths.tolist() == [10, 5]
        assert drops.tolist() == [1, 2]
        assert phys.tolist() == [5, 7]
        assert starts.typecode == lengths.typecode == drops.typecode == phys.typecode == "q"


# --------------------------------------------------------------------- #
# Property: ExtentMap behaves like writes into a byte-addressed array.
# --------------------------------------------------------------------- #

FILE_LIMIT = 512

writes_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=FILE_LIMIT - 1),  # start
        st.integers(min_value=1, max_value=64),  # length
    ),
    min_size=0,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(writes_strategy)
def test_extent_map_matches_array_model(writes):
    """Replaying the same writes into a plain array must agree byte-for-byte
    with the extent map (which write owns each byte)."""
    m = ExtentMap()
    model = [-1] * (FILE_LIMIT + 64)
    for write_id, (start, length) in enumerate(writes):
        end = start + length
        m.assign(start, end, write_id, start * 1000)
        model[start:end] = [write_id] * length

    # Segment view and model must agree on ownership of every byte.
    owner = [-1] * (FILE_LIMIT + 64)
    for s, e, d, p in m.segments():
        assert s < e
        owner[s:e] = [d] * (e - s)
        # physical offset must be consistent with the original write: the
        # original write of id d started at some start0 with phys
        # start0*1000, so p - s*? ... the fragment's physical offset equals
        # original_phys + (s - original_start); original_phys was
        # original_start*1000 so p == original_start*1000 + s - original_start.
        orig_start, orig_len = writes[d]
        assert p == orig_start * 1000 + (s - orig_start)
        assert orig_start <= s and e <= orig_start + orig_len

    assert owner == model

    # Segments must be sorted and non-overlapping.
    segs = m.segments()
    for (s1, e1, *_), (s2, e2, *_) in zip(segs, segs[1:]):
        assert e1 <= s2


@settings(max_examples=100, deadline=None)
@given(writes_strategy)
def test_extent_end_matches_max_write_end(writes):
    m = ExtentMap()
    for write_id, (start, length) in enumerate(writes):
        m.assign(start, start + length, write_id, 0)
    expected = max((s + l for s, l in writes), default=0)
    assert m.extent_end() == expected


@pytest.mark.parametrize("n", [1, 10, 100])
def test_sequential_appends_stay_linear(n):
    m = ExtentMap()
    for i in range(n):
        m.assign(i * 8, (i + 1) * 8, 0, i * 8)
    assert len(m) == n
    assert m.extent_end() == n * 8
