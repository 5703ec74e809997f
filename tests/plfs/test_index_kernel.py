"""Differential tests: the array-native index build against the sweep.

``GlobalIndex.add_records`` turns a batch whose extents it observes to be
disjoint into the index with one sort, and hands every other batch to the
``ExtentMap`` sweep.  The sweep applied record by record in completion
order is the reference here: whatever path the kernel takes, segments,
read plans and compacted bytes must equal the reference's.
"""

from __future__ import annotations

import os
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import plfs
from repro.plfs import constants
from repro.plfs.index import (
    ExtentMap,
    GlobalIndex,
    ReadSlice,
    pack_compacted,
    pack_records,
    read_index_dropping,
    unpack_records,
    with_dropping,
)


def records_from(rows) -> bytes:
    """(logical_offset, length, dropping, physical_offset, timestamp) rows."""
    return pack_records((lo, po, ln, dr, 7, ts) for lo, ln, dr, po, ts in rows)


def sweep(batches, base: ExtentMap | None = None) -> ExtentMap:
    """The reference: every record assigned in completion order, batch
    after batch, over *base*."""
    extents = base if base is not None else ExtentMap()
    for records in batches:
        # sorted() is stable: equal timestamps keep their order in the batch
        for r in sorted(unpack_records(records), key=lambda r: r.timestamp):
            extents.assign(r.logical_offset, r.logical_offset + r.length, r.dropping,
                           r.physical_offset)
    return extents


def assert_same_index(index: GlobalIndex, reference: ExtentMap) -> None:
    assert index.segments() == reference.segments()
    assert len(index) == len(reference)
    assert index.logical_size == reference.extent_end()
    expected = GlobalIndex.from_flat_segments(*reference.as_arrays())
    size = reference.extent_end()
    for offset, length in ((0, size + 10), (size // 3, size // 2 + 1), (size, 5)):
        assert index.query(offset, length) == expected.query(offset, length)
    paths = [f"hostdir.0/dropping.data.{i}" for i in range(4)]
    assert pack_compacted(index.as_arrays(), paths, "epoch", size) == pack_compacted(
        reference.as_arrays(), paths, "epoch", size
    )


# A handful of timestamps, so equal ones (resolved by append order) are common.
timestamps = st.sampled_from([1.0, 2.0, 2.0, 3.5, 9.0])
droppings = st.integers(0, 3)
physical = st.integers(0, 1 << 20)

#: any records: overlapping, nested, duplicated, zero-length
arbitrary_rows = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 40), droppings, physical, timestamps),
    min_size=1,
    max_size=30,
)


@st.composite
def disjoint_rows(draw):
    """Extents that never overlap (holes and zero-length records mixed in),
    in shuffled order and with arbitrary timestamps: the strided N-1
    pattern the kernel serves without the sweep."""
    pieces = draw(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 40), droppings, physical, timestamps),
            min_size=1,
            max_size=30,
        )
    )
    rows, pos = [], draw(st.integers(0, 50))
    for gap, length, dr, po, ts in pieces:
        pos += gap
        rows.append((pos, length, dr, po, ts))
        pos += length
    return draw(st.permutations(rows))


batches = st.lists(st.one_of(arbitrary_rows, disjoint_rows()), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(batches=batches)
def test_add_records_matches_sweep(batches):
    arrays = [records_from(rows) for rows in batches]
    index = GlobalIndex()
    for records in arrays:
        index.add_records(records)
    assert_same_index(index, sweep(arrays))


@settings(max_examples=100, deadline=None)
@given(batches=batches)
def test_constructor_concatenation_matches_sweep(batches):
    arrays = [records_from(rows) for rows in batches]
    assert_same_index(GlobalIndex(arrays), sweep([b"".join(arrays)]))


@settings(max_examples=150, deadline=None)
@given(base=disjoint_rows(), batches=batches)
def test_batches_over_flat_segments_match_sweep(base, batches):
    flat = sweep([records_from(base)]).as_arrays()
    index = GlobalIndex.from_flat_segments(*flat)
    arrays = [records_from(rows) for rows in batches]
    for records in arrays:
        index.add_records(records)
    assert_same_index(index, sweep(arrays, ExtentMap.from_arrays(*flat)))


def reference_plan(extents: ExtentMap, offset: int, length: int) -> list:
    """The read plan for [offset, offset+length) derived from the sweep's
    segments one by one — no bisection, no views, no last-hit memory."""
    end = min(offset + length, extents.extent_end())
    plan, pos = [], offset
    for s, e, dropping, physical in extents.segments():
        if length <= 0 or e <= pos or s >= end:
            continue
        if s > pos:
            plan.append(ReadSlice(pos, s - pos, constants.HOLE, 0))
        lo, hi = max(s, pos), min(e, end)
        plan.append(ReadSlice(lo, hi - lo, dropping, physical + lo - s))
        pos = hi
    if length > 0 and pos < end:
        plan.append(ReadSlice(pos, end - pos, constants.HOLE, 0))
    return plan


#: windows that start and end inside segments, span holes, have no length,
#: begin at or reach past EOF (offsets go to 500 over extents ending <= ~1300)
windows = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 400)), min_size=1, max_size=12
)


def assert_plans_match(index: GlobalIndex, reference: ExtentMap, windows) -> None:
    size = reference.extent_end()
    edges = [(0, size), (0, size + 7), (size, 3), (max(size - 1, 0), 5), (size + 5, 1)]
    for offset, length in [*windows, *edges]:
        assert index.query(offset, length) == reference_plan(reference, offset, length), (
            offset, length)


@settings(max_examples=300, deadline=None)
@given(batches=batches, windows=windows)
def test_query_matches_the_reference_plan_across_rebinds(batches, windows):
    """Every window, after every batch: a later batch rebinds the columns
    (by the sort or by the overlap sweep), and a lookup issued after it
    must see the new ones — not views of the arrays it replaced, nor a
    last-hit position that no longer exists."""
    index, reference = GlobalIndex(), ExtentMap()
    assert_plans_match(index, reference, windows)  # the empty index
    for rows in batches:
        records = records_from(rows)
        index.add_records(records)
        reference = sweep([records], reference)
        assert_plans_match(index, reference, windows)
        # repeated and reversed: the last-hit memory is only ever a hint
        assert_plans_match(index, reference, windows[::-1])


def test_query_sequential_reader_hits_the_remembered_segment(monkeypatch):
    """A window that starts inside the segment the previous plan ended in
    is planned without bisecting (and identically to one that bisects)."""
    from repro.plfs import index as index_module

    rows = [(100 * k, 100, k % 3, 1000 * k, float(k)) for k in range(50)]
    index = GlobalIndex([records_from(rows)])
    reference = sweep([records_from(rows)])
    bisections = []
    real = index_module.bisect_right
    monkeypatch.setattr(
        index_module, "bisect_right", lambda *a: bisections.append(a) or real(*a))
    for offset in range(2010, 2100, 10):  # all inside segment 20
        assert index.query(offset, 10) == reference_plan(reference, offset, 10)
    assert len(bisections) == 1
    assert index.query(150, 300) == reference_plan(reference, 150, 300)  # segments 1..4
    assert index.query(420, 30) == reference_plan(reference, 420, 30)  # still in 4
    assert len(bisections) == 2


class TestPathSelection:
    """Which path served a batch is decided by what the kernel sees in it."""

    @staticmethod
    def count_assigns(monkeypatch) -> list:
        calls = []
        original = ExtentMap.assign

        def spy(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(ExtentMap, "assign", spy)
        return calls

    def test_disjoint_batch_skips_the_sweep(self, monkeypatch):
        # 4 writers x 8 strided blocks, concatenated writer by writer, with
        # timestamps running against the offsets.
        rows = [
            (4096 * (4 * k + w), 4096, w, 4096 * k, 100.0 - k)
            for w in range(4)
            for k in range(8)
        ]
        records = records_from(rows)
        reference = sweep([records])
        calls = self.count_assigns(monkeypatch)
        index = GlobalIndex([records])
        assert calls == []
        assert index.segments() == reference.segments()
        assert len(index) == 32

    def test_overlapping_batch_takes_the_sweep(self, monkeypatch):
        rows = [(0, 100, 0, 0, 1.0), (200, 100, 0, 100, 2.0), (50, 100, 1, 0, 3.0)]
        records = records_from(rows)
        reference = sweep([records])
        calls = self.count_assigns(monkeypatch)
        index = GlobalIndex([records])
        assert len(calls) == 3
        assert index.segments() == reference.segments()
        assert index.segments() == [(0, 50, 0, 0), (50, 150, 1, 0), (200, 300, 0, 100)]

    def test_disjoint_batch_over_held_segments_skips_the_sweep(self, monkeypatch):
        index = GlobalIndex([records_from([(0, 10, 0, 0, 5.0), (40, 10, 0, 10, 6.0)])])
        calls = self.count_assigns(monkeypatch)
        index.add_records(records_from([(20, 10, 1, 0, 1.0), (10, 0, 1, 0, 1.0)]))
        assert calls == []
        assert index.segments() == [(0, 10, 0, 0), (20, 30, 1, 0), (40, 50, 0, 10)]

    def test_batch_overlapping_held_segments_shadows_them(self, monkeypatch):
        # The batch is older by timestamp, but whatever is already held is
        # flattened history: a later add_records always lands on top.
        index = GlobalIndex([records_from([(0, 10, 0, 0, 5.0)])])
        calls = self.count_assigns(monkeypatch)
        index.add_records(records_from([(5, 10, 1, 0, 1.0)]))
        assert len(calls) == 1
        assert index.segments() == [(0, 5, 0, 0), (5, 15, 1, 0)]


def test_global_index_of_strided_writers_is_byte_identical_to_the_sweep(tmp_path):
    """16 write handles of one process, strided 4 KiB blocks (the N-1
    checkpoint): the ``global.index`` the last close leaves behind is
    exactly what the reference sweep over the index droppings packs."""
    path = str(tmp_path / "checkpoint")
    writers, rounds, block = 16, 24, 4096
    flags = os.O_CREAT | os.O_WRONLY
    fds = [plfs.plfs_open(path, flags) for _ in range(writers)]
    for k in range(rounds):
        for w, fd in enumerate(fds):
            payload = bytes([w + 1]) * block
            plfs.plfs_write(fd, payload, block, (k * writers + w) * block)
    container = plfs.Container(path)
    for fd in fds[:-1]:
        plfs.plfs_close(fd)
        assert not os.path.exists(container.global_index_path())
    plfs.plfs_close(fds[-1])

    pairs = container.droppings()
    assert len(pairs) == writers
    batches = [
        with_dropping(read_index_dropping(index_path), gid)
        for gid, (index_path, _) in enumerate(pairs)
    ]
    reference = sweep([b"".join(batches)])
    assert len(reference) == writers * rounds
    expected = pack_compacted(
        reference.as_arrays(),
        [os.path.relpath(data, path) for _, data in pairs],
        container.index_epoch(pairs),
        reference.extent_end(),
    )
    with open(container.global_index_path(), "rb") as fh:
        assert fh.read() == expected


# ---------------------------------------------------------------------- #
# the kernel factored out of add_records, and the extension built on it
# ---------------------------------------------------------------------- #


def parent_add_records(cols, records):
    """``GlobalIndex.add_records`` as it stood before the kernel was
    factored out, over bare columns: held segments and batch always sorted
    together.  Returns the new columns, or None where it went to the sweep."""
    held = [(s, s + ln, d, p) for s, ln, d, p in zip(*cols)]
    new = [
        (r.logical_offset, r.logical_offset + r.length, r.dropping, r.physical_offset)
        for r in unpack_records(records)
    ]
    rows = sorted([*held, *new], key=lambda row: row[0])  # stable
    rows = [(s, e - s, d, p) for s, e, d, p in rows if e > s]
    if all(b[0] >= a[0] + a[1] for a, b in zip(rows, rows[1:])):
        return tuple(array("q", col) for col in zip(*rows)) if rows else (array("q"),) * 4
    return None


def assert_bit_identical(got, expected) -> None:
    assert len(got) == len(expected) == 4
    for a, b in zip(got, expected):
        assert a.typecode == b.typecode == "q" and len(a) == len(b)
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(base=st.one_of(st.just([]), disjoint_rows()), batches=batches)
def test_add_records_is_bit_identical_to_the_kernel_it_was_factored_from(base, batches):
    """Same corpus as the sweep differentials: wherever the old kernel bound
    its sorted columns, the factored one binds the same bytes — whether it
    sorted the batch with the held segments or (a batch past all of them)
    alone; wherever the old one swept, so does the new."""
    index = GlobalIndex([records_from(base)] if base else None)
    for rows in batches:
        records = records_from(rows)
        before = index.as_arrays()
        expected = parent_add_records(before, records)
        index.add_records(records)
        if expected is None:
            reference = sweep([records], ExtentMap.from_arrays(*before))
            assert index.segments() == reference.segments()
        else:
            assert_bit_identical(index.as_arrays(), expected)


def test_a_batch_past_everything_held_is_sorted_alone(monkeypatch):
    """The follower's case: the held columns are not sorted again."""
    index = GlobalIndex([records_from([(100 * k, 100, 0, 100 * k, 1.0) for k in range(64)])])
    sorted_sizes = spy_on_sorts(monkeypatch)
    batch = records_from([(6400 + 100 * k, 100, 0, 6400 + 100 * k, 2.0) for k in (2, 0, 1)])
    grown = index.extended(batch)
    assert sorted_sizes == [3]
    assert len(index) == 64 and len(grown) == 67
    assert grown.segments()[-3:] == [
        (6400, 6500, 0, 6400), (6500, 6600, 0, 6500), (6600, 6700, 0, 6600)]


def spy_on_sorts(monkeypatch) -> list:
    """The length of everything the index module sorts, in order."""
    from repro.plfs import index as index_module

    sizes: list = []
    monkeypatch.setattr(
        index_module, "sorted", lambda a, **kw: sizes.append(len(a)) or sorted(a, **kw),
        raising=False)
    return sizes


def test_strided_writers_are_dealt_round_robin_without_a_sort(monkeypatch):
    """4 writers x 8 strided blocks, one index dropping after another (the
    N-1 checkpoint): the runs dealt round-robin are the flattened index,
    and only the 4 runs' first starts are sorted."""
    rows = [
        (4096 * (4 * k + w), 4096, w, 4096 * k, 100.0 - k) for w in (2, 0, 3, 1) for k in range(8)
    ]
    sizes = spy_on_sorts(monkeypatch)
    index = GlobalIndex([records_from(rows)])
    assert sizes == [4]
    assert index.segments() == sweep([records_from(rows)]).segments()
    assert len(index) == 32


def test_runs_that_do_not_deal_into_order_are_sorted(monkeypatch):
    """Two runs of three, disjoint but one wholly after the other: dealt,
    they would interleave out of order, so the batch is sorted."""
    rows = [(25, 2, 1, 0, 1.0), (30, 2, 1, 2, 1.0), (35, 2, 1, 4, 1.0),
            (0, 5, 0, 0, 2.0), (10, 5, 0, 5, 2.0), (20, 5, 0, 10, 2.0)]
    sizes = spy_on_sorts(monkeypatch)
    index = GlobalIndex([records_from(rows)])
    assert sizes == [2, 6]
    assert index.segments() == sweep([records_from(rows)]).segments()
    assert [s for s, *_ in index.segments()] == [0, 10, 20, 25, 30, 35]


def any_overlap(*row_lists) -> bool:
    live = sorted((lo, lo + ln) for rows in row_lists for lo, ln, *_ in rows if ln > 0)
    return any(b[0] < a[1] for a, b in zip(live, live[1:]))


@settings(max_examples=300, deadline=None)
@given(base=st.one_of(st.just([]), disjoint_rows()), rows=st.one_of(arbitrary_rows, disjoint_rows()))
def test_extended_is_the_sweep_over_a_new_index_or_nothing(base, rows):
    """``extended`` never mutates the index it is called on.  Without an
    overlap its result is what the reference sweep makes of held + batch;
    with one — between the batch and what is held, or inside the batch —
    it returns None: flattened segments have no timestamps to resolve by."""
    index = GlobalIndex([records_from(base)] if base else None)
    columns = index.as_arrays()
    frozen = [array("q", col) for col in columns]
    grown = index.extended(records_from(rows))
    assert index.as_arrays() is columns
    assert_bit_identical(columns, frozen)
    if any_overlap(base, rows):
        assert grown is None
    else:
        assert grown is not index
        assert_same_index(grown, sweep([records_from(rows)], ExtentMap.from_arrays(*frozen)))


def test_extended_refuses_the_overlaps_the_sweep_tests_enumerate():
    # the batch of TestPathSelection.test_overlapping_batch_takes_the_sweep
    overlapping = [(0, 100, 0, 0, 1.0), (200, 100, 0, 100, 2.0), (50, 100, 1, 0, 3.0)]
    assert GlobalIndex().extended(records_from(overlapping)) is None
    # ... and of test_batch_overlapping_held_segments_shadows_them
    held = GlobalIndex([records_from([(0, 10, 0, 0, 5.0)])])
    assert held.extended(records_from([(5, 10, 1, 0, 1.0)])) is None
    assert held.segments() == [(0, 10, 0, 0)]
    # a duplicate of a held record is an overlap, a zero-length one is nothing
    assert held.extended(records_from([(0, 10, 0, 0, 5.0)])) is None
    same = held.extended(records_from([(3, 0, 1, 0, 9.0)]))
    assert same is not held and same.segments() == held.segments()
    # an empty batch shares the columns: there is nothing to copy
    assert held.extended(records_from([])).as_arrays() is held.as_arrays()
