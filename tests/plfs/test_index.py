"""Tests for index records, droppings and the global index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.plfs import constants
from repro.plfs.errors import CorruptIndexError
from repro.plfs.index import (
    INDEX_DTYPE,
    RECORD_SIZE,
    GlobalIndex,
    ReadSlice,
    make_record,
    pack_records,
    parse_records,
    read_index_dropping,
)


def rec(lo, po, ln, ts, dropping=0, pid=0):
    return make_record(lo, po, ln, pid, ts, dropping)


def cat(*records):
    return np.concatenate(records)


class TestRecordSerialisation:
    def test_roundtrip_single(self):
        r = rec(10, 20, 30, 1.5, dropping=2, pid=7)
        parsed = parse_records(pack_records(r))
        assert parsed.shape == (1,)
        assert parsed[0]["logical_offset"] == 10
        assert parsed[0]["physical_offset"] == 20
        assert parsed[0]["length"] == 30
        assert parsed[0]["dropping"] == 2
        assert parsed[0]["pid"] == 7
        assert parsed[0]["timestamp"] == 1.5

    def test_roundtrip_many(self):
        records = cat(*(rec(i, i * 2, 4, float(i)) for i in range(100)))
        parsed = parse_records(pack_records(records))
        assert np.array_equal(parsed, records)

    def test_record_size_is_dtype_itemsize(self):
        assert RECORD_SIZE == INDEX_DTYPE.itemsize
        assert len(pack_records(rec(0, 0, 1, 0.0))) == RECORD_SIZE

    def test_parse_empty(self):
        assert parse_records(b"").shape == (0,)

    def test_parse_truncated_raises(self):
        data = pack_records(rec(0, 0, 1, 0.0))[:-3]
        with pytest.raises(CorruptIndexError):
            parse_records(data)

    def test_parse_owns_memory(self):
        buf = bytearray(pack_records(rec(5, 0, 1, 0.0)))
        parsed = parse_records(bytes(buf))
        buf[:] = b"\x00" * len(buf)
        assert parsed[0]["logical_offset"] == 5

    def test_read_index_dropping(self, tmp_path):
        path = tmp_path / "dropping.index.x"
        records = cat(rec(0, 0, 8, 1.0), rec(8, 8, 8, 2.0))
        path.write_bytes(pack_records(records))
        assert np.array_equal(read_index_dropping(str(path)), records)

    def test_read_corrupt_dropping_names_file(self, tmp_path):
        path = tmp_path / "dropping.index.bad"
        path.write_bytes(b"\x01" * (RECORD_SIZE + 1))
        with pytest.raises(CorruptIndexError, match="dropping.index.bad"):
            read_index_dropping(str(path))


class TestGlobalIndexBasics:
    def test_empty_index(self):
        gi = GlobalIndex()
        assert gi.logical_size == 0
        assert gi.query(0, 100) == []

    def test_single_record_query(self):
        gi = GlobalIndex([rec(0, 0, 10, 1.0, dropping=3)])
        assert gi.logical_size == 10
        plan = gi.query(0, 10)
        assert plan == [ReadSlice(0, 10, 3, 0)]

    def test_query_subrange(self):
        gi = GlobalIndex([rec(0, 100, 50, 1.0, dropping=1)])
        plan = gi.query(10, 20)
        assert plan == [ReadSlice(10, 20, 1, 110)]

    def test_query_past_eof_empty(self):
        gi = GlobalIndex([rec(0, 0, 10, 1.0)])
        assert gi.query(10, 5) == []
        assert gi.query(100, 5) == []

    def test_query_clipped_at_eof(self):
        gi = GlobalIndex([rec(0, 0, 10, 1.0)])
        plan = gi.query(5, 100)
        assert plan == [ReadSlice(5, 5, 0, 5)]

    def test_query_nonpositive_length(self):
        gi = GlobalIndex([rec(0, 0, 10, 1.0)])
        assert gi.query(0, 0) == []
        assert gi.query(0, -5) == []

    def test_hole_between_extents(self):
        gi = GlobalIndex([cat(rec(0, 0, 10, 1.0), rec(20, 10, 10, 2.0))])
        plan = gi.query(0, 30)
        assert plan == [
            ReadSlice(0, 10, 0, 0),
            ReadSlice(10, 10, constants.HOLE, 0),
            ReadSlice(20, 10, 0, 10),
        ]

    def test_leading_hole(self):
        gi = GlobalIndex([rec(50, 0, 10, 1.0)])
        plan = gi.query(0, 60)
        assert plan[0] == ReadSlice(0, 50, constants.HOLE, 0)
        assert plan[1] == ReadSlice(50, 10, 0, 0)

    def test_query_starting_inside_hole(self):
        gi = GlobalIndex([cat(rec(0, 0, 10, 1.0), rec(20, 10, 10, 2.0))])
        plan = gi.query(12, 10)
        assert plan == [
            ReadSlice(12, 8, constants.HOLE, 0),
            ReadSlice(20, 2, 0, 10),
        ]


class TestGlobalIndexOverwrites:
    def test_later_timestamp_wins(self):
        gi = GlobalIndex([cat(rec(0, 0, 10, 1.0, dropping=0), rec(0, 0, 10, 2.0, dropping=1))])
        assert gi.query(0, 10) == [ReadSlice(0, 10, 1, 0)]

    def test_order_independent_of_record_order(self):
        # Same two records presented in the opposite order: recency must
        # still win because resolution sorts by timestamp.
        gi = GlobalIndex([cat(rec(0, 0, 10, 2.0, dropping=1), rec(0, 0, 10, 1.0, dropping=0))])
        assert gi.query(0, 10) == [ReadSlice(0, 10, 1, 0)]

    def test_partial_overwrite(self):
        gi = GlobalIndex([cat(rec(0, 0, 30, 1.0, dropping=0), rec(10, 0, 10, 2.0, dropping=1))])
        assert gi.query(0, 30) == [
            ReadSlice(0, 10, 0, 0),
            ReadSlice(10, 10, 1, 0),
            ReadSlice(20, 10, 0, 20),
        ]

    def test_equal_timestamps_keep_append_order(self):
        # Records with identical timestamps resolve by position (stable
        # sort): the later record in the array wins.
        gi = GlobalIndex([cat(rec(0, 0, 10, 5.0, dropping=0), rec(0, 0, 10, 5.0, dropping=1))])
        assert gi.query(0, 10) == [ReadSlice(0, 10, 1, 0)]

    def test_add_records_incremental(self):
        gi = GlobalIndex([rec(0, 0, 10, 1.0, dropping=0)])
        assert gi.logical_size == 10
        gi.add_records(rec(10, 0, 10, 2.0, dropping=1))
        assert gi.logical_size == 20
        assert gi.query(0, 20) == [
            ReadSlice(0, 10, 0, 0),
            ReadSlice(10, 10, 1, 0),
        ]

    def test_add_empty_records_noop(self):
        gi = GlobalIndex([rec(0, 0, 10, 1.0)])
        gi.add_records(np.empty(0, dtype=INDEX_DTYPE))
        assert gi.logical_size == 10

    def test_segments_exposed(self):
        gi = GlobalIndex([cat(rec(0, 0, 10, 1.0, dropping=0), rec(5, 0, 10, 2.0, dropping=1))])
        assert gi.segments() == [(0, 5, 0, 0), (5, 15, 1, 0)]
