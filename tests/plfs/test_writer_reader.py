"""Tests for the log-structured write path and the indexed read path."""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.plfs import util
from repro.plfs import writer as writer_module
from repro.plfs.api import plfs_close, plfs_open, plfs_read, plfs_write
from repro.plfs.container import Container
from repro.plfs.errors import BadFlagsError, CorruptIndexError
from repro.plfs.reader import ReadFile, logical_size
from repro.plfs.writer import WriteFile


@pytest.fixture
def container(container_path):
    c = Container(container_path)
    c.create()
    return c


class TestWriteFile:
    def test_data_written_sequentially_regardless_of_offset(self, container):
        """The log-structured property: random logical offsets append."""
        w = WriteFile(container)
        w.write(b"CCC", 200, pid=1)
        w.write(b"AAA", 0, pid=1)
        w.write(b"BBB", 100, pid=1)
        w.close()
        [(index_path, data_path)] = container.droppings()
        # Physical layout is append order, not logical order.
        assert open(data_path, "rb").read() == b"CCCAAABBB"

    def test_one_dropping_pair_per_pid(self, container):
        w = WriteFile(container)
        for pid in (1, 2, 3):
            w.write(b"x", 0, pid=pid)
        assert w.dropping_count == 3
        w.close()
        assert len(container.droppings()) == 3

    def test_counters(self, container):
        w = WriteFile(container)
        w.write(b"abcd", 10, pid=1)
        w.write(b"ef", 100, pid=1)
        assert w.total_written == 6
        assert w.max_logical_end == 102
        w.close()

    def test_write_after_close_raises(self, container):
        w = WriteFile(container)
        w.close()
        with pytest.raises(BadFlagsError):
            w.write(b"x", 0, pid=1)

    def test_close_idempotent(self, container):
        w = WriteFile(container)
        w.write(b"x", 0, pid=1)
        w.close()
        w.close()

    def test_index_records_buffered_until_flush(self, container):
        w = WriteFile(container)
        w.write(b"abc", 0, pid=1)
        [(index_path, _)] = container.droppings()
        assert os.path.getsize(index_path) == 0  # not yet flushed
        w.flush_indexes()
        assert os.path.getsize(index_path) > 0
        w.close()

    def test_auto_flush_threshold(self, container, monkeypatch):
        monkeypatch.setattr(writer_module, "INDEX_FLUSH_THRESHOLD", 4)
        w = WriteFile(container)
        for i in range(4):
            w.write(b"x", i * 10, pid=1)  # sparse: no record merging
        [(index_path, _)] = container.droppings()
        assert os.path.getsize(index_path) > 0
        w.close()

    def test_sequential_writes_merge_into_one_record(self, container):
        """Index compression: a sequential stream keeps a one-record index."""
        w = WriteFile(container)
        for i in range(100):
            w.write(b"abcd", i * 4, pid=1)
        w.close()
        [(index_path, _)] = container.droppings()
        from repro.plfs.index import read_index_dropping, unpack_records

        records = unpack_records(read_index_dropping(index_path))
        assert len(records) == 1
        assert records[0].length == 400
        r = ReadFile(container)
        assert r.read(400, 0) == b"abcd" * 100
        r.close()

    def test_nonadjacent_writes_keep_their_own_records(self, container):
        w = WriteFile(container)
        for i in range(10):
            w.write(b"abcd", i * 8, pid=1)  # a 4-byte hole after each
        w.close()
        from repro.plfs.index import RECORD_SIZE, read_index_dropping

        [(index_path, _)] = container.droppings()
        assert len(read_index_dropping(index_path)) == 10 * RECORD_SIZE

    def test_no_merge_across_pids(self, container):
        w = WriteFile(container)
        w.write(b"aa", 0, pid=1)
        w.write(b"bb", 2, pid=2)
        w.write(b"cc", 4, pid=1)
        w.close()
        # Three records total: pid 1's writes were separated by pid 2's.
        from repro.plfs.index import RECORD_SIZE, read_index_dropping

        total = sum(len(read_index_dropping(ip)) for ip, _ in container.droppings())
        assert total == 3 * RECORD_SIZE
        r = ReadFile(container)
        assert r.read(6, 0) == b"aabbcc"
        r.close()

    def test_interleaved_overwrite_not_shadowed_by_merge(self, container):
        """The timestamp-safety property: another stream's overwrite that
        lands *between* two mergeable writes must survive."""
        fd = plfs_open(container.path, os.O_RDWR)
        plfs_write(fd, b"AAAA", offset=0, pid=1)
        plfs_write(fd, b"bb", offset=1, pid=2)  # overwrites [1,3)
        plfs_write(fd, b"CCCC", offset=4, pid=1)  # would merge with the first without guard
        assert plfs_read(fd, 8, 0) == b"AbbACCCC"
        plfs_close(fd)

    def test_non_contiguous_never_merges(self, container):
        w = WriteFile(container)
        w.write(b"aa", 0, pid=1)
        w.write(b"bb", 10, pid=1)
        assert len(w._droppings[1].pending_records()) == 2
        w.close()

    def test_memoryview_payload(self, container):
        w = WriteFile(container)
        w.write(memoryview(b"hello"), 0, pid=1)
        w.sync()
        r = ReadFile(container)
        assert r.read(5, 0) == b"hello"
        r.close()
        w.close()

    def test_pending_records_visible(self, container):
        w = WriteFile(container)
        w.write(b"abc", 0, pid=1)
        (dropping,) = w._droppings.values()
        records = dropping.pending_records()
        assert len(records) == 1
        assert records[0].length == 3
        assert os.path.exists(dropping.data_path)
        w.close()


class TestUniqueTimestamp:
    """Recency resolves overlapping writes, so two stamps may neither tie
    nor go backwards, whatever the clock does."""

    @pytest.mark.parametrize(
        "clock",
        [[1.7e9] * 8, [1.7e9 + 1, 1.7e9, 1.7e9 - 5, 1.7e9]],
        ids=["frozen", "backwards"],
    )
    def test_strictly_increasing(self, monkeypatch, clock):
        ticks = iter(clock)
        monkeypatch.setattr(util, "time", SimpleNamespace(time=lambda: next(ticks)))
        stamps = [util.unique_timestamp() for _ in clock]
        assert all(a < b for a, b in zip(stamps, stamps[1:])), stamps


class TestReadFile:
    def test_read_roundtrip(self, container):
        w = WriteFile(container)
        w.write(b"hello world", 0, pid=1)
        w.sync()
        w.close()
        r = ReadFile(container)
        assert r.read(11, 0) == b"hello world"
        assert r.read(5, 6) == b"world"
        assert r.read(100, 0) == b"hello world"
        assert r.read(5, 11) == b""
        r.close()

    def test_holes_read_as_zeros(self, container):
        w = WriteFile(container)
        w.write(b"A", 0, pid=1)
        w.write(b"B", 10, pid=1)
        w.close()
        r = ReadFile(container)
        assert r.read(11, 0) == b"A" + b"\x00" * 9 + b"B"
        r.close()

    def test_overwrite_resolution_across_pids(self, container):
        w = WriteFile(container)
        w.write(b"aaaa", 0, pid=1)
        w.write(b"bb", 1, pid=2)  # later write from another stream wins
        w.close()
        r = ReadFile(container)
        assert r.read(4, 0) == b"abba"
        r.close()

    def test_reader_sees_unflushed_writer_records(self, container):
        fd = plfs_open(container.path, os.O_RDWR)
        plfs_write(fd, b"live", offset=0)
        assert fd.writer.stats["records_flushed"] == 0
        assert plfs_read(fd, 4, 0) == b"live"
        plfs_close(fd)

    def test_cross_handle_sync_is_visible_without_refresh(self, container):
        # Regression: a reader built before another handle's sync used to
        # serve the stale index forever; the sync's cache invalidation now
        # makes the next read revalidate and see the new droppings.
        w1 = WriteFile(container)
        w1.write(b"one", 0, pid=1)
        w1.sync()
        r = ReadFile(container)
        assert r.read(3, 0) == b"one"
        w2 = WriteFile(container)
        w2.write(b"two", 3, pid=2)
        w2.sync()
        assert r.read(6, 0) == b"onetwo"
        r.refresh()  # explicit refresh still works and agrees
        assert r.read(6, 0) == b"onetwo"
        r.close()
        w1.close()
        w2.close()

    def test_read_into(self, container):
        w = WriteFile(container)
        w.write(b"0123456789", 0, pid=1)
        w.close()
        r = ReadFile(container)
        buf = bytearray(4)
        assert r.read_into(buf, 3) == 4
        assert bytes(buf) == b"3456"
        r.close()

    def test_read_closed_raises(self, container):
        r = ReadFile(container)
        r.close()
        with pytest.raises(ValueError):
            r.read(1, 0)

    def test_corrupt_data_dropping_detected(self, container):
        w = WriteFile(container)
        w.write(b"full payload", 0, pid=1)
        w.close()
        [(_, data_path)] = container.droppings()
        with open(data_path, "r+b") as fh:
            fh.truncate(4)  # data no longer matches the index promise
        r = ReadFile(container)
        with pytest.raises(CorruptIndexError):
            r.read(12, 0)
        r.close()

    def test_logical_size_helper(self, container):
        assert logical_size(container) == 0
        w = WriteFile(container)
        w.write(b"xyz", 7, pid=1)
        w.sync()
        w.close()
        assert logical_size(container) == 10

    def test_multi_dropping_read(self, container):
        w = WriteFile(container)
        # Interleaved ranks writing disjoint stripes, as MPI-IO would.
        stripe = 4
        ranks = 4
        for step in range(3):
            for rank in range(ranks):
                offset = (step * ranks + rank) * stripe
                payload = bytes([65 + rank]) * stripe
                w.write(payload, offset, pid=rank)
        w.close()
        r = ReadFile(container)
        expected = (b"AAAABBBBCCCCDDDD") * 3
        assert r.read(len(expected), 0) == expected
        r.close()
        assert len(container.droppings()) == ranks
