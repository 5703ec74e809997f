"""The write-path fast lane: group-commit WAL, zero-copy and vectored
appends, threshold index flushing, and cross-process index invalidation.

Companion to ``test_read_path``-style coverage on the read side.  A
recording backing store pins the *mechanics* (which persistence operation
fired, in what order, with which buffer object); the PLFS API and shim
tests pin the end-to-end behaviour; the subprocess tests prove the
generation-file protocol actually crosses a process boundary.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import tempfile
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import plfs
from repro.faults import FaultInjector, FaultSpec
from repro.plfs import backing, constants
from repro.plfs import writer as writer_module
from repro.plfs.cache import shared_cache
from repro.plfs.container import Container
from repro.plfs.reader import ReadFile
from repro.plfs.writer import WriteFile


class RecordingStore(backing.BackingStore):
    """Delegating store that logs every persistence operation and keeps
    the exact buffer object the write path handed to ``write_data`` —
    identity, not equality, is what proves zero-copy."""

    def __init__(self):
        self.ops: list[str] = []
        self.data_bufs: list = []

    def write_data(self, fd, buf, path):
        self.ops.append("data_write")
        self.data_bufs.append(buf)
        return super().write_data(fd, buf, path)

    def write_datav(self, fd, buffers, path):
        self.ops.append("data_writev")
        self.data_bufs.append(list(buffers))
        return super().write_datav(fd, buffers, path)

    def write_wal(self, fd, payload, path):
        self.ops.append("wal_write")
        return super().write_wal(fd, payload, path)

    def append_index(self, path, payload):
        self.ops.append("index_flush")
        return super().append_index(path, payload)


@pytest.fixture
def recording():
    store = RecordingStore()
    previous = backing.install(store)
    try:
        yield store
    finally:
        backing.install(previous)


@pytest.fixture
def container(container_path):
    c = Container(container_path)
    c.create()
    return c


def wal_files(container_root: str) -> list[str]:
    return [
        name
        for _, _, names in os.walk(container_root)
        for name in names
        if name.startswith(constants.WAL_PREFIX)
    ]


# ---------------------------------------------------------------------- #
# zero-copy appends
# ---------------------------------------------------------------------- #


class TestZeroCopy:
    def test_memoryview_reaches_backing_store_by_identity(self, container, recording):
        payload = memoryview(b"zero copy payload")
        with WriteFile(container) as w:
            w.write(payload, 0, pid=1)
            assert w.stats["zero_copy_appends"] == 1
        assert any(b is payload for b in recording.data_bufs)

    def test_plfs_write_count_slice_avoids_bytes_copy(
        self, container_path, recording
    ):
        buf = bytearray(b"0123456789")
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        assert plfs.plfs_write(fd, buf, 4, 0) == 4
        assert plfs.plfs_read(fd, 4, 0) == b"0123"
        plfs.plfs_close(fd)
        sent = recording.data_bufs[0]
        assert isinstance(sent, memoryview)
        assert sent.obj is buf  # a view over the caller's buffer, no copy

    def test_shim_write_no_longer_copies(self, interposer, mnt, recording):
        fd = os.open(f"{mnt}/f", os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"through the shim")
        os.close(fd)
        data_ops = [b for b in recording.data_bufs if not isinstance(b, list)]
        assert data_ops and all(isinstance(b, memoryview) for b in data_ops)

    def test_noncontiguous_and_multibyte_views_still_correct(self, container_path):
        """The library follows the OS: a multi-byte buffer counts bytes, a
        strided one is refused (``const char *buf, size_t count`` cannot
        express it either) — and refused before anything is appended."""
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        ints = array("i", [1, 2, 3])
        assert plfs.plfs_write(fd, ints, None, 0) == 3 * ints.itemsize
        assert plfs.plfs_write(fd, memoryview(ints), ints.itemsize, 100) == ints.itemsize
        assert plfs.plfs_read(fd, 200, 0) == (
            ints.tobytes() + bytes(100 - 3 * ints.itemsize) + ints.tobytes()[: ints.itemsize]
        )
        strided = memoryview(b"0123456789")[::2]  # non-contiguous
        for write in (
            lambda: plfs.plfs_write(fd, strided, None, 0),
            lambda: plfs.plfs_writev(fd, [b"ok", strided], 0),
        ):
            with pytest.raises(BufferError):
                write()
        assert fd.writer.stats["appends"] == 2
        plfs.plfs_close(fd)


# ---------------------------------------------------------------------- #
# vectored appends
# ---------------------------------------------------------------------- #


class TestVectoredAppend:
    def test_append_many_is_one_append_one_record(self, container, recording):
        with WriteFile(container) as w:
            assert w.append_many([b"abc", b"defg", b"hi"], 0, pid=1) == 9
            recs = writer_module._rows_to_records(w._droppings[1].pending)
            assert len(recs) == 1 and recs["length"][0] == 9
            assert w.stats["vectored_appends"] == 1
            assert w.stats["vectored_buffers"] == 3
        assert recording.ops.count("data_writev") == 1
        assert "data_write" not in recording.ops
        with ReadFile(container, use_shared_cache=False) as r:
            assert r.read(16, 0) == b"abcdefghi"

    def test_append_many_merges_with_preceding_write(self, container):
        with WriteFile(container) as w:
            w.write(b"abc", 0, pid=1)
            w.append_many([b"def", b"ghi"], 3, pid=1)
            recs = writer_module._rows_to_records(w._droppings[1].pending)
            assert len(recs) == 1 and recs["length"][0] == 9

    def test_empty_iovec_is_a_noop(self, container):
        with WriteFile(container) as w:
            assert w.append_many([], 0, pid=1) == 0
            assert w.stats["vectored_appends"] == 0

    def test_plfs_writev_drops_empty_buffers(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        assert plfs.plfs_writev(fd, [b"", b"he", b"", b"llo"], 0) == 5
        assert plfs.plfs_writev(fd, [b"", b""], 64) == 0
        assert plfs.plfs_read(fd, 5, 0) == b"hello"
        assert fd.writer.stats["vectored_buffers"] == 2
        plfs.plfs_close(fd)

    def test_shim_writev_lands_as_one_vectored_append(
        self, interposer, mnt, recording
    ):
        fd = os.open(f"{mnt}/vec", os.O_CREAT | os.O_RDWR)
        assert os.writev(fd, [b"aaaa", b"bb", b"c"]) == 7
        assert os.pread(fd, 7, 0) == b"aaaabbc"
        os.close(fd)
        assert recording.ops.count("data_writev") == 1

    def test_pwritev_short_write_resumed_transparently(self, interposer, mnt):
        inj = FaultInjector([FaultSpec("data_write", "short", op=1, short_bytes=3)])
        with inj.armed():
            fd = os.open(f"{mnt}/vec-short", os.O_CREAT | os.O_RDWR)
            assert os.pwritev(fd, [b"0123", b"4567", b"89"], 0) == 10
            assert os.pread(fd, 10, 0) == b"0123456789"
            os.close(fd)
        assert interposer.shim.stats["short_write_resumes"] >= 1


# ---------------------------------------------------------------------- #
# group-commit WAL
# ---------------------------------------------------------------------- #


class TestGroupCommitWal:
    def test_batch_flushes_once_per_window(self, container, recording):
        with WriteFile(container, wal=True, wal_batch=4) as w:
            for i in range(8):
                w.write(b"x" * 8, i * 8, pid=1)
            assert w.stats["wal_batches"] == 2
            assert w.stats["wal_records"] == 8
        assert recording.ops.count("wal_write") == 2

    def test_batch_of_one_keeps_strict_per_append_order(self, container, recording):
        with WriteFile(container, wal=True, wal_batch=1) as w:
            for i in range(3):
                w.write(bytes([65 + i]) * 4, i * 100, pid=1)
        ops = [op for op in recording.ops if op in ("wal_write", "data_write")]
        assert ops == ["wal_write", "data_write"] * 3

    def test_batch_flush_precedes_its_closing_data_append(
        self, container, recording
    ):
        with WriteFile(container, wal=True, wal_batch=3) as w:
            for i in range(3):
                w.write(b"y" * 4, i * 50, pid=1)
        ops = [op for op in recording.ops if op in ("wal_write", "data_write")]
        # The window's promises hit the WAL *before* the append that would
        # close the window touches the data dropping.
        assert ops == ["data_write", "data_write", "wal_write", "data_write"]

    def test_sync_is_a_hard_barrier(self, container, recording):
        with WriteFile(container, wal=True, wal_batch=8) as w:
            w.write(b"a" * 4, 0, pid=1)
            w.write(b"b" * 4, 100, pid=1)
            assert w.stats["wal_records"] == 0  # window still open
            w.sync()
            assert w.stats["wal_records"] == 2
            assert w.stats["wal_batches"] == 1
        # flush_index drained the WAL before touching the index dropping.
        assert recording.ops.index("wal_write") < recording.ops.index("index_flush")

    def test_failed_batch_flush_keeps_rows_for_retry(self, container):
        inj = FaultInjector([FaultSpec("wal_write", "enospc", op=1)])
        w = WriteFile(container, wal=True, wal_batch=2)
        w.write(b"A" * 8, 0, pid=1)
        with inj.armed():
            with pytest.raises(OSError):
                w.write(b"B" * 8, 8, pid=1)
        d = next(iter(w._droppings.values()))
        # Both promises retained (the WAL must stay a superset of the
        # index); the failed append never touched the data dropping.
        assert len(d.wal_rows) == 2
        assert d.physical_offset == 8
        assert w.write(b"B" * 8, 8, pid=1) == 8  # retry drains all rows
        assert w.stats["wal_records"] == 3
        w.close()
        with ReadFile(container, use_shared_cache=False) as r:
            assert r.read(16, 0) == b"A" * 8 + b"B" * 8

    def test_clean_close_removes_the_wal(self, container):
        with WriteFile(container, wal=True, wal_batch=4) as w:
            w.write(b"data", 0, pid=1)
        assert wal_files(container.path) == []

    def test_open_options_thread_the_batch_size(self, container_path):
        opts = plfs.OpenOptions(write_ahead_index=True, wal_batch_records=16)
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY, open_opt=opts)
        assert fd.writer.wal and fd.writer.wal_batch == 16
        plfs.plfs_write(fd, b"z", 1, 0)
        plfs.plfs_close(fd)


# ---------------------------------------------------------------------- #
# writer hygiene (the bug sweep)
# ---------------------------------------------------------------------- #


class TestWriterHygiene:
    def test_failed_index_touch_leaves_no_droppings(self, container):
        """Regression: an ENOSPC on the index-dropping touch at open used
        to leak the already-created data and WAL droppings (and their
        descriptors)."""
        inj = FaultInjector([FaultSpec("meta_create", "enospc", op=1)])
        w = WriteFile(container, wal=True)
        with inj.armed():
            with pytest.raises(OSError):
                w.write(b"doomed", 0, pid=1)
        assert os.listdir(w.hostdir) == []
        # The handle recovers: the next write rebuilds the dropping pair.
        assert w.write(b"fine", 0, pid=1) == 4
        w.close()
        with ReadFile(container, use_shared_cache=False) as r:
            assert r.read(4, 0) == b"fine"

    def test_close_survives_descriptor_close_failure(self, container, monkeypatch):
        """A failing ``close(2)`` must not leak the sibling descriptor,
        skip the WAL cleanup (the flush *did* succeed), or break
        idempotence."""
        w = WriteFile(container, wal=True)
        w.write(b"payload", 0, pid=1)
        d = next(iter(w._droppings.values()))
        data_fd, wal_path = d.data_fd, d.wal_path
        real_close = os.close
        fired = []

        def failing_close(fd):
            real_close(fd)
            if fd == data_fd and not fired:
                fired.append(fd)
                raise OSError(5, "injected close failure")

        monkeypatch.setattr(os, "close", failing_close)
        with pytest.raises(OSError):
            w.close()
        monkeypatch.undo()
        assert fired
        assert d.data_fd == -1 and d.wal_fd == -1
        assert not os.path.exists(wal_path)
        w.close()  # idempotent: no double-close, no second raise
        with ReadFile(container, use_shared_cache=False) as r:
            assert r.read(7, 0) == b"payload"

    def test_failed_close_flush_keeps_wal_for_recovery(self, container):
        inj = FaultInjector([FaultSpec("index_flush", "enospc", op=1)])
        w = WriteFile(container, wal=True)
        w.write(b"keep me", 0, pid=1)
        d = next(iter(w._droppings.values()))
        with inj.armed():
            with pytest.raises(OSError):
                w.close()
        # The flush failed, so the WAL stays behind as the recovery
        # source — but the descriptors are still released.
        assert os.path.exists(d.wal_path)
        assert d.data_fd == -1 and d.wal_fd == -1

    def test_merged_record_length_is_capped(self, container, monkeypatch):
        monkeypatch.setattr(writer_module, "MERGE_LENGTH_CAP", 8)
        with WriteFile(container) as w:
            for i in range(4):
                w.write(b"abcd", i * 4, pid=1)
            recs = writer_module._rows_to_records(w._droppings[1].pending)
            assert list(recs["length"]) == [8, 8]
        with ReadFile(container, use_shared_cache=False) as r:
            assert r.read(16, 0) == b"abcd" * 4

    def test_gc_abandons_without_flushing(self, container):
        w = WriteFile(container)
        w.write(b"unflushed", 0, pid=1)
        index_path = next(iter(w._droppings.values())).index_path
        del w
        gc.collect()
        # close() is the explicit persistence point; GC must never flush.
        assert os.path.getsize(index_path) == 0


# ---------------------------------------------------------------------- #
# threshold index flushing
# ---------------------------------------------------------------------- #


class TestThresholdFlush:
    def test_unmerged_stream_flushes_at_the_threshold_and_bumps_the_generation(
        self, container, monkeypatch
    ):
        monkeypatch.setattr(writer_module, "INDEX_FLUSH_THRESHOLD", 8)
        with WriteFile(container) as w:
            for i in range(70):
                w.write(b"r", (i * 37) % 4096, pid=1)  # never contiguous
            d = next(iter(w._droppings.values()))
            assert w.stats["threshold_flushes"] == 70 // 8 == d.index_flushes
            assert len(d.pending) == 70 % 8
            assert w.stats["generation_bumps"] == 70 // 8  # flushes invalidate

    def test_merged_stream_never_reaches_the_threshold(self, container, monkeypatch):
        """Why the threshold needs no adapting: a sequential stream keeps
        one pending record however long it runs."""
        monkeypatch.setattr(writer_module, "INDEX_FLUSH_THRESHOLD", 8)
        with WriteFile(container) as w:
            for i in range(72):
                w.write(b"s" * 4, i * 4, pid=1)
            d = next(iter(w._droppings.values()))
            assert len(d.pending) == 1  # the whole stream merged
            assert w.stats["records_merged"] == 71
            assert w.stats["threshold_flushes"] == 0


# ---------------------------------------------------------------------- #
# cross-process invalidation
# ---------------------------------------------------------------------- #

APPENDER = """
import os, sys
from repro import plfs

path = sys.argv[1]
fd = plfs.plfs_open(path, os.O_WRONLY)
plfs.plfs_write(fd, b"BBBB", 4, 4)
plfs.plfs_close(fd)
"""

BATCH_WRITER = """
import os, sys
from repro import plfs

path, rank, block = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
opts = plfs.OpenOptions(write_ahead_index=True, wal_batch_records=4)
fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY, open_opt=opts)
payload = bytes([65 + rank]) * block
for step in range(6):
    offset = (step * 3 + rank) * block
    plfs.plfs_write(fd, payload, block, offset)
plfs.plfs_close(fd)
"""


class TestCrossProcessInvalidation:
    def test_generation_token_tracks_bumps(self, container):
        assert container.generation_token() is None  # never bumped yet
        container.bump_generation()
        token = container.generation_token()
        assert token is not None
        time.sleep(0.02)
        container.bump_generation()
        assert container.generation_token() != token
        assert not [
            n for n in os.listdir(container.path) if n.startswith("generation.tmp.")
        ]

    def test_open_reader_sees_another_process_close(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"AAAA", 4, 0)
        plfs.plfs_close(fd)

        reader = ReadFile(Container(container_path))
        assert reader.read(4, 0) == b"AAAA"

        subprocess.run(
            [sys.executable, "-c", APPENDER, container_path], check=True
        )
        # No refresh() call, no in-process cache traffic: the generation
        # file alone must carry the invalidation across the boundary.
        assert reader.read(8, 0) == b"AAAABBBB"
        assert reader.stats["cross_process_refreshes"] >= 1
        reader.close()

    def test_rdwr_handle_tells_a_foreign_close_from_its_own_flush(self, container_path):
        """The handle's own index flush bumps the generation file too; only
        the foreign bump may count as one — and it still must, on the very
        next read."""
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, b"AAAA", 4, 0)
        assert plfs.plfs_read(fd, 8, 0) == plfs.plfs_read(fd, 8, 0) == b"AAAA"
        stats = fd._reader.stats
        assert (stats["index_builds"], stats["cross_process_refreshes"]) == (1, 0)
        subprocess.run(
            [sys.executable, "-c", APPENDER, container_path], check=True
        )
        assert plfs.plfs_read(fd, 8, 0) == b"AAAABBBB"
        assert (stats["index_builds"], stats["cross_process_refreshes"]) == (2, 1)
        plfs.plfs_close(fd)

    def test_concurrent_batched_wal_writers_read_back_exactly(self, container_path):
        ranks, block = 3, 128
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", BATCH_WRITER,
                    container_path, str(rank), str(block),
                ]
            )
            for rank in range(ranks)
        ]
        for p in procs:
            assert p.wait() == 0
        assert wal_files(container_path) == []  # every close was clean
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        data = plfs.plfs_read(fd, ranks * 6 * block, 0)
        plfs.plfs_close(fd)
        expected = b"".join(
            bytes([65 + rank]) * block for _ in range(6) for rank in range(ranks)
        )
        assert data == expected
        report = plfs.plfs_check(container_path)
        assert report.ok, report.render()


# ---------------------------------------------------------------------- #
# merge × flush × batch interleavings (property)
# ---------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(0, 256),  # offset
            st.binary(min_size=1, max_size=16),  # payload
            st.booleans(),  # sync after?
        ),
        min_size=1,
        max_size=40,
    ),
    threshold=st.integers(1, 6),
    wal_batch=st.integers(1, 5),
)
def test_interleaved_merge_flush_batches_read_back_exactly(
    writes, threshold, wal_batch
):
    """Over random schedules with a tiny flush threshold and every batch
    size: whatever interleaving of merges, threshold flushes, syncs and
    WAL windows occurs, the read-back equals the flat-file model and a
    clean close leaves no WAL behind."""
    old = writer_module.INDEX_FLUSH_THRESHOLD
    writer_module.INDEX_FLUSH_THRESHOLD = threshold
    tmp = tempfile.mkdtemp()
    try:
        path = os.path.join(tmp, "f")
        container = Container(path)
        container.create()
        model = bytearray()
        with WriteFile(container, wal=True, wal_batch=wal_batch) as w:
            for offset, payload, do_sync in writes:
                w.write(payload, offset, pid=1)
                end = offset + len(payload)
                if len(model) < end:
                    model.extend(b"\x00" * (end - len(model)))
                model[offset:end] = payload
                if do_sync:
                    w.sync()
        with ReadFile(container, use_shared_cache=False) as r:
            assert r.read(len(model) + 8, 0) == bytes(model)
        assert wal_files(path) == []
    finally:
        writer_module.INDEX_FLUSH_THRESHOLD = old
        shared_cache().clear()
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------- #
# small files: binary, unbuffered, one open each
# ---------------------------------------------------------------------- #


class TestSmallFiles:
    def test_append_index_resumes_a_short_raw_write(self, tmp_path, monkeypatch):
        """Unbuffered, so no ``BufferedWriter`` finishes a short write for
        it: the store does, from the cut point."""
        import builtins
        import io

        writes = []

        class Dribble(io.FileIO):
            def write(self, b):
                n = super().write(bytes(b[:7]))
                writes.append(n)
                return n

        real = builtins.open
        monkeypatch.setattr(
            builtins, "open",
            lambda p, mode="r", buffering=-1: Dribble(p, "a") if buffering == 0 else real(p, mode))
        path = str(tmp_path / "dropping.index.1")
        payload = bytes(range(48))
        assert backing.BackingStore().append_index(path, payload) == 48
        assert writes == [7] * 6 + [6]
        with real(path, "rb") as fh:
            assert fh.read() == payload

    def test_the_generation_file_is_empty_and_the_mode_survives(self, container):
        assert container.mode() == 0o644
        container.bump_generation()
        assert os.path.getsize(container.generation_path()) == 0
        with open(os.path.join(container.path, constants.ACCESS_FILE), "wb"):
            pass  # an access file emptied by hand still reads as the default
        assert container.mode() == 0o644
