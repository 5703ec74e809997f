"""Tests for the C-style PLFS API (paper Listing 1 plus supporting calls)."""

from __future__ import annotations

import os
import stat as stat_module

import pytest

from repro import plfs
from repro.plfs.errors import (
    BadFlagsError,
    ContainerExistsError,
    ContainerNotFoundError,
    NotAContainerError,
)


class TestOpenFlags:
    def test_open_missing_without_creat_raises(self, container_path):
        with pytest.raises(ContainerNotFoundError):
            plfs.plfs_open(container_path, os.O_RDONLY)

    def test_open_creat_creates_container(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_close(fd)
        assert plfs.is_container(container_path)

    def test_open_excl_on_existing_raises(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_close(fd)
        with pytest.raises(ContainerExistsError):
            plfs.plfs_open(container_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)

    def test_open_trunc_wipes(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"data", 4, 0)
        plfs.plfs_close(fd)
        fd = plfs.plfs_open(container_path, os.O_WRONLY | os.O_TRUNC)
        plfs.plfs_close(fd)
        assert plfs.plfs_getattr(container_path).st_size == 0

    def test_open_rdonly_trunc_does_not_wipe(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"data", 4, 0)
        plfs.plfs_close(fd)
        fd = plfs.plfs_open(container_path, os.O_RDONLY | os.O_TRUNC)
        plfs.plfs_close(fd)
        assert plfs.plfs_getattr(container_path).st_size == 4

    def test_open_on_plain_dir_raises(self, backend):
        d = os.path.join(backend, "plaindir")
        os.mkdir(d)
        with pytest.raises(NotAContainerError):
            plfs.plfs_open(d, os.O_RDONLY)

    def test_open_on_plain_file_raises(self, container_path):
        open(container_path, "w").close()
        with pytest.raises(NotAContainerError):
            plfs.plfs_open(container_path, os.O_RDONLY)

    def test_write_on_rdonly_handle_raises(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_close(fd)
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        with pytest.raises(BadFlagsError):
            plfs.plfs_write(fd, b"x", 1, 0)
        plfs.plfs_close(fd)

    def test_read_on_wronly_handle_raises(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        with pytest.raises(BadFlagsError):
            plfs.plfs_read(fd, 1, 0)
        plfs.plfs_close(fd)


class TestReadWrite:
    def test_rdwr_sees_own_writes(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, b"abcdef", 6, 0)
        assert plfs.plfs_read(fd, 6, 0) == b"abcdef"
        plfs.plfs_write(fd, b"XY", 2, 2)
        assert plfs.plfs_read(fd, 6, 0) == b"abXYef"
        plfs.plfs_close(fd)

    def test_count_clips_buffer(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        assert plfs.plfs_write(fd, b"abcdef", 3, 0) == 3
        assert plfs.plfs_read(fd, 10, 0) == b"abc"
        plfs.plfs_close(fd)

    def test_read_into(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, b"0123456789", 10, 0)
        buf = bytearray(5)
        assert plfs.plfs_read_into(fd, buf, 2) == 5
        assert bytes(buf) == b"23456"
        plfs.plfs_close(fd)

    def test_read_into_counts_bytes_whatever_the_item_type(self, container_path):
        """Regression: the read was sized in *items* and its bytes assigned
        to the typed view (``ValueError: memoryview assignment: lvalue and
        rvalue have different structures``); ``os.readv`` counts bytes."""
        from array import array

        import numpy as np

        values = array("i", range(8))
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, values.tobytes(), None, 0)
        ints = array("i", [0] * 4)
        assert plfs.plfs_read_into(fd, ints, 0) == 4 * ints.itemsize
        assert ints == values[:4]
        slab = np.zeros((2, 4), dtype=np.int32)
        assert plfs.plfs_read_into(fd, slab[1], 16) == 16  # a contiguous row view
        assert slab.tolist() == [[0] * 4, [4, 5, 6, 7]]
        assert plfs.plfs_read_into(fd, slab, 0) == 32  # N-d, contiguous
        assert slab.ravel().tolist() == list(range(8))
        # a destination that cannot be filled in place: os.readv's error
        with pytest.raises(BufferError, match="not C-contiguous"):
            plfs.plfs_read_into(fd, slab[:, ::2], 0)
        with pytest.raises(BufferError, match="not C-contiguous"):
            plfs.plfs_read_into(fd, memoryview(bytearray(8))[::2], 0)
        plfs.plfs_close(fd)

    def test_read_into_leaves_what_it_did_not_fill(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, b"0123456789", 10, 0)
        assert plfs.plfs_read_into(fd, bytearray(), 3) == 0  # zero-length buffer
        assert plfs.plfs_read_into(fd, bytearray(4), 10) == 0  # at EOF
        buf = bytearray(b"\xff" * 8)
        assert plfs.plfs_read_into(fd, buf, 6) == 4  # EOF mid-buffer
        assert bytes(buf) == b"6789" + b"\xff" * 4
        plfs.plfs_close(fd)

    def test_read_into_zeroes_holes_in_a_dirty_buffer(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, b"ab", 2, 0)
        plfs.plfs_write(fd, b"yz", 2, 30)
        buf = bytearray(b"\xff" * 40)
        assert plfs.plfs_read_into(fd, buf, 0) == 32
        assert bytes(buf) == b"ab" + bytes(28) + b"yz" + b"\xff" * 8
        buf = bytearray(b"\xff" * 10)
        assert plfs.plfs_read_into(fd, buf, 5) == 10  # nothing but hole
        assert bytes(buf) == bytes(10)
        plfs.plfs_close(fd)

    def test_persistence_across_close(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"persistent", 10, 0)
        plfs.plfs_close(fd)
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        assert plfs.plfs_read(fd, 10, 0) == b"persistent"
        plfs.plfs_close(fd)

    def test_sync_without_writer_is_noop(self, container_path):
        plfs.plfs_create(container_path)
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        plfs.plfs_sync(fd)
        plfs.plfs_close(fd)

    def test_two_handles_concurrent_write(self, container_path):
        fd1 = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=101)
        fd2 = plfs.plfs_open(container_path, os.O_WRONLY, pid=102)
        plfs.plfs_write(fd1, b"AAAA", 4, 0)
        plfs.plfs_write(fd2, b"BBBB", 4, 4)
        plfs.plfs_close(fd1)
        plfs.plfs_close(fd2)
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        assert plfs.plfs_read(fd, 8, 0) == b"AAAABBBB"
        plfs.plfs_close(fd)


class TestRefCounting:
    def test_ref_close(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_ref(fd)
        assert plfs.plfs_close(fd) == 1  # still referenced
        plfs.plfs_write(fd, b"ok", 2, 0)  # handle still usable
        assert plfs.plfs_close(fd) == 0

    def test_close_releases_openhost(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=55)
        assert fd.container.open_writers()
        plfs.plfs_close(fd)
        assert fd.container.open_writers() == []

    def test_double_close_is_idempotent(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"data", 4, 0)
        assert plfs.plfs_close(fd) == 0
        # Sloppy (or daemon-retried) callers close again: no-op, no error,
        # no refs going negative, no re-teardown of a finished writer.
        assert plfs.plfs_close(fd) == 0
        assert plfs.plfs_close(fd) == 0
        assert fd.refs == 0
        assert plfs.plfs_getattr(container_path).st_size == 4

    def test_close_after_writer_error_still_reclaims_handle(
        self, container_path, monkeypatch
    ):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=77)
        plfs.plfs_write(fd, b"payload", 7, 0)
        assert fd.container.open_writers()

        def broken_close():
            raise OSError(5, "disk on fire")

        monkeypatch.setattr(fd.writer, "close", broken_close)
        with pytest.raises(OSError, match="disk on fire"):
            plfs.plfs_close(fd)
        # The handle must be fully torn down despite the error: writer
        # detached, open-marker released — the slot is reclaimable.
        assert fd.writer is None
        assert fd.refs == 0
        assert fd.container.open_writers() == []
        # And a later (double) close of the broken handle stays a no-op.
        assert plfs.plfs_close(fd) == 0


class TestMetadata:
    def test_getattr_size_and_mode(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY, mode=0o600)
        plfs.plfs_write(fd, b"x" * 1000, 1000, 0)
        plfs.plfs_close(fd)
        st = plfs.plfs_getattr(container_path)
        assert st.st_size == 1000
        assert stat_module.S_ISREG(st.st_mode)
        assert stat_module.S_IMODE(st.st_mode) == 0o600

    def test_getattr_on_open_writer_sees_high_water_mark(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"z", 1, 4095)
        assert plfs.plfs_getattr(fd).st_size == 4096
        plfs.plfs_close(fd)

    def test_access(self, container_path):
        plfs.plfs_create(container_path)
        assert plfs.plfs_access(container_path, os.R_OK)
        with pytest.raises(ContainerNotFoundError):
            plfs.plfs_access(container_path + "x", os.R_OK)

    def test_exists(self, container_path):
        assert not plfs.plfs_exists(container_path)
        plfs.plfs_create(container_path)
        assert plfs.plfs_exists(container_path)

    def test_unlink(self, container_path):
        plfs.plfs_create(container_path)
        plfs.plfs_unlink(container_path)
        assert not plfs.plfs_exists(container_path)

    def test_rename(self, container_path, backend):
        plfs.plfs_create(container_path)
        dst = os.path.join(backend, "dst")
        plfs.plfs_rename(container_path, dst)
        assert plfs.plfs_exists(dst)
        assert not plfs.plfs_exists(container_path)


class TestTruncate:
    def _mkfile(self, path, payload=b"0123456789"):
        fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, payload, len(payload), 0)
        plfs.plfs_close(fd)

    def test_trunc_to_zero(self, container_path):
        self._mkfile(container_path)
        plfs.plfs_trunc(container_path, 0)
        assert plfs.plfs_getattr(container_path).st_size == 0

    def test_trunc_shrink(self, container_path):
        self._mkfile(container_path)
        plfs.plfs_trunc(container_path, 4)
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        assert plfs.plfs_read(fd, 10, 0) == b"0123"
        plfs.plfs_close(fd)

    def test_trunc_grow(self, container_path):
        self._mkfile(container_path, b"ab")
        plfs.plfs_trunc(container_path, 5)
        st = plfs.plfs_getattr(container_path)
        assert st.st_size == 5
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        assert plfs.plfs_read(fd, 5, 0) == b"ab\x00\x00\x00"
        plfs.plfs_close(fd)

    def test_trunc_same_size_noop(self, container_path):
        self._mkfile(container_path)
        plfs.plfs_trunc(container_path, 10)
        assert plfs.plfs_getattr(container_path).st_size == 10

    def test_trunc_missing_raises(self, container_path):
        with pytest.raises(ContainerNotFoundError):
            plfs.plfs_trunc(container_path, 0)

    def test_trunc_on_open_handle(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs.plfs_write(fd, b"0123456789", 10, 0)
        plfs.plfs_trunc(fd, 0)
        assert plfs.plfs_read(fd, 10, 0) == b""
        plfs.plfs_write(fd, b"new", 3, 0)
        assert plfs.plfs_read(fd, 10, 0) == b"new"
        plfs.plfs_close(fd)


class TestMaintenance:
    def test_flatten_reclaims_garbage(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        for _ in range(5):
            plfs.plfs_write(fd, b"A" * 100, 100, 0)  # overwrite same extent
        plfs.plfs_close(fd)
        c = plfs.Container(container_path)
        assert c.physical_bytes() == 500
        plfs.plfs_flatten_index(container_path)
        assert c.physical_bytes() == 100
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        assert plfs.plfs_read(fd, 100, 0) == b"A" * 100
        plfs.plfs_close(fd)

    def test_flatten_preserves_holes_as_zeros_or_holes(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"S", 1, 0)
        plfs.plfs_write(fd, b"E", 1, 99)
        plfs.plfs_close(fd)
        plfs.plfs_flatten_index(container_path)
        fd = plfs.plfs_open(container_path, os.O_RDONLY)
        data = plfs.plfs_read(fd, 100, 0)
        plfs.plfs_close(fd)
        assert data == b"S" + b"\x00" * 98 + b"E"

    def test_map(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"ab", 2, 0)
        plfs.plfs_write(fd, b"cd", 2, 10)
        plfs.plfs_close(fd)
        extents = plfs.plfs_map(container_path)
        assert [(s, e) for s, e, _, _ in extents] == [(0, 2), (10, 12)]

    def test_dump_index_roundtrip(self, container_path):
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"ab", 2, 0)
        plfs.plfs_write(fd, b"cde", 3, 10)
        plfs.plfs_close(fd)
        from repro.plfs.index import parse_records

        records = parse_records(plfs.plfs_dump_index(container_path))
        assert records.shape == (2,)
        assert records[0]["length"] == 2
        dumped = [
            (r["logical_offset"], r["logical_offset"] + r["length"],
             r["dropping"], r["physical_offset"])
            for r in records
        ]
        assert dumped == plfs.plfs_map(container_path)
        assert (records["timestamp"] > 0).all() and (records["pid"] == 0).all()

    def test_readdir_mkdir_rmdir(self, backend):
        d = os.path.join(backend, "dir")
        plfs.plfs_mkdir(d)
        plfs.plfs_create(os.path.join(d, "f"))
        assert plfs.plfs_readdir(d) == ["f"]
        plfs.plfs_unlink(os.path.join(d, "f"))
        plfs.plfs_rmdir(d)
        assert not os.path.exists(d)
