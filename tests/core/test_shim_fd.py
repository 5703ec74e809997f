"""Descriptor-level shim tests: the paper's two book-keeping mechanisms.

These exercise the fd lookup table (real shadow descriptors) and the
lseek-emulated file pointer through the patched ``os`` functions.
"""

from __future__ import annotations

import errno
import gc
import os

import pytest


@pytest.fixture
def f(mnt):
    return f"{mnt}/file"


class TestOpenClose:
    def test_open_returns_real_fd(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        assert isinstance(fd, int) and fd >= 0
        # A real kernel descriptor: fstat on the raw fd must succeed even
        # via the original (unpatched) function.
        interposer.real.fstat(fd)
        os.close(fd)

    def test_fd_table_tracks_entry(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        assert interposer.shim.table.lookup(fd) is not None
        os.close(fd)
        assert interposer.shim.table.lookup(fd) is None

    def test_open_missing_raises_enoent(self, interposer, f):
        with pytest.raises(FileNotFoundError):
            os.open(f, os.O_RDONLY)

    def test_open_passthrough_outside_mount(self, interposer, tmp_path):
        out = str(tmp_path / "plain")
        fd = os.open(out, os.O_CREAT | os.O_WRONLY)
        assert interposer.shim.table.lookup(fd) is None
        os.write(fd, b"plain")
        os.close(fd)
        assert open(out, "rb").read() == b"plain"

    def test_close_passthrough(self, interposer, tmp_path):
        fd = os.open(str(tmp_path / "x"), os.O_CREAT | os.O_WRONLY)
        os.close(fd)
        with pytest.raises(OSError):
            interposer.real.fstat(fd)


class TestFailedOpenCleanup:
    """A failed plfs_open must leave no residue: no shadow descriptor, no
    fd-table entry, no PLFS handle, no openhost marker."""

    @staticmethod
    def open_fd_count():
        # an earlier test's garbage may hold descriptors whose __del__ would
        # otherwise close them between the two counts
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    def test_failed_insert_releases_handle_and_marker(
        self, interposer, f, backend, monkeypatch
    ):
        from repro.core.fdtable import FdTable

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected registration failure")

        monkeypatch.setattr(FdTable, "insert", boom)
        before = self.open_fd_count()
        with pytest.raises(RuntimeError):
            os.open(f, os.O_CREAT | os.O_WRONLY)
        assert self.open_fd_count() == before  # no descriptor leaked
        from repro.plfs.container import Container

        container = Container(os.path.join(backend, "file"))
        assert container.open_writers() == []  # the marker was withdrawn
        assert len(interposer.shim.table) == 0

    def test_failed_entry_registration_closes_shadow_fd(
        self, interposer, f, monkeypatch
    ):
        from repro.core import fdtable

        def boom(*args, **kwargs):
            raise RuntimeError("injected entry failure")

        monkeypatch.setattr(fdtable, "FdEntry", boom)
        before = self.open_fd_count()
        with pytest.raises(RuntimeError):
            os.open(f, os.O_CREAT | os.O_WRONLY)
        assert self.open_fd_count() == before
        assert len(interposer.shim.table) == 0

    def test_file_usable_after_failed_open(self, interposer, f, monkeypatch):
        from repro.core.fdtable import FdTable

        original = FdTable.insert
        calls = {"n": 0}

        def fail_once(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FdTable, "insert", fail_once)
        with pytest.raises(RuntimeError):
            os.open(f, os.O_CREAT | os.O_WRONLY)
        # No stale writer state blocks the retry.
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"recovered")
        os.close(fd)
        fd = os.open(f, os.O_RDONLY)
        assert os.read(fd, 20) == b"recovered"
        os.close(fd)


class TestCursorEmulation:
    def test_sequential_reads_advance(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.lseek(fd, 0, os.SEEK_SET)
        assert os.read(fd, 4) == b"0123"
        assert os.read(fd, 4) == b"4567"
        assert os.read(fd, 4) == b"89"
        assert os.read(fd, 4) == b""
        os.close(fd)

    def test_write_advances_cursor(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"abc")
        os.write(fd, b"def")
        os.lseek(fd, 0, os.SEEK_SET)
        assert os.read(fd, 6) == b"abcdef"
        os.close(fd)

    def test_seek_set_cur_end(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        assert os.lseek(fd, 2, os.SEEK_SET) == 2
        assert os.lseek(fd, 3, os.SEEK_CUR) == 5
        assert os.lseek(fd, -2, os.SEEK_END) == 8
        assert os.read(fd, 10) == b"89"
        os.close(fd)

    def test_seek_past_eof_then_write_leaves_hole(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"A")
        os.lseek(fd, 5, os.SEEK_SET)
        os.write(fd, b"B")
        os.lseek(fd, 0, os.SEEK_SET)
        assert os.read(fd, 6) == b"A\x00\x00\x00\x00B"
        os.close(fd)

    def test_negative_seek_raises(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        with pytest.raises(OSError):
            os.lseek(fd, -1, os.SEEK_SET)
        with pytest.raises(OSError):
            os.lseek(fd, -10, os.SEEK_END)
        os.close(fd)

    def test_append_mode(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"base")
        os.close(fd)
        fd = os.open(f, os.O_WRONLY | os.O_APPEND)
        os.write(fd, b"+one")
        os.write(fd, b"+two")
        os.close(fd)
        fd = os.open(f, os.O_RDONLY)
        assert os.read(fd, 100) == b"base+one+two"
        os.close(fd)


class TestPositionalIO:
    def test_pread_does_not_move_cursor(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.lseek(fd, 0, os.SEEK_SET)
        assert os.pread(fd, 3, 5) == b"567"
        assert os.read(fd, 3) == b"012"  # cursor untouched by pread
        os.close(fd)

    def test_pwrite_does_not_move_cursor(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0000000000")
        os.lseek(fd, 2, os.SEEK_SET)
        os.pwrite(fd, b"XY", 6)
        assert os.lseek(fd, 0, os.SEEK_CUR) == 2
        assert os.pread(fd, 10, 0) == b"000000XY00"
        os.close(fd)

    @pytest.mark.parametrize("where", ["flat", "mount"])
    def test_pwrite_on_append_descriptor_appends(self, interposer, f, tmp_path, where):
        # Linux appends whatever offset pwrite names on an O_APPEND
        # descriptor; the flat file is the reference, the mount must agree
        path = f if where == "mount" else str(tmp_path / "flat")
        fd = os.open(path, os.O_CREAT | os.O_RDWR | os.O_APPEND)
        os.write(fd, b"AAAA")
        assert os.pwrite(fd, b"bb", 0) == 2
        assert os.lseek(fd, 0, os.SEEK_CUR) == 4  # cursor untouched
        assert os.pread(fd, 10, 0) == b"AAAAbb"
        with pytest.raises(OSError) as exc:
            os.pwrite(fd, b"cc", -1)  # the argument check comes first
        assert exc.value.errno == errno.EINVAL
        assert os.fstat(fd).st_size == 6
        os.close(fd)

    def test_pread_passthrough(self, interposer, tmp_path):
        p = str(tmp_path / "plain")
        with open(p, "wb") as fh:
            fh.write(b"abcdef")
        fd = os.open(p, os.O_RDONLY)
        assert os.pread(fd, 2, 2) == b"cd"
        os.close(fd)


class TestDup:
    def test_dup_shares_cursor(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.lseek(fd, 0, os.SEEK_SET)
        fd2 = os.dup(fd)
        assert os.read(fd, 2) == b"01"
        assert os.read(fd2, 2) == b"23"  # shared offset, like POSIX dup
        os.close(fd2)
        assert os.read(fd, 2) == b"45"  # original still open
        os.close(fd)

    def test_dup2_replaces_plfs_target(self, interposer, f, mnt):
        fd_a = os.open(f, os.O_CREAT | os.O_RDWR)
        fd_b = os.open(f"{mnt}/other", os.O_CREAT | os.O_RDWR)
        os.write(fd_a, b"AAA")
        os.dup2(fd_a, fd_b)
        # fd_b now refers to the first file.
        os.lseek(fd_b, 0, os.SEEK_SET)
        assert os.read(fd_b, 3) == b"AAA"
        os.close(fd_a)
        os.close(fd_b)

    def test_dup2_same_fd_is_noop(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        assert os.dup2(fd, fd) == fd
        os.close(fd)


class TestFdMetadata:
    def test_fstat_logical_size(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"x" * 1234)
        assert os.fstat(fd).st_size == 1234
        os.close(fd)

    def test_fsync_flushes_index(self, interposer, f, backend):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"payload")
        os.fsync(fd)
        from repro.plfs.container import Container

        [(index_path, _)] = Container(os.path.join(backend, "file")).droppings()
        assert os.path.getsize(index_path) > 0
        os.close(fd)

    def test_ftruncate(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.ftruncate(fd, 4)
        assert os.fstat(fd).st_size == 4
        os.close(fd)

    def test_read_on_wronly_fd_raises_ebadf(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        with pytest.raises(OSError) as exc:
            os.read(fd, 1)
        assert exc.value.errno == errno.EBADF
        os.close(fd)

    def test_write_on_rdonly_fd_raises_ebadf(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        os.close(fd)
        fd = os.open(f, os.O_RDONLY)
        with pytest.raises(OSError) as exc:
            os.write(fd, b"x")
        assert exc.value.errno == errno.EBADF
        os.close(fd)

    def test_sendfile_on_plfs_fd_gives_einval(self, interposer, f, tmp_path):
        fd_in = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd_in, b"data")
        fd_out = os.open(str(tmp_path / "out"), os.O_CREAT | os.O_WRONLY)
        with pytest.raises(OSError) as exc:
            os.sendfile(fd_out, fd_in, 0, 4)
        assert exc.value.errno == errno.EINVAL
        os.close(fd_in)
        os.close(fd_out)


class TestCrossDescriptorFreshness:
    """Regression: logical size served to one descriptor must reflect
    another descriptor's synced writes (each ``os.open`` makes its own
    PLFS handle, so this crosses handles, not just cursors)."""

    def test_fstat_sees_other_descriptor_sync(self, interposer, f):
        wfd = os.open(f, os.O_CREAT | os.O_WRONLY)
        rfd = os.open(f, os.O_RDONLY)
        assert os.fstat(rfd).st_size == 0
        os.write(wfd, b"x" * 100)
        os.fsync(wfd)
        assert os.fstat(rfd).st_size == 100
        os.write(wfd, b"y" * 28)
        os.fsync(wfd)
        assert os.fstat(rfd).st_size == 128
        os.close(wfd)
        os.close(rfd)

    def test_seek_end_sees_other_descriptor_sync(self, interposer, f):
        wfd = os.open(f, os.O_CREAT | os.O_WRONLY)
        rfd = os.open(f, os.O_RDONLY)
        os.write(wfd, b"0123456789")
        os.fsync(wfd)
        assert os.lseek(rfd, 0, os.SEEK_END) == 10
        os.write(wfd, b"abcdef")
        os.fsync(wfd)
        assert os.lseek(rfd, -6, os.SEEK_END) == 10
        assert os.read(rfd, 6) == b"abcdef"
        os.close(wfd)
        os.close(rfd)

    def test_read_sees_other_descriptor_sync(self, interposer, f):
        wfd = os.open(f, os.O_CREAT | os.O_WRONLY)
        rfd = os.open(f, os.O_RDONLY)
        os.write(wfd, b"first")
        os.fsync(wfd)
        assert os.pread(rfd, 5, 0) == b"first"
        os.pwrite(wfd, b"SECOND", 0)
        os.fsync(wfd)
        assert os.pread(rfd, 6, 0) == b"SECOND"
        os.close(wfd)
        os.close(rfd)


class TestSiblingWriters:
    """Regression: the ``openhosts/`` marker is named ``host.pid``, so
    every write descriptor one process opens on a file shares it.  The
    first close used to unlink it under its siblings' feet: ``stat`` then
    trusted the closed writer's ``meta/`` size, and every close looked like
    the last and compacted."""

    def test_stat_after_sibling_close_matches_flat_file(
        self, interposer, f, tmp_path
    ):
        sizes = []
        for path in (str(tmp_path / "flat"), f):
            a = os.open(path, os.O_CREAT | os.O_WRONLY)
            b = os.open(path, os.O_WRONLY)
            os.pwrite(a, b"a" * 100, 0)
            os.close(a)
            os.pwrite(b, b"b" * 100, 1000)
            os.fsync(b)
            sizes.append(os.stat(path).st_size)
            os.close(b)
            sizes.append(os.stat(path).st_size)
        assert sizes == [1100, 1100, 1100, 1100]

    def test_sibling_close_keeps_marker_and_defers_compaction(
        self, interposer, f, backend
    ):
        from repro.plfs.container import Container

        container = Container(os.path.join(backend, "file"))
        a = os.open(f, os.O_CREAT | os.O_WRONLY)
        b = os.open(f, os.O_WRONLY)
        os.pwrite(a, b"a" * 100, 0)
        os.pwrite(b, b"b" * 100, 100)
        real_exists = os.path.exists  # the backend is off the mount
        assert len(container.open_writers()) == 1  # one marker, two holders
        os.close(a)
        assert len(container.open_writers()) == 1
        assert not real_exists(container.global_index_path())
        os.close(b)
        assert container.open_writers() == []
        assert real_exists(container.global_index_path())
