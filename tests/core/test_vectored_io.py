"""Vectored (scatter/gather) I/O through the shim.

``os.readv``/``os.writev``/``os.preadv``/``os.pwritev`` were the audited
interposition gap: before PR 2 they fell through to the real OS even on a
PLFS-backed descriptor, silently reading shadow-file bytes.  These tests
pin the retargeted behaviour: gather writes land in the container, scatter
reads come back from it, the emulated cursor moves exactly once per call,
and the positional variants leave it alone.
"""

from __future__ import annotations

import errno
import os

import pytest


@pytest.fixture
def f(mnt):
    return f"{mnt}/vectored"


class TestWritev:
    def test_gather_write_lands_in_container(self, interposer, f, backend):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        n = os.writev(fd, [b"abc", b"defg", b"hi"])
        os.close(fd)
        assert n == 9
        from repro.plfs import is_container

        assert is_container(os.path.join(backend, "vectored"))
        with open(f, "rb") as fh:
            assert fh.read() == b"abcdefghi"

    def test_cursor_advances_once(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.writev(fd, [b"0123", b"45"])
        assert os.lseek(fd, 0, os.SEEK_CUR) == 6
        os.writev(fd, [b"67"])
        os.lseek(fd, 0, os.SEEK_SET)
        assert os.read(fd, 8) == b"01234567"
        os.close(fd)

    def test_append_mode_writes_at_eof(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"base")
        os.close(fd)
        fd = os.open(f, os.O_WRONLY | os.O_APPEND)
        os.writev(fd, [b"+", b"tail"])
        os.close(fd)
        with open(f, "rb") as fh:
            assert fh.read() == b"base+tail"

    def test_readonly_fd_raises_ebadf(self, interposer, f):
        os.close(os.open(f, os.O_CREAT | os.O_WRONLY))
        fd = os.open(f, os.O_RDONLY)
        with pytest.raises(OSError) as exc:
            os.writev(fd, [b"x"])
        assert exc.value.errno == errno.EBADF
        os.close(fd)

    def test_passthrough_outside_mount(self, interposer, tmp_path):
        out = str(tmp_path / "plain")
        fd = os.open(out, os.O_CREAT | os.O_WRONLY)
        assert os.writev(fd, [b"pl", b"ain"]) == 5
        os.close(fd)
        assert open(out, "rb").read() == b"plain"


class TestReadv:
    def test_scatter_read_fills_buffers(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.lseek(fd, 0, os.SEEK_SET)
        b1, b2 = bytearray(4), bytearray(4)
        assert os.readv(fd, [b1, b2]) == 8
        assert bytes(b1) == b"0123" and bytes(b2) == b"4567"
        # cursor moved by the total, so a plain read continues at 8
        assert os.read(fd, 2) == b"89"
        os.close(fd)

    def test_short_read_at_eof(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"abcde")
        os.lseek(fd, 0, os.SEEK_SET)
        b1, b2 = bytearray(3), bytearray(4)
        assert os.readv(fd, [b1, b2]) == 5
        assert bytes(b1) == b"abc" and bytes(b2[:2]) == b"de"
        os.close(fd)

    def test_writeonly_fd_raises_ebadf(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        with pytest.raises(OSError) as exc:
            os.readv(fd, [bytearray(1)])
        assert exc.value.errno == errno.EBADF
        os.close(fd)


class TestPositionalVectored:
    def test_pwritev_honours_offset_and_keeps_cursor(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"XXXXXXXX")
        cursor = os.lseek(fd, 0, os.SEEK_CUR)
        assert os.pwritev(fd, [b"ab", b"cd"], 2) == 4
        assert os.lseek(fd, 0, os.SEEK_CUR) == cursor
        os.lseek(fd, 0, os.SEEK_SET)
        assert os.read(fd, 8) == b"XXabcdXX"
        os.close(fd)

    @pytest.mark.parametrize("where", ["flat", "mount"])
    def test_pwritev_on_append_descriptor_appends(self, interposer, f, tmp_path, where):
        # as Linux does on the flat file: appended, whatever the offset says
        path = f if where == "mount" else str(tmp_path / "flat")
        fd = os.open(path, os.O_CREAT | os.O_RDWR | os.O_APPEND)
        os.writev(fd, [b"AA", b"AA"])
        assert os.pwritev(fd, [b"b", b"b"], 0) == 2
        assert os.lseek(fd, 0, os.SEEK_CUR) == 4  # cursor untouched
        assert os.pread(fd, 10, 0) == b"AAAAbb"
        os.close(fd)

    def test_preadv_does_not_move_cursor(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.lseek(fd, 1, os.SEEK_SET)
        b1, b2 = bytearray(2), bytearray(3)
        assert os.preadv(fd, [b1, b2], 4) == 5
        assert bytes(b1) == b"45" and bytes(b2) == b"678"
        assert os.lseek(fd, 0, os.SEEK_CUR) == 1
        os.close(fd)

    def test_positional_passthrough(self, interposer, tmp_path):
        out = str(tmp_path / "plain")
        fd = os.open(out, os.O_CREAT | os.O_RDWR)
        os.pwritev(fd, [b"hello"], 0)
        buf = bytearray(5)
        assert os.preadv(fd, [buf], 0) == 5
        assert bytes(buf) == b"hello"
        os.close(fd)


@pytest.mark.skipif(not hasattr(os, "splice"), reason="os.splice unavailable")
class TestSplice:
    def test_splice_refuses_plfs_fd(self, interposer, f):
        fd = os.open(f, os.O_CREAT | os.O_WRONLY)
        r, w = os.pipe()
        try:
            with pytest.raises(OSError) as exc:
                os.splice(r, fd, 16)
            assert exc.value.errno == errno.EINVAL
        finally:
            os.close(r)
            os.close(w)
            os.close(fd)
