"""Regression: scatter reads into non-byte buffers (readv/preadv).

``os.readv`` accepts any writable buffer — ``array('i')``, numpy slabs,
multi-byte memoryviews.  The shim's scatter loop assigned byte strings
into those views without casting, so a PLFS-backed ``readv`` into an
``array('i')`` raised ``ValueError: memoryview assignment: lvalue and
rvalue have different structures`` where the real syscall fills bytes
regardless of element type.  The return value was also wrong on short
reads: ``os.readv`` returns bytes *scattered*, which the old code only
got right when every buffer filled completely.

The write side has the mirror contract: ``os.write``/``os.writev`` take any
C-contiguous buffer and count bytes, and refuse a strided one with
``BufferError`` — which a mount used to copy and write instead (the
``tobytes()`` fallbacks of three separate normalisers).
"""

from __future__ import annotations

import os
from array import array

import numpy as np
import pytest


@pytest.fixture
def f(mnt):
    return f"{mnt}/itemsize"


def test_readv_fills_int_array(interposer, f):
    values = array("i", range(8))
    fd = os.open(f, os.O_CREAT | os.O_RDWR)
    os.write(fd, values.tobytes())
    os.lseek(fd, 0, os.SEEK_SET)
    out = array("i", [0] * 8)
    n = os.readv(fd, [out])
    os.close(fd)
    assert n == 8 * values.itemsize
    assert out == values


def test_preadv_scatter_across_mixed_itemsizes(interposer, f):
    fd = os.open(f, os.O_CREAT | os.O_RDWR)
    os.write(fd, bytes(range(16)))
    head = bytearray(4)
    tail = array("i", [0, 0])
    n = os.preadv(fd, [head, tail], 2)
    os.close(fd)
    assert n == 12
    assert bytes(head) == bytes([2, 3, 4, 5])
    assert tail.tobytes() == bytes(range(6, 14))


def test_readv_short_read_returns_bytes_scattered(interposer, f):
    fd = os.open(f, os.O_CREAT | os.O_RDWR)
    os.write(fd, b"abcdef")
    os.lseek(fd, 0, os.SEEK_SET)
    out = array("i", [0, 0, 0])  # 12-byte buffer over a 6-byte file
    n = os.readv(fd, [out])
    assert n == 6
    assert out.tobytes()[:6] == b"abcdef"
    # the cursor moved by exactly the scattered bytes
    assert os.lseek(fd, 0, os.SEEK_CUR) == 6
    os.close(fd)


# ---------------------------------------------------------------------- #
# the write side: one normaliser, the OS's contract
# ---------------------------------------------------------------------- #

STRIDED = memoryview(b"abcdefgh")[::2]

WRITES = {
    "write": lambda fd, buf: os.write(fd, buf),
    "pwrite": lambda fd, buf: os.pwrite(fd, buf, 3),
    "writev": lambda fd, buf: os.writev(fd, [b"ok", buf]),
    "pwritev": lambda fd, buf: os.pwritev(fd, [b"ok", buf], 3),
}


def _both(f, tmp_path, call):
    """*call(fd)* on a flat file and on the mount: (outcome, size, bytes) each."""
    results = []
    for path in (str(tmp_path / "flat"), f):
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            try:
                got = ("returned", call(fd))
            except (BufferError, TypeError) as exc:
                got = ("raised", type(exc).__name__)
            results.append((got, os.fstat(fd).st_size, os.pread(fd, 1 << 10, 0)))
        finally:
            os.close(fd)
    return results


@pytest.mark.parametrize("name", WRITES)
def test_noncontiguous_write_buffer_raises_like_the_os(interposer, f, tmp_path, name):
    flat, mount = _both(f, tmp_path, lambda fd: WRITES[name](fd, STRIDED))
    assert mount == flat == (("raised", "BufferError"), 0, b"")


def test_raw_file_object_write_of_a_noncontiguous_buffer(interposer, f, tmp_path):
    for path in (str(tmp_path / "flat"), f):
        with open(path, "wb", buffering=0) as raw:
            with pytest.raises(BufferError):
                raw.write(STRIDED)
            assert raw.write(b"fine") == 4
        with open(path, "rb") as fh:
            assert fh.read() == b"fine"


@pytest.mark.parametrize("name", WRITES)
@pytest.mark.parametrize(
    "make",
    [
        lambda: array("i", range(5)),
        lambda: np.arange(6, dtype=np.int32).reshape(2, 3)[1],  # a contiguous row view
        lambda: np.arange(6, dtype=np.int32).reshape(2, 3),  # N-d, contiguous
        lambda: bytearray(b"mutable"),
        lambda: b"",
    ],
    ids=["array-i", "int32-row", "int32-2d", "bytearray", "empty"],
)
def test_contiguous_write_buffers_count_bytes(interposer, f, tmp_path, name, make):
    flat, mount = _both(f, tmp_path, lambda fd: WRITES[name](fd, make()))
    assert mount == flat and flat[0][0] == "returned"


def test_iovec_mixing_item_sizes_lands_byte_for_byte(interposer, f, tmp_path):
    iov = [array("h", [1, 2, 3]), b"", bytearray(b"xy"), np.arange(3, dtype=np.int64)]
    flat, mount = _both(f, tmp_path, lambda fd: os.writev(fd, iov))
    assert mount == flat
    assert flat[0] == ("returned", 6 + 2 + 24)


@pytest.mark.parametrize("name", WRITES)
def test_str_is_a_type_error(interposer, f, tmp_path, name):
    flat, mount = _both(f, tmp_path, lambda fd: WRITES[name](fd, "text"))
    assert mount == flat == (("raised", "TypeError"), 0, b"")
