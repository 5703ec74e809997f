"""Bad arguments fail like the OS — and never poison the handle.

A negative offset or count, or an extent ending past ``off_t``, is refused
by the kernel (or by ``os`` itself) with ``EINVAL`` before anything
happens.  On a mount the same calls used to go through: ``pwrite(fd, b"x",
-1)`` appended the byte and buffered an index record at logical offset -1
that made the later ``close`` raise ``OverflowError`` (losing every pending
record of the dropping), ``ftruncate(fd, -1)`` truncated to zero, and
``pwrite(fd, b"x", 2**63 - 1)`` left ``st_size`` past ``off_t``.  Every case
is compared against the same call on a flat file, then the descriptor is
used, closed and read back.

Left out on purpose: ``preadv``/``pwritev`` at offset -1, which Linux's
``preadv2`` takes as "use and move the file position" (the shim answers
``EINVAL``), and extents the *file system* refuses with ``EFBIG`` below
``off_t`` (``s_maxbytes`` is the flat directory's property, not POSIX's).
"""

from __future__ import annotations

import os

import pytest

OFF_MAX = 2**63 - 1
SEED = b"before the bad call"

BAD_CALLS = {
    "pwrite at -1": lambda fd: os.pwrite(fd, b"x", -1),
    "pread at -1": lambda fd: os.pread(fd, 1, -1),
    "read of -1": lambda fd: os.read(fd, -1),
    "pread of -1": lambda fd: os.pread(fd, -1, 0),
    "ftruncate to -1": lambda fd: os.ftruncate(fd, -1),
    "pwrite ending past off_t": lambda fd: os.pwrite(fd, b"x", OFF_MAX),
    "pwritev ending past off_t": lambda fd: os.pwritev(fd, [b"x", b"y"], OFF_MAX - 1),
    "pread ending past off_t": lambda fd: os.pread(fd, 10, OFF_MAX),
    "preadv at -2": lambda fd: os.preadv(fd, [bytearray(4)], -2),
    "pwritev at -2": lambda fd: os.pwritev(fd, [b"x"], -2),
    # not errors, but arguments the mount used to act on: an empty write
    # extends nothing and (O_APPEND aside) moves nothing
    "empty pwrite past EOF": lambda fd: os.pwrite(fd, b"", 1000),
    "empty pwrite at off_t": lambda fd: os.pwrite(fd, b"", OFF_MAX),
    "empty write": lambda fd: (os.write(fd, b""), os.lseek(fd, 0, os.SEEK_CUR)),
}


def outcome(call, *args):
    try:
        return ("returned", call(*args))
    except OSError as exc:
        return ("raised", type(exc).__name__, exc.errno)


@pytest.fixture
def roots(interposer, mnt, tmp_path):
    """(flat directory, mount): the same calls land on a plain file (the
    shim passes them through) and on a PLFS container."""
    flat = tmp_path / "flat"
    flat.mkdir()
    return str(flat), mnt


def seeded(root: str, flags: int) -> int:
    path = f"{root}/f"
    fd = os.open(path, os.O_CREAT | os.O_WRONLY)
    os.write(fd, SEED)
    os.close(fd)
    return os.open(path, flags)


def used_closed_and_read_back(fd: int, root: str):
    """The descriptor still works, closes cleanly, and the file holds what
    was written before and after the bad call."""
    wrote = outcome(os.pwrite, fd, b"after", 32)
    size = os.fstat(fd).st_size
    os.close(fd)
    with open(f"{root}/f", "rb") as fh:
        return wrote, size, fh.read()


@pytest.mark.parametrize("name", BAD_CALLS)
def test_descriptor_calls_match_a_flat_file(roots, name):
    results = []
    for root in roots:
        fd = seeded(root, os.O_RDWR)
        os.lseek(fd, 7, os.SEEK_SET)
        first = outcome(BAD_CALLS[name], fd)
        cursor = os.lseek(fd, 0, os.SEEK_CUR)
        results.append((first, cursor, used_closed_and_read_back(fd, root)))
    flat, mount = results
    assert mount == flat
    assert mount[2][2] == SEED + bytes(32 - len(SEED)) + b"after"


@pytest.mark.parametrize("name", BAD_CALLS)
@pytest.mark.parametrize(
    "flags",
    [os.O_RDONLY, os.O_WRONLY, os.O_WRONLY | os.O_APPEND],
    ids=["rdonly", "wronly", "append"],
)
def test_the_access_mode_is_checked_in_the_kernels_order(roots, name, flags):
    """EINVAL for the sign, EBADF for the mode, EINVAL for the overflow."""
    results = []
    for root in roots:
        fd = seeded(root, flags)
        results.append((outcome(BAD_CALLS[name], fd), os.lseek(fd, 0, os.SEEK_CUR)))
        os.close(fd)
    flat, mount = results
    assert mount == flat


def test_path_truncate_to_a_negative_length(roots):
    results = []
    for root in roots:
        os.close(seeded(root, os.O_RDONLY))
        results.append((outcome(os.truncate, f"{root}/f", -1), os.stat(f"{root}/f").st_size))
    flat, mount = results
    assert mount == flat == (("raised", "OSError", 22), len(SEED))


@pytest.mark.parametrize("buffering", [0, -1])
def test_file_object_calls_match_a_flat_file(roots, buffering):
    results = []
    for root in roots:
        os.close(seeded(root, os.O_RDONLY))
        fh = open(f"{root}/f", "r+b", buffering=buffering)
        fh.seek(7)
        steps = [outcome(fh.truncate, -1), outcome(fh.seek, -1)]
        steps += [outcome(call, fh.fileno()) for call in BAD_CALLS.values()]
        steps.append(fh.tell())
        fh.seek(32)
        fh.write(b"after")
        fh.close()  # flushes: nothing bad was left behind to trip over
        with open(f"{root}/f", "rb") as check:
            results.append((steps, check.read()))
    flat, mount = results
    assert mount == flat
    assert mount[1] == SEED + bytes(32 - len(SEED)) + b"after"
