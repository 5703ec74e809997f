"""Namespace changes under an open descriptor, flat directory against mount.

``MountEquivalence`` has no rule yet that renames or unlinks a file while a
descriptor holds it open (ROADMAP item 7 (i)).  Each sequence here runs on
a flat directory and on a mount under one installed interposer, and the
two must end alike: the same return or error from every call, the same
bytes and the same size.  A known divergence is a strict ``xfail`` whose
reason names the item.
"""

from __future__ import annotations

import os

import pytest


def _outcome(call) -> tuple:
    try:
        return ("ok", call())
    except OSError as exc:
        return (type(exc).__name__, exc.errno)


@pytest.fixture
def sides(interposer, mnt, tmp_path):
    """A flat root and a mount root, both under the installed interposer."""
    flat = tmp_path / "flat"
    flat.mkdir()
    return str(flat), mnt


def _rename_while_open(root: str) -> tuple:
    fd = os.open(f"{root}/a", os.O_WRONLY | os.O_CREAT, 0o644)
    os.write(fd, b"1111")
    os.rename(f"{root}/a", f"{root}/b")
    os.write(fd, b"2222")
    closed = _outcome(lambda: os.close(fd))
    with open(f"{root}/b", "rb") as fh:
        return closed, fh.read(), os.stat(f"{root}/b").st_size


def _unlink_while_open(root: str) -> tuple:
    fd = os.open(f"{root}/c", os.O_WRONLY | os.O_CREAT, 0o644)
    os.write(fd, b"1111")
    os.unlink(f"{root}/c")
    return _outcome(lambda: os.close(fd)), os.path.exists(f"{root}/c")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7 (i): a renamed container's close appends its index "
    "to the old path and raises FileNotFoundError; the new name reads b''",
)
def test_rename_while_open(sides):
    flat_root, mount_root = sides
    flat = _rename_while_open(flat_root)
    assert flat == (("ok", None), b"11112222", 8)
    assert _rename_while_open(mount_root) == flat


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7 (i): an unlinked container's close raises "
    "FileNotFoundError where the flat close succeeds",
)
def test_unlink_while_open(sides):
    flat_root, mount_root = sides
    flat = _unlink_while_open(flat_root)
    assert flat == (("ok", None), False)
    assert _unlink_while_open(mount_root) == flat
