"""``plfs_writev`` zero-length handling: empty iovec entries are dropped
before the writer sees them, an all-empty iovec is a no-op returning 0,
and a handle not open for writing is refused before either check.
"""

from __future__ import annotations

import os

import pytest

from repro.plfs import api as plfs_api


def test_local_all_empty_iovec_returns_zero(tmp_path):
    path = str(tmp_path / "c")
    fd = plfs_api.plfs_open(path, os.O_CREAT | os.O_RDWR)
    try:
        assert plfs_api.plfs_writev(fd, [b"", b""], 0) == 0
        assert plfs_api.plfs_writev(fd, [], 0) == 0
        assert plfs_api.plfs_writev(fd, [b"", b"xy", b""], 0) == 2
        assert plfs_api.plfs_read(fd, 4, 0) == b"xy"
    finally:
        plfs_api.plfs_close(fd)


def test_local_read_only_handle_still_rejected_before_empty_check(tmp_path):
    path = str(tmp_path / "c")
    fd = plfs_api.plfs_open(path, os.O_CREAT | os.O_RDWR)
    plfs_api.plfs_write(fd, b"seed", 4, 0)
    plfs_api.plfs_close(fd)
    ro = plfs_api.plfs_open(path, os.O_RDONLY)
    try:
        with pytest.raises(plfs_api.BadFlagsError):
            plfs_api.plfs_writev(ro, [b""], 0)
    finally:
        plfs_api.plfs_close(ro)
