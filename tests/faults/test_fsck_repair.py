"""``repro-fsck`` replaces an index dropping, it never rewrites one in place.

Truncate-then-write destroyed the only copy of the records before the new
ones were written, and changed — even grew — the content under an inode
that other processes' cached indexes remember as append-only.
"""

from __future__ import annotations

import os

import pytest

from repro import plfs
from repro.faults import InjectedCrash
from repro.plfs.fsck import REPAIR_TMP_PREFIX, fsck
from repro.plfs.cache import IndexCache
from repro.plfs.container import Container
from repro.plfs.index import RECORD_SIZE, load_global_index


def write_blocks(path: str, blocks) -> None:
    """One record per block: none continues the one before it."""
    fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
    for block in blocks:
        plfs.plfs_write(fd, bytes([65 + block]) * 16, 16, 16 * block)
    plfs.plfs_close(fd)


def hostdir_names(container: Container) -> list[str]:
    return sorted(name for hostdir in container.hostdirs() for name in os.listdir(hostdir))


def test_a_crash_before_the_rename_leaves_the_old_dropping_whole(container_path, monkeypatch):
    write_blocks(container_path, (3, 2, 1, 0))
    container = Container(container_path)
    index_path = container.droppings()[0][0]
    os.truncate(index_path, 4 * RECORD_SIZE - 7)  # a torn flush
    with open(index_path, "rb") as fh:
        torn = fh.read()

    def crash(src, dst):
        assert dst == index_path and os.path.getsize(src) == 3 * RECORD_SIZE
        raise InjectedCrash("killed between the temporary's write and the rename")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", crash)
        with pytest.raises(InjectedCrash):
            fsck(container_path)
    with open(index_path, "rb") as fh:
        assert fh.read() == torn  # not one byte of the only copy was touched
    leftover = [n for n in hostdir_names(container) if n.startswith(REPAIR_TMP_PREFIX)]
    assert len(leftover) == 1
    assert len(container.droppings()) == 1  # a name no dropping enumeration picks up

    report = fsck(container_path)  # the next run sweeps it and repairs
    assert "sweep-repair-tmp" in [a.kind for a in report.actions]
    assert "truncate-torn-index" in [a.kind for a in report.actions]
    assert not [n for n in hostdir_names(container) if n.startswith(REPAIR_TMP_PREFIX)]
    assert os.path.getsize(index_path) == 3 * RECORD_SIZE
    assert report.check is not None and report.check.ok
    assert not fsck(container_path).repaired


def test_a_clipped_index_dropping_is_a_new_file_to_another_processes_cache(container_path):
    """The data dropping lost its tail: the repair shortens the last
    record's length and the index dropping keeps its size.  A cache that no
    in-process invalidation reaches must not take "same name, same size"
    for an unchanged dropping."""
    write_blocks(container_path, (2, 1, 0))
    container = Container(container_path)
    index_path, data_path = container.droppings()[0]
    os.truncate(data_path, 3 * 16 - 5)  # the last block's tail never landed
    cache = IndexCache()  # stands for another process
    cache.get(container)
    before = os.stat(index_path)

    report = fsck(container_path)
    assert "clip-index" in [a.kind for a in report.actions]
    after = os.stat(index_path)
    assert after.st_size == 3 * RECORD_SIZE == before.st_size
    assert (after.st_dev, after.st_ino) != (before.st_dev, before.st_ino)

    loaded, _ = cache.get(container)
    assert cache.stats["merged_builds"] == 2 and cache.stats["extensions"] == 0
    scratch, paths = load_global_index(container.droppings())
    assert loaded.data_paths == paths and loaded.index.segments() == scratch.segments()
    assert tuple(loaded.index.segments()[0][:2]) == (0, 16 - 5)  # the clipped record
