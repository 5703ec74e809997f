"""Compaction is a persistence boundary: faults at the ``global_index``
point must never cost data or fail a close — the compacted index is a
cache, and the worst a torn compaction leaves behind is a temporary file
``repro-fsck`` sweeps."""

from __future__ import annotations

import os

import pytest

from repro import plfs
from repro.plfs.fsck import fsck
from repro.faults.injector import FaultInjector, FaultSpec, InjectedCrash
from repro.plfs.cache import load_index, shared_cache
from repro.plfs.container import Container

PAYLOAD = b"0123456789abcdef" * 8


def write_and_close(path, *, injector=None):
    fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
    for i in range(4):
        plfs.plfs_write(fd, PAYLOAD, len(PAYLOAD), i * len(PAYLOAD), pid=i)
    if injector is None:
        plfs.plfs_close(fd)
    else:
        with injector.armed():
            plfs.plfs_close(fd)


def read_back(path):
    fd = plfs.plfs_open(path, os.O_RDONLY)
    try:
        return plfs.plfs_read(fd, len(PAYLOAD) * 4 + 64, 0)
    finally:
        plfs.plfs_close(fd)


class TestCompactionFaults:
    def test_enospc_during_compaction_does_not_fail_close(
        self, container_path
    ):
        inj = FaultInjector([FaultSpec("global_index", "enospc")])
        write_and_close(container_path, injector=inj)  # must not raise
        assert len(inj.fired("global_index")) == 1
        container = Container(container_path)
        assert not os.path.exists(container.global_index_path())
        # Readers take the slow path; no bytes lost.
        assert load_index(container).source == "merged"
        assert read_back(container_path) == PAYLOAD * 4

    @pytest.mark.parametrize("behavior", ["crash", "torn"])
    def test_crash_during_compaction_loses_nothing(
        self, container_path, behavior
    ):
        inj = FaultInjector([FaultSpec("global_index", behavior)])
        with pytest.raises(InjectedCrash):
            # The "process dies" during the post-close compaction: the
            # data and index droppings were already durable.
            write_and_close(container_path, injector=inj)
        container = Container(container_path)
        assert not os.path.exists(container.global_index_path())
        shared_cache().clear()
        assert read_back(container_path) == PAYLOAD * 4

        report = fsck(container_path)
        assert report.ok, report.render()
        if behavior == "torn":
            # The torn payload landed in the temporary; fsck sweeps it.
            assert any(
                a.kind == "sweep-compaction-tmp" for a in report.actions
            ), report.render()
        leftovers = [
            n
            for n in os.listdir(container_path)
            if n.startswith("global.index.tmp.")
        ]
        assert not leftovers
        assert read_back(container_path) == PAYLOAD * 4

    def test_compact_tool_surfaces_enospc(self, container_path):
        from repro.plfs.tools import plfs_compact

        write_and_close(container_path)
        Container(container_path).drop_global_index()
        inj = FaultInjector([FaultSpec("global_index", "enospc")])
        with inj.armed(), pytest.raises(OSError):
            plfs_compact(container_path)
        # Explicit tooling reports the failure; nothing half-written.
        assert not os.path.exists(
            Container(container_path).global_index_path()
        )

    def test_fsck_drops_compacted_index_stale_after_repair(
        self, container_path
    ):
        write_and_close(container_path)
        container = Container(container_path)
        assert os.path.exists(container.global_index_path())
        # Damage an index dropping: fsck truncates it, changing the epoch.
        index_path = container.droppings()[0][0]
        with open(index_path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # torn trailing partial record
        report = fsck(container_path)
        assert any(
            a.kind == "drop-stale-compacted" for a in report.actions
        ), report.render()
        assert not os.path.exists(container.global_index_path())

    def test_fsck_keeps_fresh_compacted_index(self, container_path):
        write_and_close(container_path)
        container = Container(container_path)
        report = fsck(container_path)
        assert report.ok
        assert not any(
            a.kind == "drop-stale-compacted" for a in report.actions
        )
        assert os.path.exists(container.global_index_path())
        assert load_index(container).source == "compacted"
