"""The plfs-san runtime lockset detector (Eraser over registered state).

The canary pair is the heart of the suite: a deliberately racy miniature
fd table must produce exactly one lockset violation under a seeded
deterministic schedule, and the real :class:`repro.core.fdtable.FdTable`
must produce none under the same kind of two-thread hammering — the
detector is only trustworthy if it fires on the bad twin and stays quiet
on the good one.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.fdtable import FdEntry, FdTable
from repro.core.mounts import MountTable
from repro.sanitize import runtime
from repro.sanitize.runtime import TrackedAsyncLock, TrackedLock


def _racy_table_cls():
    """A fresh miniature FdTable clone with a known lockset bug.

    Defined per-test so instrumentation never leaks between runs: the
    insert_racy path touches ``_entries`` without ``_lock``, which is the
    exact bug class the real table fixed in PR 1.
    """

    class RacyTable:
        _SANITIZE_SHARED = {"_entries": "_lock"}

        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._entries: dict[int, str] = {}

        def insert_locked(self, fd: int, path: str) -> None:
            with self._lock:
                self._entries[fd] = path

        def insert_racy(self, fd: int, path: str) -> None:
            self._entries[fd] = path

    return RacyTable


def _run_seeded_schedule(table, racy: bool) -> None:
    """Two threads touching *table* in a deterministic A-then-B order."""
    a_done = threading.Event()

    def locked_writer() -> None:
        table.insert_locked(1, "/a")
        a_done.set()

    def second_writer() -> None:
        a_done.wait(timeout=5)
        if racy:
            table.insert_racy(2, "/b")
        else:
            table.insert_locked(2, "/b")

    threads = [
        threading.Thread(target=locked_writer),
        threading.Thread(target=second_writer),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestLocksetPrimitives:
    def test_tracked_lock_mirrors_held_state(self, san):
        lock = TrackedLock(threading.Lock(), "test.lock")
        assert runtime.current_lockset() == frozenset()
        with lock:
            assert "test.lock" in runtime.current_lockset()
            assert lock.locked()
        assert runtime.current_lockset() == frozenset()

    def test_tracked_lock_reentrant(self, san):
        lock = TrackedLock(threading.RLock(), "test.rlock")
        with lock:
            with lock:
                assert "test.rlock" in runtime.current_lockset()
            assert "test.rlock" in runtime.current_lockset()
        assert runtime.current_lockset() == frozenset()

    def test_lockset_is_per_thread(self, san):
        lock = TrackedLock(threading.Lock(), "test.lock")
        seen: list[frozenset] = []
        with lock:
            t = threading.Thread(
                target=lambda: seen.append(runtime.current_lockset())
            )
            t.start()
            t.join()
        assert seen == [frozenset()]


class TestKnownBadFixture:
    @pytest.mark.sanitize_expect_races
    def test_racy_table_reports_exactly_one_violation(self, san):
        cls = _racy_table_cls()
        runtime.instrument([cls])
        table = cls()
        _run_seeded_schedule(table, racy=True)
        violations = runtime.violations()
        assert len(violations) == 1
        v = violations[0]
        assert "RacyTable._entries" in v.var
        assert v.kind == "write"
        assert v.lockset == []
        assert v.stack, "violation must carry the offending stack"
        assert v.history, "violation must carry first-access evidence"
        text = v.render()
        assert "lockset violation" in text
        assert "no common lock" in text

    def test_same_table_clean_when_both_sides_lock(self, san):
        cls = _racy_table_cls()
        runtime.instrument([cls])
        table = cls()
        _run_seeded_schedule(table, racy=False)
        assert runtime.violations() == []

    @pytest.mark.sanitize_expect_races
    def test_violation_serialises_and_maps_to_ldp204(self, san):
        cls = _racy_table_cls()
        runtime.instrument([cls])
        table = cls()
        _run_seeded_schedule(table, racy=True)
        (v,) = runtime.violations()
        data = v.as_dict()
        assert set(data) == {
            "var", "kind", "thread", "lockset", "stack", "history"
        }
        finding = v.to_finding()
        assert finding.rule == "LDP204"
        assert finding.severity.name == "HIGH"
        assert finding.file == v.var


class TestRealSharedState:
    def test_fdtable_clean_under_two_thread_hammering(self, san, tmp_path):
        table = FdTable(os)
        barrier = threading.Barrier(2)

        def worker() -> None:
            barrier.wait(timeout=5)
            for i in range(25):
                entry = table.insert(
                    None, os.O_RDONLY, f"/x/{threading.get_ident()}.{i}"
                )
                assert table.lookup(entry.fd) is entry
                removed = table.remove(entry.fd)
                table.close_shadow(removed)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(table) == 0
        assert runtime.violations() == []

    def test_lock_free_lookup_races_every_mutator(self, san):
        """``lookup`` takes no lock (the registry lets ``_entries`` be read
        lock-free): at a 1 µs switch interval, lookups racing ``insert``,
        ``dup`` and ``remove`` see the entry or ``None`` and never raise,
        and every write is still made under the lock."""
        table = FdTable(os)
        latest = [0]
        done = threading.Event()
        errors: list[BaseException] = []
        looked: list[int] = []

        def mutate(handle: SimpleNamespace) -> None:
            try:
                for i in range(150):
                    entry = table.insert(handle, os.O_RDONLY, f"/x/{i}")
                    latest[0] = entry.fd
                    twin = table.dup(entry, os.dup(entry.fd))
                    latest[0] = twin.fd
                    for fd in (entry.fd, twin.fd):
                        table.close_shadow(table.remove(fd))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def look() -> None:
            n = 0
            try:
                while not done.is_set():
                    for fd in (latest[0], latest[0] + 1):
                        entry = table.lookup(fd)
                        assert entry is None or (isinstance(entry, FdEntry) and entry.fd == fd)
                        n += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            looked.append(n)

        handles = [SimpleNamespace(refs=1) for _ in range(2)]  # what dup's plfs_ref counts
        mutators = [threading.Thread(target=mutate, args=(h,)) for h in handles]
        lookers = [threading.Thread(target=look) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in lookers + mutators:
                t.start()
            for t in mutators:
                t.join(timeout=60)
            done.set()
            for t in lookers:
                t.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in mutators + lookers)
        assert errors == []
        assert len(looked) == 2 and all(looked)
        assert len(table) == 0 and [h.refs for h in handles] == [1 + 150] * 2
        assert runtime.violations() == []

    def test_mount_table_clean_under_concurrent_resolution(
        self, san, tmp_path
    ):
        table = MountTable()
        table.add(str(tmp_path / "mnt"), str(tmp_path / "backend"))
        barrier = threading.Barrier(2)

        def worker(idx: int) -> None:
            barrier.wait(timeout=5)
            for i in range(20):
                point = str(tmp_path / f"mnt{idx}.{i}")
                table.add(point, str(tmp_path / f"backend{idx}.{i}"))
                assert table.find(point) is not None
                table.remove(point)

        threads = [
            threading.Thread(target=worker, args=(idx,)) for idx in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert runtime.violations() == []


class TestAsyncioIntegration:
    def test_async_lock_and_executor_inheritance(self, san):
        observed: dict[str, frozenset] = {}

        async def main() -> None:
            lock = TrackedAsyncLock(asyncio.Lock(), "test.alock")
            async with lock:
                loop = asyncio.get_running_loop()

                def probe() -> None:
                    observed["executor"] = runtime.current_lockset()

                await loop.run_in_executor(None, probe)
                observed["task"] = runtime.current_lockset()
            observed["after"] = runtime.current_lockset()

        asyncio.run(main())
        assert "test.alock" in observed["executor"]
        assert "test.alock" in observed["task"]
        assert observed["after"] == frozenset()

    def test_async_lock_isolated_per_task(self, san):
        observed: dict[str, frozenset] = {}

        async def main() -> None:
            lock = TrackedAsyncLock(asyncio.Lock(), "test.alock")

            async def holder() -> None:
                async with lock:
                    observed["holder"] = runtime.current_lockset()
                    await asyncio.sleep(0.01)

            async def bystander() -> None:
                await asyncio.sleep(0.005)
                observed["bystander"] = runtime.current_lockset()

            await asyncio.gather(holder(), bystander())

        asyncio.run(main())
        assert "test.alock" in observed["holder"]
        assert observed["bystander"] == frozenset()


class TestLifecycle:
    def test_disable_restores_plain_containers(self):
        if runtime.enabled():
            pytest.skip("session-wide --sanitize instrumentation is active")
        runtime.enable()
        try:
            table = FdTable(os)
            entry = table.insert(None, os.O_RDONLY, "/x")
            assert type(table.__dict__["_entries"]).__name__ == "_TrackedDict"
            table.close_shadow(table.remove(entry.fd))
        finally:
            runtime.disable()
            runtime.reset()
        table = FdTable(os)
        entry = table.insert(None, os.O_RDONLY, "/y")
        assert type(table.__dict__["_entries"]) is dict
        assert table.lookup(entry.fd) is entry
        table.close_shadow(table.remove(entry.fd))
        assert runtime.violations() == []

    def test_instrument_requires_enabled(self):
        if runtime.enabled():
            pytest.skip("session-wide --sanitize instrumentation is active")
        with pytest.raises(RuntimeError):
            runtime.instrument([_racy_table_cls()])

    def test_report_roundtrip(self, san, tmp_path):
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        runtime.write_report(str(report_dir / "sanitize-123.json"))
        reports = runtime.load_reports(str(report_dir))
        assert len(reports) == 1
        assert reports[0]["pid"] == os.getpid()
        assert reports[0]["violations"] == []
        assert runtime.load_reports(str(report_dir / "missing")) == []
