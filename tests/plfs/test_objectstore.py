"""Unit coverage for the object store, the write-back tier, and the
tiered ``BackingStore`` — including the error-path hygiene regressions
(a failed PUT must leave the entry dirty; a crashed flush must never
mark clean first) and the injector-routing audit (every object op must
pass through an armed ``FaultyBackingStore``)."""

from __future__ import annotations

import os

import pytest

from repro import plfs
from repro.faults.injector import FaultInjector, FaultSpec, InjectedCrash
from repro.plfs import backing
from repro.plfs.objectstore import (
    ObjectStore,
    ObjectStoreBackingStore,
    ObjectStoreError,
    WriteBackTier,
    make_backend,
)
from repro.plfs.objectstore.tier import LOWATER_BYTES


@pytest.fixture
def store(tmp_path):
    return ObjectStore(str(tmp_path / "objects"))


@pytest.fixture
def tiered(tmp_path, store):
    root = tmp_path / "tiered"
    root.mkdir()
    return store, WriteBackTier(store, str(root))


def _seed_local(tier, key: str, data: bytes) -> str:
    path = tier.local_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


# ---------------------------------------------------------------------- #
# the store itself
# ---------------------------------------------------------------------- #


class TestObjectStore:
    def test_put_get_roundtrip(self, store):
        info = store.put("c/hostdir.0/dropping.data.1", b"payload bytes")
        assert info.size == 13 and info.parts == 1
        assert store.get("c/hostdir.0/dropping.data.1") == b"payload bytes"
        assert store.head("c/hostdir.0/dropping.data.1") == info

    def test_head_on_missing_key_is_none(self, store):
        assert store.head("nope/never") is None

    def test_list_is_prefix_scoped_and_sorted(self, store):
        store.put("a/x", b"1")
        store.put("a/y", b"2")
        store.put("b/z", b"3")
        assert store.list("a/") == ["a/x", "a/y"]
        assert store.list() == ["a/x", "a/y", "b/z"]

    def test_delete_is_idempotent(self, store):
        store.put("k", b"v")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.head("k") is None

    def test_identical_payloads_share_one_blob(self, store):
        store.put("one", b"same bytes")
        store.put("two", b"same bytes")
        assert store.stats["object_dedup_hits"] == 1
        blobs = [
            name
            for _, _, names in os.walk(os.path.join(store.root, "blobs"))
            for name in names
        ]
        assert len(blobs) == 1

    @pytest.mark.parametrize("bad", ["/abs", "a/../b", "", "a//b", "./a"])
    def test_malformed_keys_are_rejected(self, store, bad):
        with pytest.raises(ValueError):
            store.put(bad, b"x")

    def test_get_detects_corrupt_blob(self, store):
        info = store.put("k", b"original")
        blob = store._blob_path(info.etag)
        with open(blob, "wb") as fh:
            fh.write(b"corrupted")
        with pytest.raises(ObjectStoreError, match="corrupt"):
            store.get("k")

    def test_get_detects_lost_blob(self, store):
        info = store.put("k", b"original")
        os.unlink(store._blob_path(info.etag))
        with pytest.raises(ObjectStoreError, match="lost blob"):
            store.get("k")

    def test_multipart_assembles_byte_identical(self, store):
        payload = bytes(range(256)) * 40
        info = store.put("big", payload, part_size=1000)
        assert info.parts > 1
        assert store.get("big") == payload
        assert store.pending_uploads() == []

    def test_multipart_abort_leaves_no_object(self, store):
        upload = store.create_multipart("k")
        upload.write_part(b"part one")
        upload.abort()
        assert store.head("k") is None
        assert store.pending_uploads() == []

    def test_uncommitted_upload_is_invisible_but_pending(self, store):
        upload = store.create_multipart("c/k")
        upload.write_part(b"part one")
        assert store.head("c/k") is None
        assert store.list() == []
        [(staging, key)] = store.pending_uploads()
        assert key == "c/k" and os.path.isdir(staging)

    def test_sweep_blobs_keeps_referenced(self, store):
        store.put("keep", b"kept")
        info = store.put("drop", b"dropped")
        store.delete("drop")
        assert store.sweep_blobs() == 1
        assert store.get("keep") == b"kept"
        assert not os.path.exists(store._blob_path(info.etag))


# ---------------------------------------------------------------------- #
# the write-back tier
# ---------------------------------------------------------------------- #


class TestWriteBackTier:
    def test_write_through_then_drain_uploads(self, tiered):
        store, tier = tiered
        path = _seed_local(tier, "c/f", b"hello")
        tier.note_write(path, 5)
        assert tier.dirty_keys() == ["c/f"]
        tier.drain()
        assert tier.dirty_keys() == [] and tier.clean_keys() == ["c/f"]
        assert store.get("c/f") == b"hello"

    def test_hiwater_triggers_flush_to_lowater(self, tiered):
        store, tier = tiered  # hiwater 96 KiB, lowater 32 KiB
        chunk = 30 * 1024
        for i in range(4):
            path = _seed_local(tier, f"c/f{i}", b"x" * chunk)
            tier.note_write(path, chunk)
        assert tier.stats["tier_hiwater_wakeups"] == 1
        assert tier.dirty_bytes() <= LOWATER_BYTES
        # oldest-first: f0 flushed before f3
        assert "c/f0" in tier.clean_keys()

    def test_repeat_writes_to_dirty_entry_are_absorbed(self, tiered):
        _, tier = tiered
        path = _seed_local(tier, "c/f", b"ab")
        tier.note_write(path, 1)
        tier.note_write(path, 1)
        assert tier.stats["tier_absorbed_writes"] == 1
        assert tier.dirty_keys() == ["c/f"]

    def test_paths_outside_root_are_ignored(self, tiered, tmp_path):
        _, tier = tiered
        outside = tmp_path / "elsewhere"
        outside.write_bytes(b"x")
        tier.note_write(str(outside), 1)
        assert tier.dirty_keys() == []
        assert tier.stats["tier_untracked_writes"] == 1
        tier.note_write(os.path.join(tier.root, "..", "x"), 1)
        assert tier.dirty_keys() == []
        assert tier.stats["tier_untracked_writes"] == 2

    def test_evict_reclaims_clean_only_and_restore_refills(self, tiered):
        store, tier = tiered
        clean_path = _seed_local(tier, "c/clean", b"clean bytes")
        tier.note_write(clean_path, 11)
        tier.drain()
        dirty_path = _seed_local(tier, "c/dirty", b"dirty bytes")
        tier.note_write(dirty_path, 11)

        assert tier.evict() == 11
        assert not os.path.exists(clean_path)
        assert os.path.exists(dirty_path), "eviction must never touch dirty entries"

        assert tier.restore_missing("c/") == ["c/clean"]
        with open(clean_path, "rb") as fh:
            assert fh.read() == b"clean bytes"

    def test_vanished_local_file_deletes_stale_object(self, tiered):
        store, tier = tiered
        path = _seed_local(tier, "c/gone", b"short-lived")
        tier.note_write(path, 11)
        tier.drain()
        assert store.head("c/gone") is not None
        # more bytes are noted, then the workload deletes the file locally
        tier.note_write(path, 4)
        os.unlink(path)
        tier.drain()
        assert store.head("c/gone") is None, (
            "a restore must not resurrect a file the workload deleted"
        )
        assert tier.stats["tier_vanished"] == 1
        assert tier.dirty_keys() == []


# ---------------------------------------------------------------------- #
# error-path hygiene (the satellite bug sweep)
# ---------------------------------------------------------------------- #


class TestTierHygiene:
    """A failed PUT must leave the entry dirty; a crashed flush must not
    mark clean before the object lands (modelled on TestWriterHygiene)."""

    def _dirty_tier(self, tiered, data=b"must survive"):
        store, tier = tiered
        path = _seed_local(tier, "c/f", data)
        tier.note_write(path, len(data))
        return store, tier, path

    def test_failed_put_keeps_entry_dirty_and_drain_raises(self, tiered):
        store, tier, path = self._dirty_tier(tiered)
        injector = FaultInjector([FaultSpec("object_put", "enospc", op=1)])
        with injector.armed():
            with pytest.raises(OSError):
                tier.drain()
        assert tier.dirty_keys() == ["c/f"], "failed PUT must leave the entry dirty"
        assert tier.clean_keys() == []
        assert store.head("c/f") is None
        # the retry path: a later drain uploads it
        tier.drain()
        assert store.get("c/f") == b"must survive"

    def test_background_flush_swallows_error_but_stays_dirty(self, tiered):
        # past lowater, so flush_to_lowater actually attempts a PUT
        store, tier, path = self._dirty_tier(tiered, data=b"x" * (LOWATER_BYTES + 1024))
        injector = FaultInjector([FaultSpec("object_put", "enospc", op=1)])
        with injector.armed():
            tier.flush_to_lowater()  # background flusher: record, move on
        assert tier.stats["tier_put_errors"] == 1
        assert tier.dirty_keys() == ["c/f"]

    def test_crashed_flush_never_marks_clean_first(self, tiered):
        store, tier, path = self._dirty_tier(tiered)
        injector = FaultInjector([FaultSpec("object_commit", "crash", op=1)])
        with injector.armed():
            with pytest.raises(InjectedCrash):
                tier.drain()
        assert tier.dirty_keys() == ["c/f"], (
            "crash mid-flush must leave the entry dirty — marking clean "
            "first would let eviction reap the only copy"
        )
        # eviction right after the crash must refuse the entry
        tier.evict()
        assert os.path.exists(path)

    def test_lost_commit_falsely_marks_clean_without_the_object(self, tiered):
        """The failure mode the stale-tier-eviction matrix arm builds on:
        a *lost* (acknowledged, unpersisted) commit defeats the hygiene
        invariant by construction — the tier cannot tell."""
        store, tier, path = self._dirty_tier(tiered)
        injector = FaultInjector([FaultSpec("object_commit", "lost", op=1)])
        with injector.armed():
            tier.drain()
        assert tier.clean_keys() == ["c/f"]
        assert store.head("c/f") is None


# ---------------------------------------------------------------------- #
# the BackingStore implementation + injector routing (satellite audit)
# ---------------------------------------------------------------------- #


class TestObjectStoreBackingStore:
    def test_writes_pass_through_and_note_the_tier(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        be = make_backend(str(root))
        path = str(root / "c" / "dropping.data.1")
        os.makedirs(os.path.dirname(path))
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            assert be.write_data(fd, b"abc", path) == 3
            assert be.write_datav(fd, [b"de", b"f"], path) == 3
        finally:
            os.close(fd)
        assert be.tier.dirty_keys() == ["c/dropping.data.1"]
        with open(path, "rb") as fh:
            assert fh.read() == b"abcdef"

    def test_fsync_is_a_tier_sync_barrier(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        be = make_backend(str(root))
        path = str(root / "f")
        with open(path, "wb") as fh:
            fh.write(b"durable")
        be.tier.note_write(path, 7)
        fd = os.open(path, os.O_RDONLY)
        try:
            be.fsync(fd)
        finally:
            os.close(fd)
        assert be.tier.dirty_keys() == []
        assert be.store.get("f") == b"durable"
        assert be.counters()["tier_sync_drains"] == 1

    def test_a_name_starting_with_dotdot_is_under_the_root(self, tmp_path):
        """``..ckpt`` is a child of the tiered root, not its parent: its
        droppings reach the store on sync exactly as a sibling's do."""
        root = tmp_path / "root"
        root.mkdir()
        be = make_backend(str(root))
        uploaded = {}
        previous = backing.install(be)
        try:
            for name in ("ckpt", "..ckpt"):
                fd = plfs.plfs_open(str(root / name), os.O_CREAT | os.O_WRONLY, mode=0o644)
                plfs.plfs_write(fd, b"checkpoint", 10, 0)
                plfs.plfs_sync(fd)
                uploaded[name] = len(be.store.list(name + "/"))
                plfs.plfs_close(fd)
        finally:
            backing.install(previous)
        assert be.tier.stats["tier_untracked_writes"] == 0
        assert uploaded["..ckpt"] == uploaded["ckpt"] > 0

    def test_armed_injector_wraps_the_installed_backend(self, tmp_path):
        """The routing bugfix: arming over an installed objectstore
        backend must inject *into* it, not route around it (the PR-5
        ``write_datav`` routing gap, one layer up)."""
        root = tmp_path / "root"
        root.mkdir()
        be = make_backend(str(root))
        injector = FaultInjector([FaultSpec("data_write", "enospc", op=1)])
        previous = backing.install(be)
        try:
            with injector.armed():
                wrapper = backing.current()
                assert wrapper.inner is be, (
                    "armed() must wrap the installed store, not a fresh default"
                )
                path = str(root / "f")
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
                try:
                    with pytest.raises(OSError):
                        wrapper.write_data(fd, b"x", path)
                finally:
                    os.close(fd)
            # un-armed: writes reach the backend (and its tier) again
            assert backing.current() is be
        finally:
            backing.install(previous)

    @pytest.mark.parametrize(
        "point", ["object_put", "object_part", "object_commit", "object_get"]
    )
    def test_every_object_op_routes_through_the_injector(self, tmp_path, point):
        """No objectstore operation may bypass an armed injector."""
        store = ObjectStore(str(tmp_path / "objects"))
        store.put("pre", b"pre-faulted")  # for the GET arm
        injector = FaultInjector([FaultSpec(point, "enospc", op=1)])
        with injector.armed():
            with pytest.raises(OSError):
                if point == "object_part":
                    store.put("k", b"z" * 64, part_size=16)
                elif point == "object_get":
                    store.get("pre")
                else:
                    store.put("k", b"payload")
        assert [e.point for e in injector.fired()] == [point]

    def test_lost_get_surfaces_as_missing_object(self, tmp_path):
        store = ObjectStore(str(tmp_path / "objects"))
        store.put("k", b"v")
        injector = FaultInjector([FaultSpec("object_get", "lost", op=1)])
        with injector.armed():
            with pytest.raises(ObjectStoreError, match="lost blob"):
                store.get("k")
