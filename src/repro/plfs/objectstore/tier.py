"""Local-disk write-back tier in front of the object store.

The tier is a *cache*; the object store is the *authority* (the same
decision PR 4 made for the compacted index).  Droppings are written to
local disk first — absorbing PLFS's append-heavy pattern at local
latency — and uploaded by a dirty-byte flusher.  The policy is four
constants, defined here and nowhere else:

* at most :data:`CAPACITY_BYTES` (128 KiB) of un-uploaded bytes are
  meant to sit on local disk;
* a write that takes the dirty total past :data:`HIWATER` of it wakes
  the flusher, which uploads until the total is at most :data:`LOWATER`
  of it — a burst is absorbed locally and then paid for in one batch,
  not one PUT per append;
* a dropping larger than :data:`PART_BYTES` (64 KiB) uploads as a
  multipart object, so no single PUT grows with the dropping.

Dirty entries flush FIFO (oldest write first); clean entries form an
LRU that :meth:`evict` trims.  The two hygiene invariants the error-path
sweep pins down:

* a **failed PUT keeps the entry dirty** — ``flush_to_lowater`` records
  the error and moves on; only a PUT that returned success moves the
  entry to the clean list (so eviction can never drop the sole copy);
* a **crash mid-flush never marks clean first** — the dirty→clean move
  happens strictly after ``store.put`` returns, and an
  :class:`~repro.faults.injector.InjectedCrash` (a ``BaseException``)
  propagates before the move.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from .store import ObjectStore, key_under

CAPACITY_BYTES = 128 * 1024
HIWATER = 0.75
LOWATER = 0.25
PART_BYTES = 64 * 1024

HIWATER_BYTES = int(CAPACITY_BYTES * HIWATER)
LOWATER_BYTES = int(CAPACITY_BYTES * LOWATER)


class WriteBackTier:
    """Dirty/clean tracking over one local directory tree.

    *root* is the directory whose files are tiered (the container's
    parent in practice); keys are paths relative to it, which makes them
    exactly the container-relative object keys the store expects.
    *part_bytes* is the multipart threshold (default :data:`PART_BYTES`).
    """

    def __init__(self, store: ObjectStore, root: str, *, part_bytes: int = PART_BYTES):
        self.store = store
        self.root = os.path.abspath(root)
        self.part_bytes = part_bytes
        # key -> pending dirty bytes, oldest-written first (flush order)
        self._dirty: OrderedDict[str, int] = OrderedDict()
        # key -> last-known size, least-recently-uploaded first (evict order)
        self._clean: OrderedDict[str, int] = OrderedDict()
        self._dirty_total = 0
        self.stats: dict[str, int] = {
            "tier_hiwater_wakeups": 0,
            "tier_writeback_puts": 0,
            "tier_writeback_bytes": 0,
            "tier_sync_drains": 0,
            "tier_absorbed_writes": 0,
            "tier_put_errors": 0,
            "tier_evictions": 0,
            "tier_evicted_bytes": 0,
            "tier_restores": 0,
            "tier_restored_bytes": 0,
            "tier_vanished": 0,
            "tier_untracked_writes": 0,
        }

    # ------------------------------------------------------------------ #
    # key mapping
    # ------------------------------------------------------------------ #

    def key_for(self, path: str) -> str | None:
        """Container-relative object key for *path*, or ``None`` if the
        path escapes the tiered root (not ours to track)."""
        return key_under(self.root, path)

    def local_path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    # ------------------------------------------------------------------ #
    # the write side
    # ------------------------------------------------------------------ #

    def note_write(self, path: str, nbytes: int) -> None:
        """Record *nbytes* landing on the local copy of *path*; may kick
        the hiwater flusher (the hot-path entry point)."""
        key = self.key_for(path)
        if key is None:
            self.stats["tier_untracked_writes"] += 1
            return
        if key in self._dirty:
            # already pending: the coming flush uploads the whole file,
            # so this write rides along at no upload cost of its own
            self.stats["tier_absorbed_writes"] += 1
            self._dirty[key] += nbytes
        else:
            self._clean.pop(key, None)
            self._dirty[key] = nbytes
        self._dirty_total += nbytes
        if self._dirty_total > HIWATER_BYTES:
            self.stats["tier_hiwater_wakeups"] += 1
            self.flush_to_lowater()

    def flush_to_lowater(self) -> None:
        """Background-style flush: upload oldest-dirty entries until the
        dirty total drops to lowater.  A failing PUT is recorded and the
        entry *stays dirty*; the flusher moves on (a sync barrier will
        surface the error via :meth:`drain`)."""
        for key in list(self._dirty):
            if self._dirty_total <= LOWATER_BYTES:
                break
            try:
                self._writeback(key)
            except OSError:
                self.stats["tier_put_errors"] += 1

    def drain(self) -> None:
        """Sync barrier: upload *every* dirty entry, propagating errors
        (the fsync-mapped path — the caller asked for durability)."""
        self.stats["tier_sync_drains"] += 1
        for key in list(self._dirty):
            self._writeback(key)

    def _writeback(self, key: str) -> None:
        """Upload one dirty entry and move it to the clean LRU.

        Ordering is the satellite-2 invariant: the entry leaves the
        dirty list only *after* ``store.put`` returns.  An exception —
        OSError or an injected crash — leaves it dirty, so eviction can
        never reap the only copy of un-uploaded bytes.
        """
        path = self.local_path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            # The local file vanished (quarantined/unlinked by repair or
            # the workload).  Drop the entry and delete the stale object
            # so a later restore cannot resurrect deleted bytes.
            pending = self._dirty.pop(key, None)
            if pending is not None:
                self._dirty_total -= pending
            self._clean.pop(key, None)
            self.store.delete(key)
            self.stats["tier_vanished"] += 1
            return
        self.store.put(key, data, part_size=self.part_bytes)
        pending = self._dirty.pop(key, 0)
        self._dirty_total -= pending
        self._clean[key] = len(data)
        self._clean.move_to_end(key)
        self.stats["tier_writeback_puts"] += 1
        self.stats["tier_writeback_bytes"] += len(data)

    # ------------------------------------------------------------------ #
    # the read-side / capacity side
    # ------------------------------------------------------------------ #

    def evict(self, prefix: str = "") -> int:
        """Unlink local copies of *clean* entries (LRU first) under
        *prefix*; returns bytes reclaimed.  Dirty entries are never
        candidates — their only copy is local."""
        reclaimed = 0
        for key in [k for k in self._clean if k.startswith(prefix)]:
            size = self._clean.pop(key)
            try:
                os.unlink(self.local_path(key))
            except FileNotFoundError:
                pass
            self.stats["tier_evictions"] += 1
            self.stats["tier_evicted_bytes"] += size
            reclaimed += size
        return reclaimed

    def restore(self, key: str) -> int:
        """Fault one object back into the local tier (GET verifies etag
        end-to-end); returns bytes restored."""
        data = self.store.get(key)
        path = self.local_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
        self._clean[key] = len(data)
        self._clean.move_to_end(key)
        self.stats["tier_restores"] += 1
        self.stats["tier_restored_bytes"] += len(data)
        return len(data)

    def restore_missing(self, prefix: str = "") -> list[str]:
        """Restore every committed object under *prefix* whose local copy
        is missing (the post-eviction / cold-start fill); returns the
        keys restored."""
        restored = []
        for key in self.store.list(prefix):
            if key in self._dirty:
                continue  # local (newer) copy is authoritative until drained
            if not os.path.exists(self.local_path(key)):
                self.restore(key)
                restored.append(key)
        return restored

    # ------------------------------------------------------------------ #

    def dirty_bytes(self) -> int:
        return self._dirty_total

    def dirty_keys(self) -> list[str]:
        return list(self._dirty)

    def clean_keys(self) -> list[str]:
        return list(self._clean)
