"""The read-path fast lane: compacted-index loading and the process-wide
shared index cache.

Opening a PLFS file for reading requires the *global index* — the merge of
every per-writer index dropping.  Paying that merge on every open is the
worst-case log-structured tax the paper's benchmarks (unixtools, BT read
phases) hit hardest, because those workloads re-open and re-stat the same
container over and over.  This module removes the tax three ways:

1. **Persistent compacted global index** — via ``repro-plfs compact``,
   and on a clean close that leaves something for it to skip
   (:func:`compact_where_it_pays`), the merged index is flattened into a
   single ``global.index`` file in the container root.  :func:`load_index`
   loads it back with one read + one NumPy parse (its records are the index's
   sorted columns, field by field) instead of re-reading and re-sorting N
   droppings.  The file carries the *container epoch* it was built at
   (:meth:`~repro.plfs.container.Container.index_epoch`); a mismatch —
   any dropping added, appended or repaired since — silently re-routes to
   the slow merge path.  The compacted index is a cache, never an
   authority: ``repro-fsck`` deletes it rather than trusting it.

2. **Shared index cache** — a process-wide, capacity-bounded LRU keyed by
   container path, revalidated by epoch on every hit, so repeated opens
   and ``stat`` calls against an unchanged container reuse one
   :class:`~repro.plfs.index.GlobalIndex` instead of rebuilding identical
   ones.  The write path announces every flush with a cheap generation
   bump, which lets same-process read handles notice cross-handle flushes
   without any syscalls — and leaves the entry where it is.

3. **Following the log** — an index dropping is only ever appended to, so
   an entry found stale by epoch is *extended*, not rebuilt
   (:func:`extend_index`): when today's listing starts with the one the
   entry was built from and every index dropping it parsed is the same
   file and no shorter, the bytes past what it parsed are the whole
   difference.  A reader following a writer pays for what was appended,
   not for everything ever written; anything that is not an append — or
   any overlap — takes the full build, unchanged.

Thread-safety: all cache state is guarded by one lock; index construction
runs outside it, one ``get`` per container at a time (threads arriving
together at a cold or stale entry wait for the first one's build and hit).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import backing, constants
from .container import Container, DroppingMark, Droppings
from .errors import CorruptIndexError
from .index import (
    RECORD_SIZE,
    GlobalIndex,
    index_from_compacted,
    load_global_index,
    pack_compacted,
    parse_compacted,
    parse_records,
)
from .route import posix


@dataclass
class LoadedIndex:
    """One global index plus the context it was built in."""

    index: GlobalIndex
    #: ``data_paths[i]`` is the file to pread for slices with dropping == i
    data_paths: list[str]
    #: container epoch the index reflects
    epoch: str
    #: "compacted" (loaded from ``global.index``) or "merged" (slow path)
    source: str
    #: per dropping of the listing the index was built from (``data_paths``
    #: is its data half), the files seen and how much of the index dropping
    #: is held: what :func:`extend_index` reaches a later epoch from
    marks: list[DroppingMark] = field(default_factory=list)


def load_index(
    container: Container,
    *,
    droppings: Droppings | None = None,
    state: tuple[str, list[DroppingMark]] | None = None,
) -> LoadedIndex:
    """Build the container's global index, preferring the compacted file.

    The compacted ``global.index`` is used only when it parses *and* its
    recorded epoch matches the container's current one; any staleness or
    corruption falls back to merging the per-writer index droppings — the
    compacted file is an accelerator, never a source of truth.  The epoch
    and the index come from one listing of the container's droppings: a
    caller that already has the listing passes it (and its
    :meth:`~repro.plfs.container.Container.index_state`) in.  Either way
    the index holds exactly the index-dropping bytes the epoch's ``stat``s
    vouch for, which the returned marks record.  The same listing says
    whether there is a compacted file to open at all.
    """
    if droppings is None:
        droppings = container.droppings()
    epoch, marks = state or container.index_state(droppings)
    gpath = container.global_index_path()
    raw = None
    if droppings.compacted:
        try:
            with posix.builtins_open(gpath, "rb", buffering=0) as fh:
                raw = fh.read()
        except OSError:
            pass
    if raw is not None:
        try:
            records, rel_paths, file_epoch, _size = parse_compacted(
                raw, source=gpath
            )
        except CorruptIndexError:
            pass
        else:
            if file_epoch == epoch:
                index = index_from_compacted(records)
                data_paths = [
                    os.path.join(container.path, rel) for rel in rel_paths
                ]
                return LoadedIndex(index, data_paths, epoch, "compacted", marks)
    index, data_paths = load_global_index(
        droppings, sizes=[mark.index_size for mark in marks]
    )
    return LoadedIndex(index, data_paths, epoch, "merged", marks)


def _read_tail(path: str, start: int, length: int) -> bytes | None:
    """Exactly the *length* bytes at *start* of an index dropping, or None."""
    try:
        fd = posix.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        raw = posix.pread(fd, length, start)
    finally:
        posix.close(fd)
    return raw if len(raw) == length else None


def extend_index(
    held: LoadedIndex,
    droppings: list[tuple[str, str]],
    epoch: str,
    marks: list[DroppingMark],
) -> LoadedIndex | None:
    """*held* brought to *epoch* by reading only what was appended since,
    as a new :class:`LoadedIndex` — or None, and the caller builds in full.

    Index droppings are logs, so the index of a later epoch is the held
    one plus the tails, provided (1) the held listing is a prefix of
    today's, so every dropping id means what it meant; (2) every held
    index dropping is the same file and no shorter, so what was parsed is
    still its head; (3) each tail is a whole number of records — a torn
    one is the full build's to report; and (4) no new record overlaps
    anything (see :meth:`GlobalIndex.extended`).
    """
    data_paths = [data for _, data in droppings]
    known = len(held.marks)
    if held.data_paths != data_paths[:known]:
        return None
    tails: list[tuple[int, int, int]] = []
    for gid, mark in enumerate(marks):
        parsed = 0
        if gid < known:
            index_id, parsed, _ = held.marks[gid]
            if mark.index_id != index_id or mark.index_size < parsed:
                return None
        grown = mark.index_size - parsed
        if grown % RECORD_SIZE:
            return None
        if grown:
            tails.append((gid, parsed, grown))
    arrays = []
    for gid, start, length in tails:
        raw = _read_tail(droppings[gid][0], start, length)
        if raw is None:
            return None
        records = parse_records(raw)
        records["dropping"] = gid
        arrays.append(records)
    index = held.index
    if arrays:
        index = index.extended(np.concatenate(arrays) if len(arrays) > 1 else arrays[0])
        if index is None:
            return None
    return LoadedIndex(index, data_paths, epoch, held.source, marks)


def compact(container: Container, *, droppings: Droppings | None = None) -> int:
    """Flatten the container's global index into ``global.index``.

    Returns the number of flattened segments persisted.  The write flows
    through the backing store (it is a persistence boundary the fault
    injector can tear) and replaces atomically, so a crash mid-compaction
    never leaves a reader-visible half-written file.  A caller that just
    listed the container passes the listing in.
    """
    loaded = load_index(container, droppings=droppings)
    rel = [os.path.relpath(p, container.path) for p in loaded.data_paths]
    payload = pack_compacted(
        loaded.index.as_arrays(), rel, loaded.epoch, loaded.index.logical_size
    )
    backing.current().write_global_index(container.global_index_path(), payload)
    return len(loaded.index)


def compact_where_it_pays(container: Container, records: int) -> bool:
    """The close-time rule: write ``global.index`` only where a reader
    gains by it (DESIGN §5 decision 17).  Returns whether it was written.

    It pays for more than one index dropping — the merge it exists to
    skip — and for one dropping of more than
    :data:`~repro.plfs.constants.COMPACT_MIN_RECORDS` records; *records* is
    what the closing writer flushed, which for a container of one dropping
    is all there is.  One listing decides and, where it says yes, feeds the
    compaction.  The compacted index is an accelerator: failing to write it
    never fails the close (readers just take the merge).
    """
    droppings = container.droppings()
    try:
        if len(droppings) < 2 and records <= constants.COMPACT_MIN_RECORDS:
            if droppings.compacted:  # of an earlier state: only a cost now
                container.drop_global_index()
            return False
        compact(container, droppings=droppings)
    except OSError:
        return False
    return True


# ---------------------------------------------------------------------- #
# the process-wide shared cache
# ---------------------------------------------------------------------- #


class IndexCache:
    """Epoch-validated LRU of global indexes, shared process-wide.

    ``get`` revalidates the cached epoch against the container on every
    call (two stats per dropping), so cross-process changes are always
    seen; an entry found stale is extended by what was appended
    (:func:`extend_index`) or, failing that, rebuilt.  Same-process
    writers additionally :meth:`bump` a per-path *generation* whenever
    they flush records; read handles remember the generation their index
    was built at and compare it (one dict lookup, no syscalls) before
    trusting a cached plan.  Generations are drawn from one cache-wide
    counter, so a value never repeats and a path that is gone can be
    forgotten (:meth:`forget`) without a later bump colliding with what a
    reader remembers.
    """

    #: plfs-san registration (see repro.sanitize): field -> guarding lock
    _SANITIZE_SHARED = {"_entries": "_lock", "_generations": "_lock"}

    def __init__(self, capacity: int = constants.INDEX_CACHE_CAPACITY):
        self.capacity = capacity
        self._lock = threading.Lock()
        #: whose turn it is to ``get`` a container, striped by path; held
        #: across the build, so never taken with ``_lock`` held
        self._turns = [threading.Lock() for _ in range(16)]
        self._entries: OrderedDict[str, LoadedIndex] = OrderedDict()
        self._generations: dict[str, int] = {}
        self._clock = 0
        #: what a path without a generation of its own reads as (see forget)
        self._floor = 0
        self.stats = {
            "hits": 0,
            "misses": 0,
            "stale_epoch_evictions": 0,
            "invalidations": 0,
            "compacted_loads": 0,
            "merged_builds": 0,
            "extensions": 0,
        }

    # -------------------------------------------------------------- #

    def generation(self, path: str) -> int:
        """Current invalidation generation for *path*."""
        with self._lock:
            return self._generations.get(path, self._floor)

    def _tick(self) -> int:
        """The next generation value, counted as one invalidation (the
        caller holds the lock)."""
        self._clock += 1
        self.stats["invalidations"] += 1
        return self._clock

    def bump(self, path: str) -> None:
        """Write-path invalidation: records were appended.  Read handles
        holding an older index see themselves behind; the entry stays,
        because every ``get`` validates it by epoch anyway and it is what
        the next one extends."""
        with self._lock:
            self._generations[path] = self._tick()

    def invalidate(self, path: str) -> None:
        """The container was rewritten (truncate, flatten, repair, rename
        onto it): bump, and drop the entry — nothing of it can be extended."""
        path = os.path.abspath(path)
        with self._lock:
            self._entries.pop(path, None)
            self._generations[path] = self._tick()

    def forget(self, path: str) -> None:
        """The container is gone (unlink, rename away): drop the entry and
        the path's generation with it, and move the floor — what every path
        without a generation of its own reads as — to a fresh value.  A
        reader built before still sees itself behind, whether it remembers
        the dropped generation or an earlier floor; so do readers of other
        paths that only ever read as the floor, who revalidate once, by epoch."""
        path = os.path.abspath(path)
        with self._lock:
            self._entries.pop(path, None)
            self._generations.pop(path, None)
            self._floor = self._tick()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._generations.clear()

    def reset_stats(self) -> None:
        for key in self.stats:
            self.stats[key] = 0

    # -------------------------------------------------------------- #

    def get(self, container: Container) -> tuple[LoadedIndex, int]:
        """The container's global index plus the generation it is valid at.

        Serves from cache when the stored epoch still matches the
        container's current state; otherwise extends the stored index by
        what was appended, or rebuilds via :func:`load_index`, and caches
        the result.  The generation is read *before* the container is
        looked at: a bump landing after that belongs to a later ``get``.
        One ``get`` per container at a time: threads arriving together at
        an absent or stale entry are served from what the first of them
        stored — one build, and counters that do not depend on the schedule.
        """
        path = container.path
        with self._turns[hash(path) % len(self._turns)]:
            generation = self.generation(path)
            droppings = container.droppings()
            epoch, marks = container.index_state(droppings)
            with self._lock:
                held = self._entries.get(path)
                if held is not None:
                    if held.epoch == epoch:
                        self._entries.move_to_end(path)
                        self.stats["hits"] += 1
                        return held, generation
                    self.stats["stale_epoch_evictions"] += 1
            extended = extend_index(held, droppings, epoch, marks) if held is not None else None
            loaded = extended or load_index(container, droppings=droppings, state=(epoch, marks))
            with self._lock:
                if extended is not None:  # a hit: hits + misses stays the number of gets
                    self.stats["hits"] += 1
                    self.stats["extensions"] += 1
                else:
                    self.stats["misses"] += 1
                    self.stats[
                        "compacted_loads" if loaded.source == "compacted" else "merged_builds"
                    ] += 1
                self._entries[path] = loaded
                self._entries.move_to_end(path)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            return loaded, generation


_shared = IndexCache()


def shared_cache() -> IndexCache:
    """The process-wide cache instance."""
    return _shared


def invalidate(path: str) -> None:
    """Convenience: :meth:`IndexCache.invalidate` *path* in the shared cache."""
    _shared.invalidate(path)


def invalidate_cross_process(container: Container) -> None:
    """Write-path invalidation visible to *every* process.

    The in-process generation bump covers read handles sharing this
    cache; the container's generation file covers readers in other
    processes, which hold the file open since their index was built and
    see it replaced (``st_nlink == 0``) with one ``fstat`` per revalidation.
    """
    _shared.bump(container.path)
    container.bump_generation()
