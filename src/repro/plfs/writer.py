"""The PLFS write path: log-structured data droppings.

A :class:`WriteFile` owns one (data, index) dropping pair per writing pid.
Every ``write(buf, offset)`` appends the payload to the data dropping —
strictly sequentially, regardless of the logical offset, which is the
log-structuring that converts random application writes into sequential disk
writes — and buffers one index record.  Records are flushed to the index
dropping on ``sync``/``close`` (or when :data:`INDEX_FLUSH_THRESHOLD`
accumulate).  Data always lands before the record that maps it, so a
crashed writer leaves at worst an unindexed data tail, which
``repro-fsck`` trims and reports.

The write fast lane (mirroring the read-path work in
:mod:`repro.plfs.cache`):

- **zero-copy appends** — payload buffers (including ``memoryview`` views)
  are threaded straight through :meth:`~repro.plfs.backing.BackingStore`
  without an intermediate ``bytes`` copy, and :meth:`WriteFile.append_many`
  lands a whole iovec as one vectored data append plus one (possibly
  merged) index record;
- **records packed where they are made** — each append packs its index
  record straight into the dropping's buffer of :data:`~repro.plfs.index.RECORD`
  rows (a merge rewrites the last row in place), so a flush writes the
  buffer as it stands;
- **record merging** — a write that continues the previous one of its
  stream extends the last buffered index record instead of adding one, so
  BT-style sequential small-write streams keep a single pending record
  and never reach the flush threshold that bounds the buffer;
- **cross-process invalidation** — every flush/sync/close bumps the
  container's generation file as well as the in-process shared index
  cache, so readers in *other* processes revalidate too.
"""

from __future__ import annotations

import os
import threading

from . import backing, constants, util
from .cache import invalidate_cross_process as _invalidate_cross_process
from .container import Container
from .errors import BadFlagsError
from .index import RECORD, RECORD_SIZE, Record, unpack_records
from .route import posix

#: Flush buffered index records to disk after this many accumulate, bounding
#: memory for very write-heavy workloads.
INDEX_FLUSH_THRESHOLD = 4096

#: Cap on one merged index record's ``length``.  ``RECORD`` stores the
#: length as an unsigned 64-bit field; an uncapped sequential run merged for
#: long enough would silently wrap it.  1 TiB per record keeps merged
#: extents far from the field width while still collapsing any realistic
#: sequential stream into a handful of records.
MERGE_LENGTH_CAP = 1 << 40


class _Dropping:
    """One open (data, index) dropping pair for a single pid."""

    __slots__ = (
        "data_path",
        "index_path",
        "data_fd",
        "physical_offset",
        "pending",
        "last",
        "records_flushed",
        "records_merged",
        "index_flushes",
        "_closed",
        "_lock",
    )

    def __init__(self, hostdir: str, host: str, pid: int):
        suffix = util.dropping_suffix(host, pid, util.unique_timestamp())
        self.data_path = f"{hostdir}/{constants.DATA_PREFIX}{suffix}"
        self.index_path = f"{hostdir}/{constants.INDEX_PREFIX}{suffix}"
        self.data_fd = posix.open(
            self.data_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            # Touch the index dropping immediately so readers pair it with
            # the data dropping even before the first sync.  Routed through
            # the backing store: creating the empty sibling is a
            # persistence boundary a full backend can fail.
            backing.installed.create_meta(self.index_path)
        except OSError:
            # Error-path hygiene: never leave a data dropping behind with
            # no sibling index (an orphan the next reader must skip), nor a
            # leaked descriptor.
            try:
                posix.close(self.data_fd)
            except OSError:
                pass
            self.data_fd = -1
            for p in (self.data_path, self.index_path):
                try:
                    posix.unlink(p)
                except OSError:
                    pass
            raise
        self.physical_offset = 0
        #: packed index records not yet flushed (dropping 0)
        self.pending = bytearray()
        #: (logical, physical, length, pid) of ``pending``'s last row, the
        #: one a merge rewrites; None when ``pending`` is empty
        self.last: tuple | None = None
        self.records_flushed = 0
        self.records_merged = 0
        self.index_flushes = 0
        self._closed = False
        #: held while ``pending`` is appended to, merged into or taken
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the append hot path
    # ------------------------------------------------------------------ #

    def append(self, buf, logical_offset: int, pid: int, merge: bool, vectored: bool) -> int:
        """Append *buf* — or, *vectored*, a whole iovec as one gather write —
        to the data dropping and buffer the index record of what landed.

        Index compression: with *merge*, a write that continues the last
        pending record both logically and physically extends it instead
        of adding a new one — the optimisation the C library applies to
        keep sequential workloads from growing the index per call.

        The merged record takes the *latest* timestamp.  That is only
        sound when no other stream wrote in between (otherwise the whole
        merged run would shadow an interleaved overwrite), which is what
        *merge* says: the WriteFile passes it true only for back-to-back
        writes to the same dropping.  Merged lengths are capped at
        :data:`MERGE_LENGTH_CAP` so a long sequential run can never
        overflow the record's length field.
        """
        store = backing.installed
        if not vectored:
            written = store.write_data(self.data_fd, buf, self.data_path)
        else:
            written = store.write_datav(self.data_fd, buf, self.data_path)
        physical = self.physical_offset
        self.physical_offset = physical + written
        with self._lock:  # a reading thread of the handle may be flushing
            stamp = util.unique_timestamp()
            if merge and self.last is not None:
                lo, phys, length, last_pid = self.last
                if (
                    last_pid == pid
                    and lo + length == logical_offset
                    and phys + length == physical
                    and length + written <= MERGE_LENGTH_CAP
                ):
                    length += written
                    RECORD.pack_into(
                        self.pending, len(self.pending) - RECORD_SIZE, lo, phys, length, 0, pid, stamp
                    )
                    self.last = (lo, phys, length, pid)
                    self.records_merged += 1
                    return written
            self.pending += RECORD.pack(logical_offset, physical, written, 0, pid, stamp)
            self.last = (logical_offset, physical, written, pid)
        return written

    def pending_records(self) -> list[Record]:
        """The buffered index records, unpacked (for inspection)."""
        with self._lock:
            return unpack_records(bytes(self.pending))

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #

    def flush_index(self) -> None:
        """Append the buffered records to the index dropping.  The buffer is
        *taken* (swapped for an empty one, under the lock :meth:`append`
        merges and appends under), not copied and cleared: a handle that
        reads flushes ahead of itself, so another of its threads may be
        appending meanwhile, and a row or a merged length landing in a
        buffer already written would be lost.  On failure the rows go back,
        ahead of the newcomers."""
        with self._lock:
            rows, last = self.pending, self.last
            self.pending, self.last = bytearray(), None
        if not rows:
            return
        try:
            backing.installed.append_index(self.index_path, bytes(rows))
        except BaseException:
            with self._lock:
                if not self.pending:  # nothing newer: the last row is ours again
                    self.last = last
                self.pending[:0] = rows
            raise
        self.records_flushed += len(rows) // RECORD_SIZE
        self.index_flushes += 1

    def sync(self) -> None:
        self.flush_index()
        backing.installed.fsync(self.data_fd)

    def close(self) -> None:
        """Flush and release.  Idempotent and exception-safe: the
        descriptor is released even when the final flush fails."""
        if self._closed:
            return
        self._closed = True
        flush_exc: BaseException | None = None
        try:
            self.flush_index()
        except BaseException as exc:  # noqa: B036 - InjectedCrash must pass through
            flush_exc = exc
        fd, self.data_fd = self.data_fd, -1
        try:
            posix.close(fd)
        except OSError:
            if flush_exc is None:
                raise
        if flush_exc is not None:
            raise flush_exc

    def abandon(self) -> None:
        """Release OS resources as a crashed process would: no index
        flush, buffered records dropped on the floor."""
        self._closed = True
        self.pending.clear()
        self.last = None
        fd, self.data_fd = self.data_fd, -1
        if fd >= 0:
            try:
                posix.close(fd)
            except OSError:
                pass


class WriteFile:
    """Write handle on a container, multiplexing per-pid droppings.

    Matches PLFS semantics: each pid that writes through the handle gets its
    own dropping pair, giving every process a private file stream (the file
    partitioning that removes shared-file lock contention).
    """

    #: plfs-san registration (see repro.sanitize).  No lock on purpose:
    #: a handle's droppings are serialized per handle (one writer); the
    #: detector attributes that happens-before to the plfs-handle virtual
    #: lock the api layer pushes
    _SANITIZE_SHARED = {"_droppings": None}

    def __init__(self, container: Container, *, host: str | None = None):
        self.container = container
        self.host = host or util.hostname()
        self.hostdir = container.ensure_hostdir(self.host)
        self._droppings: dict[int, _Dropping] = {}
        self._max_logical_end = 0
        self._total_written = 0
        self._closed = False
        self._last_dropping: _Dropping | None = None
        #: data appends whose record is buffered or flushed, and the count
        #: at the last :meth:`flush_indexes`: a handle that also reads flushes
        #: ahead of its read when they differ (see repro.plfs.api.plfs_read)
        self.appends = 0
        self.flushed_appends = 0
        self._vectored_appends = 0
        self._vectored_buffers = 0
        self._zero_copy_appends = 0
        self._threshold_flushes = 0
        self._generation_bumps = 0

    # ------------------------------------------------------------------ #

    def _open_dropping(self, pid: int) -> _Dropping:
        d = self._droppings[pid] = _Dropping(self.hostdir, self.host, pid)
        return d

    def _invalidate(self) -> None:
        """Records just became visible on disk: readers holding a cached
        index — in this process or any other — must rebuild to see them."""
        self._generation_bumps += 1
        _invalidate_cross_process(self.container)

    def write(self, buf, offset: int, pid: int, vectored: bool = False) -> int:
        """Append *buf* for logical [offset, offset + its length).  Returns
        the byte count written (always all of it for regular files).

        *buf* is a flat bytes-like object (``len`` counts bytes);
        ``memoryview`` payloads are threaded through to the backing store
        without copying.  *vectored* (see :meth:`append_many`): *buf* is a
        list of them covering one contiguous span.

        The pid's dropping is made on first use, and its record may merge
        only for back-to-back writes of one stream: an intervening write
        from another pid must keep its own timestamp ordering against ours.

        An empty write — scalar or vectored — returns 0 and touches nothing:
        no dropping is made and the handle's size does not move, as a flat
        file's zero-length ``pwrite`` leaves its size alone.
        """
        if self._closed:
            raise BadFlagsError("write on closed WriteFile")
        if not (any(map(len, buf)) if vectored else len(buf)):
            return 0
        dropping = self._droppings.get(pid) or self._open_dropping(pid)
        merge = dropping is self._last_dropping
        self._last_dropping = dropping
        if vectored:
            self._vectored_appends += 1
            self._vectored_buffers += len(buf)
        elif isinstance(buf, memoryview):
            self._zero_copy_appends += 1
        written = dropping.append(buf, offset, pid, merge, vectored)
        self.appends += 1  # only now: the record is where a flush finds it
        end = offset + written
        if end > self._max_logical_end:
            self._max_logical_end = end
        self._total_written += written
        if len(dropping.pending) >= INDEX_FLUSH_THRESHOLD * RECORD_SIZE:
            dropping.flush_index()
            self._threshold_flushes += 1
            self._invalidate()
        return written

    def append_many(self, bufs: list, offset: int, pid: int) -> int:
        """Vectored write: the buffers cover one contiguous logical span
        starting at *offset* and land as a single data append plus one
        (possibly merged) index record — the ``writev``/``pwritev`` fast
        path.  Returns total bytes written."""
        return self.write(bufs, offset, pid, vectored=True)

    # ------------------------------------------------------------------ #

    @property
    def max_logical_end(self) -> int:
        return self._max_logical_end

    @property
    def total_written(self) -> int:
        return self._total_written

    @property
    def dropping_count(self) -> int:
        return len(self._droppings)

    @property
    def stats(self) -> dict[str, int]:
        """Write-path counters (surfaced into repro.insights profiles)."""
        out = {
            "appends": self.appends,
            "vectored_appends": self._vectored_appends,
            "vectored_buffers": self._vectored_buffers,
            "zero_copy_appends": self._zero_copy_appends,
            "bytes_appended": self._total_written,
            "threshold_flushes": self._threshold_flushes,
            "generation_bumps": self._generation_bumps,
            "records_merged": 0,
            "records_flushed": 0,
            "index_flushes": 0,
        }
        for d in self._droppings.values():
            out["records_merged"] += d.records_merged
            out["records_flushed"] += d.records_flushed
            out["index_flushes"] += d.index_flushes
        return out

    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Flush buffered records and fsync the data droppings."""
        for d in self._droppings.values():
            d.sync()
        self._invalidate()

    def flush_indexes(self) -> None:
        appends = self.appends  # every one of these has its record buffered
        flushed = any(d.pending for d in self._droppings.values())
        for d in self._droppings.values():
            d.flush_index()
        self.flushed_appends = appends
        if flushed:
            self._invalidate()

    def close(self) -> None:
        """Flush and tear down every dropping.  Idempotent; a descriptor
        failure on one dropping never strands the others open."""
        if self._closed:
            return
        self._closed = True
        first: OSError | None = None
        droppings = list(self._droppings.values())
        for i, d in enumerate(droppings):
            try:
                d.close()
            except OSError as exc:
                if first is None:
                    first = exc
            except BaseException:
                # An injected crash mid-close: release the remaining
                # descriptors the way the kernel would on process death,
                # flushing nothing, and let the "kill" propagate.
                for rest in droppings[i + 1 :]:
                    rest.abandon()
                raise
        self._invalidate()
        if first is not None:
            raise first

    def abandon(self) -> None:
        """Tear down as if the writing process died (SIGKILL semantics):
        descriptors are released but nothing buffered is flushed and no
        metadata is recorded.  Used by the fault-injection harness to
        model process kill between a data append and the index flush."""
        if self._closed:
            return
        for d in self._droppings.values():
            d.abandon()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        # Last-resort fd hygiene only: an abandoned handle must not leak
        # descriptors, but GC must never flush records the caller chose
        # not to persist (close() is the explicit persistence point).
        try:
            self.abandon()
        except BaseException:
            pass
