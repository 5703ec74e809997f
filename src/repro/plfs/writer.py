"""The PLFS write path: log-structured data droppings.

A :class:`WriteFile` owns one (data, index) dropping pair per writing pid.
Every ``write(buf, offset)`` appends the payload to the data dropping —
strictly sequentially, regardless of the logical offset, which is the
log-structuring that converts random application writes into sequential disk
writes — and buffers one index record.  Records are flushed to the index
dropping on ``sync``/``close``.

The write fast lane (mirroring the read-path work in
:mod:`repro.plfs.cache`):

- **zero-copy appends** — payload buffers (including ``memoryview`` views)
  are threaded straight through :meth:`~repro.plfs.backing.BackingStore`
  without an intermediate ``bytes`` copy, and :meth:`WriteFile.append_many`
  lands a whole iovec as one vectored data append plus one (possibly
  merged) index record;
- **group-commit WAL** — with ``wal_batch > 1`` write-ahead records are
  buffered and flushed as one ``write_wal`` batch per data-append window.
  The recovery invariant weakens from *every record precedes its data* to
  *every data byte is covered by a WAL record before or within the same
  batch boundary*: a crash inside a batch window can strand up to
  ``wal_batch - 1`` appends' bytes past the WAL coverage, which
  ``repro-fsck`` trims and reports (``sync`` is a hard barrier — it flushes
  the batch).  ``wal_batch == 1`` (the default) reproduces the strict
  per-append ordering exactly;
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

import numpy as np

from . import backing, util
from .cache import invalidate_cross_process as _invalidate_cross_process
from .container import Container
from .errors import BadFlagsError
from .index import INDEX_DTYPE
from .route import posix

#: Flush buffered index records to disk after this many accumulate, bounding
#: memory for very write-heavy workloads.
INDEX_FLUSH_THRESHOLD = 4096

#: Cap on one merged index record's ``length``.  ``INDEX_DTYPE`` stores the
#: length as an unsigned 64-bit field; an uncapped sequential run merged for
#: long enough would silently wrap it.  1 TiB per record keeps merged
#: extents far from the field width while still collapsing any realistic
#: sequential stream into a handful of records.
MERGE_LENGTH_CAP = 1 << 40

# Buffered records are plain Python rows — packed into a structured array
# in bulk at flush time, so the per-append hot path allocates no NumPy
# objects.  Column order of one row:
_LOGICAL, _PHYSICAL, _LENGTH, _PID, _TS = range(5)


def _rows_to_records(rows: list[list]) -> np.ndarray:
    """Bulk-pack buffered rows into an :data:`INDEX_DTYPE` array."""
    records = np.zeros(len(rows), dtype=INDEX_DTYPE)
    if rows:
        cols = list(zip(*rows))
        records["logical_offset"] = cols[_LOGICAL]
        records["physical_offset"] = cols[_PHYSICAL]
        records["length"] = cols[_LENGTH]
        records["pid"] = cols[_PID]
        records["timestamp"] = cols[_TS]
    return records


class _Dropping:
    """One open (data, index) dropping pair for a single pid.

    With *wal* enabled, every append buffers its index record for a
    sibling write-ahead dropping; the buffer is flushed as one batch per
    *wal_batch* appends, **before** the batch-closing data append touches
    the data dropping, so a crash at any instruction leaves enough on disk
    for ``repro-fsck`` to rebuild the index clipped to the bytes that
    physically arrived — up to the batch boundary (bytes appended inside
    an unflushed batch window are trimmed and reported).  The WAL is
    deleted on clean close, when the flushed index dropping becomes
    authoritative.
    """

    __slots__ = (
        "data_path",
        "index_path",
        "wal_path",
        "data_fd",
        "wal_fd",
        "wal_batch",
        "wal_rows",
        "physical_offset",
        "pending",
        "records_flushed",
        "records_merged",
        "index_flushes",
        "wal_records_written",
        "wal_batches",
        "_closed",
        "_lock",
    )

    def __init__(
        self,
        hostdir: str,
        host: str,
        pid: int,
        *,
        wal: bool = False,
        wal_batch: int = 1,
    ):
        ts = util.unique_timestamp()
        self.data_path = os.path.join(hostdir, util.data_dropping_name(host, pid, ts))
        self.index_path = os.path.join(hostdir, util.index_dropping_name(host, pid, ts))
        self.wal_path = (
            os.path.join(hostdir, util.wal_dropping_name(host, pid, ts)) if wal else None
        )
        self.data_fd = posix.open(
            self.data_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.wal_fd = -1
        try:
            if wal:
                self.wal_fd = posix.open(
                    self.wal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            # Touch the index dropping immediately so readers pair it with
            # the data dropping even before the first sync.  Routed through
            # the backing store: creating the empty sibling is a
            # persistence boundary a full backend can fail.
            backing.current().create_meta(self.index_path)
        except OSError:
            # Error-path hygiene: never leave a data dropping behind with
            # no sibling index (an orphan the next reader must skip), a
            # stranded write-ahead dropping, nor a leaked descriptor.
            for fd in (self.data_fd, self.wal_fd):
                if fd >= 0:
                    try:
                        posix.close(fd)
                    except OSError:
                        pass
            self.data_fd = self.wal_fd = -1
            for p in (self.data_path, self.index_path, self.wal_path):
                if p is None:
                    continue
                try:
                    posix.unlink(p)
                except OSError:
                    pass
            raise
        self.wal_batch = max(1, int(wal_batch))
        self.wal_rows: list[list] = []
        self.physical_offset = 0
        self.pending: list[list] = []
        self.records_flushed = 0
        self.records_merged = 0
        self.index_flushes = 0
        self.wal_records_written = 0
        self.wal_batches = 0
        self._closed = False
        #: held while ``pending`` is merged into, appended to or taken
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the append hot path
    # ------------------------------------------------------------------ #

    def _promise(self, logical_offset: int, length: int, pid: int) -> None:
        """Buffer one write-ahead record and flush the batch when full —
        *before* the data append, preserving the batch-boundary coverage
        invariant (at ``wal_batch == 1`` this is the strict per-append
        write-ahead ordering)."""
        row = [logical_offset, self.physical_offset, length, pid, util.unique_timestamp()]
        with self._lock:
            self.wal_rows.append(row)
        if len(self.wal_rows) >= self.wal_batch:
            self.flush_wal()

    def _record(self, logical_offset: int, written: int, pid: int, merge: bool) -> None:
        """Buffer the index record of one data append.

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
        physical = self.physical_offset
        self.physical_offset = physical + written
        with self._lock:  # a reading thread of the handle may be flushing
            if merge and self.pending:
                last = self.pending[-1]
                if (
                    last[_PID] == pid
                    and last[_LOGICAL] + last[_LENGTH] == logical_offset
                    and last[_PHYSICAL] + last[_LENGTH] == physical
                    and last[_LENGTH] + written <= MERGE_LENGTH_CAP
                ):
                    last[_LENGTH] += written
                    last[_TS] = util.unique_timestamp()
                    self.records_merged += 1
                    return
            self.pending.append([logical_offset, physical, written, pid, util.unique_timestamp()])

    def append(self, buf, logical_offset: int, pid: int, merge: bool) -> int:
        store = backing.current()
        if self.wal_fd >= 0:
            # The WAL record promises the full length; a torn or short data
            # write is reconciled at recovery time by clipping the record
            # to the bytes the data dropping actually holds.
            self._promise(logical_offset, len(buf), pid)
        written = store.write_data(self.data_fd, buf, self.data_path)
        self._record(logical_offset, written, pid, merge)
        return written

    def append_many(self, bufs: list, logical_offset: int, pid: int, merge: bool) -> int:
        """Vectored append: the whole iovec lands as one data append (one
        ``writev``), one WAL promise, and one — possibly merged — index
        record covering the contiguous logical span."""
        store = backing.current()
        if self.wal_fd >= 0:
            self._promise(logical_offset, sum(map(len, bufs)), pid)
        written = store.write_datav(self.data_fd, bufs, self.data_path)
        self._record(logical_offset, written, pid, merge)
        return written

    # ------------------------------------------------------------------ #
    # flushing
    # ------------------------------------------------------------------ #

    def flush_wal(self) -> None:
        """Persist the buffered write-ahead records as one batch.

        On failure the rows are *kept*: earlier rows in the batch may
        already cover data that physically landed, and the WAL must stay a
        superset of whatever the index dropping will claim.  A retried row
        whose data never landed is zero-clipped at recovery time.  The
        buffer is taken under the lock, for :meth:`flush_index`'s reason.
        """
        if not self.wal_rows:
            return
        with self._lock:
            rows, self.wal_rows = self.wal_rows, []
        try:
            payload = _rows_to_records(rows).tobytes()
            backing.current().write_wal(self.wal_fd, payload, self.wal_path)
        except BaseException:
            with self._lock:
                self.wal_rows[:0] = rows
            raise
        self.wal_records_written += len(rows)
        self.wal_batches += 1

    def flush_index(self) -> None:
        """Append the buffered records to the index dropping.  The buffer is
        *taken* (swapped for an empty one, under the lock :meth:`_record`
        merges and appends under), not copied and cleared: a handle that
        reads flushes ahead of itself, so another of its threads may be
        appending meanwhile, and a row or a merged length landing in a list
        already serialised would be lost.  On failure the rows go back,
        ahead of the newcomers."""
        with self._lock:
            rows, self.pending = self.pending, []
        try:
            # The WAL must remain a superset of the flushed index (fsck
            # rebuilds the index wholly from it), so an open batch is
            # flushed first — after the take, so it holds every taken
            # record's promise.
            if self.wal_fd >= 0 and self.wal_rows:
                self.flush_wal()
            if not rows:
                return
            payload = _rows_to_records(rows).tobytes()
            backing.current().append_index(self.index_path, payload)
        except BaseException:
            with self._lock:
                self.pending[:0] = rows
            raise
        self.records_flushed += len(rows)
        self.index_flushes += 1

    def sync(self) -> None:
        self.flush_index()
        backing.current().fsync(self.data_fd)

    def close(self) -> None:
        """Flush and release.  Idempotent and exception-safe: descriptors
        are released even when the final flush fails, and the WAL is
        deleted only on a *clean* flush (a failed flush leaves it as the
        recovery source ``repro-fsck`` needs)."""
        if self._closed:
            return
        self._closed = True
        flush_exc: BaseException | None = None
        try:
            self.flush_index()
        except BaseException as exc:  # noqa: B036 - InjectedCrash must pass through
            flush_exc = exc
        close_exc: OSError | None = None
        for attr in ("data_fd", "wal_fd"):
            fd = getattr(self, attr)
            setattr(self, attr, -1)
            if fd >= 0:
                try:
                    posix.close(fd)
                except OSError as exc:
                    if close_exc is None:
                        close_exc = exc
        if flush_exc is None and self.wal_path is not None:
            # Clean close: the flushed index dropping is now authoritative;
            # the write-ahead copy of the records is redundant.  This holds
            # even when a descriptor close failed above — the flush itself
            # succeeded.
            try:
                posix.unlink(self.wal_path)
            except OSError:
                pass
        if flush_exc is not None:
            raise flush_exc
        if close_exc is not None:
            raise close_exc

    def abandon(self) -> None:
        """Release OS resources as a crashed process would: no index
        flush, no WAL cleanup, buffered records dropped on the floor."""
        self._closed = True
        self.pending.clear()
        self.wal_rows.clear()
        for attr in ("data_fd", "wal_fd"):
            fd = getattr(self, attr)
            setattr(self, attr, -1)
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
    #: a handle's droppings are serialized per handle (one writer, or the
    #: daemon's per-container writer lock); the detector attributes that
    #: happens-before to the plfs-handle virtual lock the api layer pushes
    _SANITIZE_SHARED = {"_droppings": None}

    def __init__(
        self,
        container: Container,
        *,
        host: str | None = None,
        wal: bool = False,
        wal_batch: int = 1,
    ):
        self.container = container
        self.host = host or util.hostname()
        self.hostdir = container.ensure_hostdir(self.host)
        self._droppings: dict[int, _Dropping] = {}
        self._max_logical_end = 0
        self._total_written = 0
        self._closed = False
        #: write-ahead index: persist each record before its data append so
        #: a crash never strands unindexed data (see repro.faults.fsck)
        self.wal = wal
        #: group-commit window: WAL records per write_wal batch (1 = strict
        #: per-append ordering; >1 trades intra-batch crash coverage for
        #: one WAL syscall per window)
        self.wal_batch = max(1, int(wal_batch))
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
        d = self._droppings[pid] = _Dropping(
            self.hostdir, self.host, pid, wal=self.wal, wal_batch=self.wal_batch
        )
        return d

    def _invalidate(self) -> None:
        """Records just became visible on disk: readers holding a cached
        index — in this process or any other — must rebuild to see them."""
        self._generation_bumps += 1
        _invalidate_cross_process(self.container)

    def _account(self, dropping: _Dropping, offset: int, written: int) -> None:
        self.appends += 1  # only now: the record is where a flush finds it
        end = offset + written
        if end > self._max_logical_end:
            self._max_logical_end = end
        self._total_written += written
        if len(dropping.pending) >= INDEX_FLUSH_THRESHOLD:
            dropping.flush_index()
            self._threshold_flushes += 1
            self._invalidate()

    # write() and append_many() open alike: the closed guard, the pid's
    # dropping (made on first use), and whether its record may merge —
    # only for back-to-back writes of one stream, because an intervening
    # write from another pid must keep its own timestamp ordering against
    # ours.

    def write(self, buf, offset: int, pid: int) -> int:
        """Append *buf* for logical [offset, offset+len(buf)).  Returns the
        byte count written (always the full buffer for regular files).

        *buf* is a flat bytes-like object (``len`` counts bytes);
        ``memoryview`` payloads are threaded through to the backing store
        without copying.
        """
        if self._closed:
            raise BadFlagsError("write on closed WriteFile")
        dropping = self._droppings.get(pid) or self._open_dropping(pid)
        merge = dropping is self._last_dropping
        self._last_dropping = dropping
        if isinstance(buf, memoryview):
            self._zero_copy_appends += 1
        written = dropping.append(buf, offset, pid, merge)
        self._account(dropping, offset, written)
        return written

    def append_many(self, bufs: list, offset: int, pid: int) -> int:
        """Vectored write: the buffers cover one contiguous logical span
        starting at *offset* and land as a single data append plus one
        (possibly merged) index record — the ``writev``/``pwritev`` fast
        path.  Returns total bytes written."""
        if self._closed:
            raise BadFlagsError("write on closed WriteFile")
        if not any(map(len, bufs)):
            return 0
        dropping = self._droppings.get(pid) or self._open_dropping(pid)
        merge = dropping is self._last_dropping
        self._last_dropping = dropping
        self._vectored_appends += 1
        self._vectored_buffers += len(bufs)
        written = dropping.append_many(bufs, offset, pid, merge)
        self._account(dropping, offset, written)
        return written

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
            "wal_records": 0,
            "wal_batches": 0,
        }
        for d in self._droppings.values():
            out["records_merged"] += d.records_merged
            out["records_flushed"] += d.records_flushed
            out["index_flushes"] += d.index_flushes
            out["wal_records"] += d.wal_records_written
            out["wal_batches"] += d.wal_batches
        return out

    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Flush buffered records (a hard barrier for any open WAL batch)
        and fsync the data droppings."""
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
