"""The PLFS user-level API.

Mirrors the C functions quoted in the paper's Listing 1 (``plfs_open``,
``plfs_read``, ``plfs_write``) plus the rest of the surface LDPLFS needs
(`close`, `sync`, `unlink`, `access`, `getattr`, `trunc`, `create`,
`rename`, directory ops).  All functions take *backend physical paths*; the
interposition layer (``repro.core``) performs logical-path → backend
resolution through its mount table, exactly as plfsrc does for the C
library.

Differences from C forced by the language are intentional and small:
``plfs_read`` returns ``bytes`` (with a buffer-filling variant) and errors
are raised as :class:`~repro.plfs.errors.PlfsError` (an :class:`OSError`)
rather than returned as ``-errno``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import cache as index_cache
from .container import ABSENT, CONTAINER, DIRECTORY, Container, classify
from .container import is_container, readdir_logical, rmdir_logical
from .errors import BadFlagsError, ContainerExistsError, ContainerNotFoundError, NotAContainerError
from .index import pack_records, segment_records
from .reader import ReadFile, byte_view
from .route import posix
from .util import unique_timestamp
from .writer import WriteFile


def access_mode(flags: int) -> tuple[bool, bool]:
    """``(readable, writable)`` for open *flags*.  Flags never change after
    open, so handles (and the fd table's entries) store the answer once."""
    acc = flags & os.O_ACCMODE
    return acc in (os.O_RDONLY, os.O_RDWR), acc in (os.O_WRONLY, os.O_RDWR)


@dataclass
class OpenOptions:
    """Counterpart of ``Plfs_open_opt`` (all defaulted, as LDPLFS does)."""

    #: persist every index record to a write-ahead dropping before its data
    #: append, making a crashed writer's index rebuildable by ``repro-fsck``
    #: at the cost of one small sequential write per call
    write_ahead_index: bool = False
    #: group-commit window for the write-ahead index: records per
    #: ``write_wal`` batch.  1 (the default) is the strict per-append
    #: ordering; larger windows amortise the WAL syscall over many small
    #: writes at the cost of intra-batch crash coverage — a crash inside a
    #: batch can strand up to ``wal_batch_records - 1`` appends' bytes past
    #: the WAL coverage, which ``repro-fsck`` trims and reports.
    #: ``plfs_sync`` is always a hard barrier.
    wal_batch_records: int = 1


@dataclass
class Plfs_fd:
    """Counterpart of the C ``Plfs_fd`` handle.

    Reference counted: LDPLFS-style layers may share one handle across
    multiple application descriptors; the final ``plfs_close`` tears it
    down.
    """

    container: Container
    flags: int
    pid: int
    refs: int = 1
    writer: WriteFile | None = None
    _reader: ReadFile | None = field(default=None, repr=False)
    #: access mode, fixed at open
    readable: bool = field(init=False)
    writable: bool = field(init=False)

    #: False here, True on a daemon-held handle (``repro.plfsd``'s RemoteFd).
    #: Dispatch is duck-typed on purpose: ``plfs`` must not import ``plfsd``
    #: (the daemon builds on this module), yet every ``plfs_*`` entry point
    #: below accepts either handle kind so the interposition layer never
    #: branches on where a handle lives.
    is_remote = False

    def __post_init__(self) -> None:
        self.readable, self.writable = access_mode(self.flags)

    @property
    def path(self) -> str:
        return self.container.path

    def reader(self) -> ReadFile:
        """The handle's :class:`ReadFile`, made on first use: a reader like
        any other, sharing the process-wide index."""
        if self._reader is None:
            self._reader = ReadFile(self.container)
        return self._reader


# ---------------------------------------------------------------------- #
# open / close
# ---------------------------------------------------------------------- #


def plfs_open(
    path: str,
    flags: int,
    pid: int | None = None,
    mode: int = 0o644,
    open_opt: OpenOptions | None = None,
) -> Plfs_fd:
    """Open (optionally creating) the logical file backed at *path*."""
    pid = os.getpid() if pid is None else pid
    container = Container(path)
    kind = classify(path)  # the one look at the backend an open takes
    if kind == DIRECTORY and container.exists():
        # Creation is atomic, so a directory that is no container is
        # foreign — unless a creator renamed between classify()'s two looks.
        kind = CONTAINER
    if kind == CONTAINER:
        if flags & os.O_CREAT and flags & os.O_EXCL:
            raise ContainerExistsError(f"container exists: {path}")
    elif kind == DIRECTORY:
        raise NotAContainerError(f"is a directory: {path}")
    elif kind != ABSENT:
        raise NotAContainerError(f"exists and is not a PLFS file: {path}")
    elif not flags & os.O_CREAT:
        raise ContainerNotFoundError(f"no such file: {path}")
    else:
        container._build(mode, bool(flags & os.O_EXCL), pid)

    fd = Plfs_fd(container=container, flags=flags, pid=pid)
    if fd.writable:
        if flags & os.O_TRUNC:
            container.wipe_data()
        wal = bool(open_opt and open_opt.write_ahead_index)
        wal_batch = open_opt.wal_batch_records if open_opt is not None else 1
        fd.writer = WriteFile(container, wal=wal, wal_batch=wal_batch)
        try:
            container.register_open(pid)
        except OSError:
            # Failed open must not leak the writer's droppings/descriptors
            # or leave the container looking half-open.
            fd.writer.abandon()
            fd.writer = None
            raise
    return fd


def plfs_close(fd, pid: int | None = None, flags: int | None = None) -> int:
    """Drop one reference; tear down on the last.  Returns remaining refs.

    Idempotent and exception-safe: closing an already-closed handle is a
    no-op returning 0, and a writer that raises mid-close still leaves the
    handle fully torn down (writer detached, open-marker unregistered), so
    a daemon holding thousands of slots can always reclaim one — retrying
    or double-closing after an error can never wedge a slot.
    """
    if fd.is_remote:
        return fd.close()
    if fd.refs <= 0:
        return 0
    fd.refs -= 1
    if fd.refs > 0:
        return fd.refs
    if fd._reader is not None:
        fd._reader.close()
        fd._reader = None
    writer, fd.writer = fd.writer, None  # claim it: a re-raised close must not re-enter
    if writer is not None:
        last = writer.max_logical_end
        total = writer.total_written
        try:
            writer.close()
        except Exception:
            # The writer is broken but the handle must still be fully
            # reclaimed: drop the open-marker so the container does not
            # look eternally half-open, then surface the error.  (An
            # InjectedCrash is a BaseException and passes through without
            # cleanup — a crash kills the process, it doesn't tidy up.)
            fd.container.unregister_open(pid if pid is not None else fd.pid)
            raise
        fd.container.unregister_open(pid if pid is not None else fd.pid)
        if total:
            fd.container.drop_meta(last, total)
        if total and not fd.container.open_writers():
            # Clean last close: where the next reader has a merge to skip,
            # leave it the flattened index (the rule has one home).
            index_cache.compact_where_it_pays(
                fd.container, writer.stats["records_flushed"]
            )
    return 0


def plfs_ref(fd):
    """Take an additional reference on an open handle."""
    fd.refs += 1
    return fd


# ---------------------------------------------------------------------- #
# data path
# ---------------------------------------------------------------------- #


def plfs_write(fd, buf, count: int | None = None, offset: int = 0, pid: int | None = None) -> int:
    """Write ``buf[:count]`` (bytes) at logical *offset*; returns bytes written.

    *buf* is whatever ``os.write`` takes — any C-contiguous buffer, counted
    in bytes — and threads through the write path without copying.
    """
    if fd.is_remote:
        return fd.write(buf, count, offset)
    writer = fd.writer
    if writer is None:
        raise BadFlagsError("handle not open for writing")
    # One normalisation per buffer: a caller that already holds byte_view's
    # result (the shim does, for its own length checks) is not re-wrapped.
    if type(buf) is not memoryview or buf.format != "B" or buf.ndim != 1 or not buf.c_contiguous:
        buf = byte_view(buf)
    if count is not None and count < len(buf):
        buf = buf[:count]
    return writer.write(buf, offset, fd.pid if pid is None else pid)


def plfs_writev(fd, buffers, offset: int = 0, pid: int | None = None) -> int:
    """Vectored write: *buffers* (what ``os.writev`` takes) land contiguously
    from *offset* as one data append plus one (possibly merged) index record —
    the ``writev``/``pwritev`` fast path.  Returns total bytes written."""
    # Normalise and drop empty views *before* dispatching, so the remote
    # (plfsd) branch sees exactly what the local writer would: an all-empty
    # iovec returns 0 on both paths without a wire round trip.
    views = [view for view in map(byte_view, buffers) if len(view)]
    if fd.is_remote:
        return fd.writev(views, offset) if views else 0
    if fd.writer is None:
        raise BadFlagsError("handle not open for writing")
    if not views:
        return 0
    return fd.writer.append_many(views, offset, fd.pid if pid is None else pid)


def plfs_read(fd, count: int, offset: int) -> bytes:
    """Read up to *count* bytes at *offset* (returns ``b""`` at EOF)."""
    if fd.is_remote:
        return fd.read(count, offset)
    if not fd.readable:
        raise BadFlagsError("handle not open for reading")
    writer = fd.writer
    if writer is not None and writer.appends != writer.flushed_appends:
        writer.flush_indexes()  # read-your-own-writes (DESIGN decision 16)
    return (fd._reader or fd.reader()).read(count, offset)


def plfs_read_into(fd, buf, offset: int) -> int:
    """C-style variant filling a caller buffer (any writable contiguous one,
    counted in bytes like ``os.readv``); returns bytes read, leaves the rest."""
    if fd.is_remote:
        return fd.read_into(byte_view(buf), offset)
    if not fd.readable:
        raise BadFlagsError("handle not open for reading")
    writer = fd.writer
    if writer is not None and writer.appends != writer.flushed_appends:
        writer.flush_indexes()  # read-your-own-writes (DESIGN decision 16)
    return (fd._reader or fd.reader()).read_into(buf, offset)


def plfs_sync(fd, pid: int | None = None) -> None:
    """Flush buffered index records and fsync data droppings."""
    if fd.is_remote:
        fd.sync()
    elif fd.writer is not None:
        fd.writer.sync()


# ---------------------------------------------------------------------- #
# metadata
# ---------------------------------------------------------------------- #


def plfs_getattr(fd_or_path) -> os.stat_result:
    """Stat the logical file (size = logical size from index or meta)."""
    if isinstance(fd_or_path, (str, os.PathLike)):
        return Container(fd_or_path).getattr()
    if fd_or_path.is_remote:
        return fd_or_path.getattr()
    container = fd_or_path.container
    writer = fd_or_path.writer
    if writer is None:
        # A handle that has read answers from its reader: one revalidation
        # (the held generation descriptor) serves this and the next read.
        reader = fd_or_path._reader
        return container.getattr(size=None if reader is None else reader.logical_size())
    # An open writer knows its own high-water mark; combine with the
    # on-disk view so handles stat correctly mid-write.  Building the
    # index is a metadata operation and is legal even on a write-only
    # handle (O_APPEND needs it to find the end).  The on-disk size comes
    # from the epoch-validated shared cache, so another handle's flush is
    # always seen (the cache rebuilds on epoch change) while repeated
    # stats of a quiet container cost one cache hit instead of an index
    # merge; this handle's own unflushed records never exceed its
    # high-water mark, which the max() below folds in.
    disk = container.cached_size()
    if disk is None:
        loaded, _ = index_cache.shared_cache().get(container)
        disk = loaded.index.logical_size
    return container.getattr(size=max(disk, writer.max_logical_end))


def plfs_access(path: str, amode: int) -> bool:
    """POSIX ``access`` on the logical file."""
    container = Container(path)
    if not container.exists():
        raise ContainerNotFoundError(f"no such file: {path}")
    # Containers are directories on the backend; delegate permission checks.
    return posix.access(path, amode)


def plfs_exists(path: str) -> bool:
    return is_container(path)


def plfs_unlink(path: str) -> None:
    Container(path).unlink()
    index_cache.shared_cache().forget(path)


def plfs_create(path: str, mode: int = 0o644, pid: int | None = None) -> None:
    """``creat``-like: make an empty logical file."""
    Container(path).create(mode, pid=os.getpid() if pid is None else pid)


def plfs_trunc(fd_or_path: Plfs_fd | str, offset: int = 0) -> None:
    """Truncate the logical file to *offset* bytes.

    ``offset == 0`` wipes the droppings (the fast path used by ``O_TRUNC``).
    Shrinking rewrites the container through compaction clipped at *offset*;
    growing writes a single zero byte at ``offset - 1`` (the extended region
    reads back as zeros either way).  The C library takes the same
    fast/slow split.
    """
    if isinstance(fd_or_path, (str, os.PathLike)):
        fd, path = None, fd_or_path
        container = Container(path)
    elif fd_or_path.is_remote:
        fd_or_path.trunc(offset)
        return
    else:
        fd, path = fd_or_path, fd_or_path.path
        container = fd.container
    if not container.exists():
        raise ContainerNotFoundError(f"no such file: {path}")
    writer = fd.writer if fd is not None else None

    if offset:
        current = plfs_getattr(fd_or_path).st_size
        if offset == current:
            return
        if offset > current:
            tmp = fd if writer is not None else plfs_open(path, os.O_WRONLY, mode=0o644)
            try:
                plfs_write(tmp, b"\x00", 1, offset - 1)
            finally:
                if tmp is not fd:
                    plfs_close(tmp)
            return

    # Wipe, or shrink by compacting the flattened index clipped at *offset*:
    # either way the droppings are replaced, so an open writer is recycled
    # around it (its high-water mark would otherwise report the old size)
    # and a reader lets go of the descriptors it holds on the old ones.
    if writer is not None:
        writer.close()
    if offset:
        plfs_flatten_index(path, clip=offset)
    else:
        container.wipe_data()
        index_cache.invalidate(container.path)
    if writer is not None:
        fd.writer = WriteFile(container, wal=writer.wal, wal_batch=writer.wal_batch)
    if fd is not None and fd._reader is not None:
        fd._reader.refresh()


def plfs_rename(path: str, new_path: str) -> None:
    Container(path).rename(new_path)
    index_cache.shared_cache().forget(path)
    index_cache.invalidate(new_path)


# ---------------------------------------------------------------------- #
# directory operations (pass-throughs with container awareness)
# ---------------------------------------------------------------------- #


def plfs_mkdir(path: str, mode: int = 0o755) -> None:
    posix.mkdir(path, mode)


def plfs_rmdir(path: str) -> None:
    rmdir_logical(path)


def plfs_readdir(path: str) -> list[str]:
    return readdir_logical(path)


# ---------------------------------------------------------------------- #
# maintenance utilities
# ---------------------------------------------------------------------- #


def plfs_flatten_index(path: str, *, clip: int | None = None) -> int:
    """Compact a container into a single (data, index) dropping pair.

    Rewrites the flattened logical content sequentially, discarding
    overwritten log garbage; with *clip* the content is truncated to that
    many logical bytes first.  Returns the new physical byte count.  This is
    the ``plfs_flatten_index`` maintenance tool from the C distribution and
    the slow path for shrink-truncate.
    """
    container = Container(path)
    reader = ReadFile(container)
    try:
        starts, ends, _, _ = reader.index.as_arrays()
        if clip is not None:
            keep = int(np.searchsorted(starts, clip, side="left"))
            starts, ends = starts[:keep], np.minimum(ends[:keep], clip)
        # Read every surviving extent *before* wiping the droppings.
        chunks: list[tuple[int, bytes]] = [
            (start, reader.read(length, start))
            for start, length in zip(starts.tolist(), (ends - starts).tolist())
        ]
    finally:
        reader.close()

    container.wipe_data()
    writer = WriteFile(container)
    try:
        pid = os.getpid()
        for start, data in chunks:
            writer.write(data, start, pid)
        writer.sync()
        physical = writer.total_written
        last = writer.max_logical_end
    finally:
        writer.close()
    records = writer.stats["records_flushed"]
    if clip is not None and clip > last:
        # Preserve a trailing hole created by a shrink inside a hole.
        tmp = plfs_open(path, os.O_WRONLY)
        try:
            plfs_write(tmp, b"\x00", 1, clip - 1)
        finally:
            plfs_close(tmp)
        last = clip
        physical += 1
    container.clear_meta()
    if physical:
        container.drop_meta(last, physical)
    index_cache.invalidate(container.path)
    index_cache.compact_where_it_pays(container, records)
    return physical


def plfs_map(path: str) -> list[tuple[int, int, int, int]]:
    """Return the flattened extent map of a container: a list of
    (logical_start, logical_end, dropping_id, physical_offset) tuples —
    the ``plfs_map`` inspection tool."""
    container = Container(path)
    reader = ReadFile(container)
    try:
        return reader.index.segments()
    finally:
        reader.close()


def plfs_dump_index(path: str) -> bytes:
    """Serialise the flattened index (for debugging / archival)."""
    container = Container(path)
    reader = ReadFile(container)
    try:
        recs = segment_records(reader.index.as_arrays())
        # Flattened segments are disjoint: there is no recency between
        # them to record, so all carry the time of the dump.
        recs["timestamp"] = unique_timestamp()
        return pack_records(recs)
    finally:
        reader.close()
