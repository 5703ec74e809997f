"""The PLFS read path: global index construction and scatter reads.

Reading a PLFS file requires merging every index dropping into a global
index (overlaps resolved by recency), then servicing each read from the
data droppings named by the plan.  This is the "reorder on read" half of
the log-structured design: writes were laid down sequentially, so reads
pay the reassembly cost.

The fast lane (:mod:`repro.plfs.cache`) takes most of that cost off the
hot path: every handle shares one epoch-validated
global index per container (loaded from the persistent compacted
``global.index`` when fresh, extended by what was appended when a flush
left it behind), a warm read revalidates with one ``fstat`` of a
descriptor the handle already holds, a handle that finds itself behind
keeps its data descriptors across the rebuild, and a plan runs in *physical*
order — per data dropping, every run of (nearly) adjacent slices is one
``preadv`` scattering straight into the caller's buffer: list I/O (Ching
et al.) with data sieving (Thakur et al.) at the container layer.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from operator import itemgetter

from . import constants
from .cache import shared_cache
from .container import Container, DroppingMark
from .errors import CorruptIndexError
from .index import GlobalIndex, ReadSlice, load_global_index
from .route import posix

_IOV_MAX = os.sysconf("SC_IOV_MAX")


def byte_view(buf) -> memoryview:
    """*buf* as a flat view counting bytes, whatever its item type — the one
    buffer normaliser of both data paths.  A non-contiguous buffer raises what
    ``os.readv``/``os.write`` do, and a non-buffer their ``TypeError``."""
    view = memoryview(buf)
    if not view.c_contiguous:
        raise BufferError("memoryview: underlying buffer is not C-contiguous")
    return view if view.format == "B" and view.ndim == 1 else view.cast("B")


class ReadFile:
    """Read handle on a container.

    The global index is built lazily on first read and invalidated with
    :meth:`refresh`.  A reader knows nothing of writers: it sees what is
    in the index droppings, and a handle that also writes (``O_RDWR``)
    flushes its own records there before it reads
    (:func:`repro.plfs.api.plfs_read`).

    Every handle shares its index through the process-wide
    :class:`~repro.plfs.cache.IndexCache` (*use_shared_cache* off builds
    privately, from scratch: the reference the tests compare against) and
    remembers the cache *generation* its index was built at, so a flush
    from any handle in the process (which bumps the generation) is picked
    up on the next read without re-stating the container.

    Data-dropping descriptors are cached in a bounded LRU
    (*fd_cache_limit*, default :data:`constants.FD_CACHE_LIMIT`): wide
    containers hold one dropping per writing rank, and an unbounded cache
    exhausts ``RLIMIT_NOFILE``.  One more descriptor, on the generation
    file, lives exactly as long as the index it vouches for.  A rebuild
    the handle starts itself (it saw a flush) keeps every data descriptor
    whose dropping id still names the same file; :meth:`refresh`,
    :meth:`reap_idle_fds` and :meth:`close` release everything.
    """

    def __init__(
        self,
        container: Container,
        *,
        fd_cache_limit: int | None = None,
        coalesce: bool = True,
        use_shared_cache: bool = True,
    ):
        self.container = container
        self._index: GlobalIndex | None = None
        self._data_paths: list[str] = []
        #: the shared index's marks, per data path (``data_id`` is the file
        #: it saw there); empty for an index built privately
        self._marks: list[DroppingMark] = []
        self._fd_cache: OrderedDict[int, int] = OrderedDict()
        self._fd_last_use: dict[int, float] = {}
        self._fd_limit = (
            constants.FD_CACHE_LIMIT if fd_cache_limit is None else max(1, fd_cache_limit)
        )
        self._coalesce = coalesce
        self._use_shared_cache = use_shared_cache
        self._cache = shared_cache()
        self._generation: int | None = None
        #: the generation file the index was built under (None: there was none)
        self._gen_fd: int | None = None
        self._closed = False
        #: read-path counters (surfaced into repro.insights profiles)
        self.stats = {
            "index_builds": 0,
            "preads": 0,
            "coalesced_slices": 0,
            "bytes_read": 0,
            "sieved_gap_bytes": 0,
            "cross_process_refreshes": 0,
            "fds_reaped": 0,
        }

    # ------------------------------------------------------------------ #
    # index lifecycle
    # ------------------------------------------------------------------ #

    def _build_index(self) -> None:
        self.stats["index_builds"] += 1
        held_paths, held_marks = self._data_paths, self._marks
        self._close_generation_fd()
        try:
            self._load()
        except BaseException:
            self._drop_fds()
            raise
        # A data descriptor outlives the index it was opened under when its
        # dropping id still names the same path and the same file.
        paths, marks = self._data_paths, self._marks
        for dropping in list(self._fd_cache):
            same = (
                dropping < min(len(marks), len(held_marks))
                and marks[dropping].data_id is not None
                and marks[dropping].data_id == held_marks[dropping].data_id
                and paths[dropping] == held_paths[dropping]
            )
            if not same:
                self._close_quietly(self._fd_cache.pop(dropping))
                self._fd_last_use.pop(dropping, None)

    def _load(self) -> None:
        # Opened before the build, in place of a stat: a bump that lands
        # while the build runs unlinks this very inode.
        try:
            self._gen_fd = posix.open(self.container.generation_path(), os.O_RDONLY)
        except OSError:
            pass
        if self._use_shared_cache:
            loaded, self._generation = self._cache.get(self.container)
            self._index, self._data_paths = loaded.index, loaded.data_paths
            self._marks = loaded.marks
        else:
            self._generation = self._cache.generation(self.container.path)
            self._index, self._data_paths = load_global_index(self.container.droppings())
            self._marks = []

    def refresh(self) -> None:
        """Invalidate the cached global index (picks up new droppings)
        and release every descriptor held under it."""
        self._index = None
        self._drop_fds()

    def _revalidate(self) -> None:
        """Mark the index for a rebuild if any handle flushed writes since
        it was built — in this process (generation bump, one dict lookup)
        or in another one: ``bump_generation`` replaces the generation file
        by rename, so the one held open here has lost its last link exactly
        when a by-path ``(inode, mtime_ns)`` token would have changed (one
        ``fstat``).  The path is probed only while none existed at build.
        Being behind closes nothing: :meth:`_build_index` decides which
        descriptors the new index still vouches for."""
        if self._index is None or self._generation is None:
            return
        if self._cache.generation(self.container.path) != self._generation:
            self._index = None
            return
        if self._gen_fd is None:
            stale = self.container.generation_token() is not None
        else:
            try:
                stale = posix.fstat(self._gen_fd).st_nlink == 0
            except OSError:  # e.g. ESTALE: the held file is gone for good
                stale = True
        if stale:
            # A writer in another process bumped the container's generation
            # file.  The shared entry needs no telling: the rebuild's ``get``
            # validates it by epoch, and extends it.
            self.stats["cross_process_refreshes"] += 1
            self._index = None

    @property
    def index(self) -> GlobalIndex:
        if self._index is None:
            self._build_index()
        assert self._index is not None
        return self._index

    def logical_size(self) -> int:
        self._revalidate()
        return self.index.logical_size

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #

    def _fd_for(self, dropping: int) -> int:
        """A data dropping's cached descriptor, stamped as just used."""
        cache = self._fd_cache
        fd = cache.get(dropping)
        if fd is not None:
            cache.move_to_end(dropping)
        else:
            fd = cache[dropping] = posix.open(self._data_paths[dropping], os.O_RDONLY)
            while len(cache) > self._fd_limit:
                key, evicted = cache.popitem(last=False)
                self._fd_last_use.pop(key, None)
                self._close_quietly(evicted)
        self._fd_last_use[dropping] = time.monotonic()
        return fd

    @staticmethod
    def _close_quietly(fd: int) -> None:
        try:
            posix.close(fd)
        except OSError:  # pragma: no cover - defensive
            pass

    def reap_idle_fds(self, idle_seconds: float, *, now: float | None = None) -> int:
        """Close cached descriptors unused for at least *idle_seconds*.

        A long-lived handle (a daemon's, or any reader a process keeps
        open across idle hours) must not pin one kernel fd per data
        dropping forever — the LRU only bounds the *count*, not the
        *lifetime*.  The handle stays fully usable: a later read
        transparently reopens what it needs.  Returns data descriptors
        closed; ``idle_seconds=0`` empties the cache unconditionally.  A
        handle left with none is idle as a whole: it lets go of the
        generation descriptor too, and of the index that one vouched for.
        """
        if now is None:
            now = time.monotonic()
        reaped = 0
        for dropping in list(self._fd_cache):
            if now - self._fd_last_use.get(dropping, now) < idle_seconds:
                continue
            self._close_quietly(self._fd_cache.pop(dropping))
            self._fd_last_use.pop(dropping, None)
            reaped += 1
        self.stats["fds_reaped"] += reaped
        if not self._fd_cache:
            self.refresh()
        return reaped

    def _drop_fds(self) -> None:
        """Close every descriptor the handle holds, tolerating individual
        failures (a single bad close must not strand the rest open)."""
        while self._fd_cache:
            self._close_quietly(self._fd_cache.popitem()[1])
        self._fd_last_use.clear()
        self._close_generation_fd()

    def _close_generation_fd(self) -> None:
        if self._gen_fd is not None:
            fd, self._gen_fd = self._gen_fd, None
            self._close_quietly(fd)

    def _short_read(self, dropping: int, wanted: int, at: int, got: int) -> CorruptIndexError:
        return CorruptIndexError(  # the index promised bytes the dropping does not hold
            f"short read from dropping {self._data_paths[dropping]}: "
            f"wanted {wanted} at {at}, got {got}"
        )

    def _read_slice(self, piece: ReadSlice) -> bytes:
        _, length, dropping, physical_offset = piece
        if dropping == constants.HOLE:
            return bytes(length)
        data = posix.pread(self._fd_for(dropping), length, physical_offset)
        self.stats["preads"] += 1
        if len(data) < length:
            raise self._short_read(dropping, length, physical_offset, len(data))
        self.stats["bytes_read"] += length
        return data

    def _scatter(self, plan: list[ReadSlice], dest: memoryview) -> None:
        """Execute *plan* into *dest* (whose first byte is the plan's), in
        physical order: per data dropping, each run of slices adjacent or
        at most ``READ_COALESCE_GAP`` apart is one ``preadv`` whose iovec
        scatters to the slices' logical places in *dest*, a throw-away
        entry absorbing each sieved gap.  Holes are zeroed explicitly —
        *dest* may be dirty."""
        base = plan[0].logical_offset
        gap_limit = constants.READ_COALESCE_GAP
        ordered = sorted(plan, key=itemgetter(2, 3))  # by dropping (holes first), physical offset
        stats = self.stats
        moved = merged = sieved = 0
        i, n = 0, len(ordered)
        while i < n:
            logical, length, dropping, start = ordered[i]
            i += 1
            at = logical - base
            if dropping == constants.HOLE:
                dest[at : at + length] = bytes(length)
                continue
            iov = [dest[at : at + length]]
            end = start + length
            # room for one more slice and the gap entry before it
            while i < n and len(iov) + 2 <= _IOV_MAX:
                logical, length, other, physical = ordered[i]
                gap = physical - end
                if other != dropping or not 0 <= gap <= gap_limit:
                    break
                if gap:
                    iov.append(bytearray(gap))
                    sieved += gap
                at = logical - base
                iov.append(dest[at : at + length])
                end = physical + length
                merged += 1
                i += 1
            got = posix.preadv(self._fd_for(dropping), iov, start)
            stats["preads"] += 1
            if got < end - start:
                raise self._short_read(dropping, end - start, start, got)
            moved += got
        stats["coalesced_slices"] += merged
        stats["bytes_read"] += moved - sieved
        stats["sieved_gap_bytes"] += sieved

    def _plan(self, count: int, offset: int) -> list[ReadSlice]:
        if self._closed:
            raise ValueError("read on closed ReadFile")
        self._revalidate()
        if self._index is None:
            self._build_index()
        return self._index.query(offset, count)

    def read(self, count: int, offset: int) -> bytes:
        """Read up to *count* bytes at *offset*; b"" at or past EOF."""
        plan = self._plan(count, offset)
        if not plan:
            return b""
        if len(plan) == 1:
            return self._read_slice(plan[0])
        if not self._coalesce:
            return b"".join(map(self._read_slice, plan))
        last = plan[-1]
        buf = bytearray(last.logical_offset + last.length - offset)
        self._scatter(plan, memoryview(buf))
        return bytes(buf)

    def read_into(self, buf, offset: int) -> int:
        """Fill *buf* (any writable contiguous buffer; lengths count bytes)
        from *offset*; returns bytes read.  Bytes of *buf* past the return
        value are left as they were."""
        dest = byte_view(buf)
        plan = self._plan(len(dest), offset)
        if not plan:
            return 0
        last = plan[-1]
        got = last.logical_offset + last.length - offset
        if self._coalesce:
            self._scatter(plan, dest[:got])
        else:
            dest[:got] = b"".join(map(self._read_slice, plan))
        return got

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release cached descriptors.  Idempotent and exception-safe: a
        handle abandoned after a mid-plan :class:`CorruptIndexError` (or
        closed twice) never strands descriptors open."""
        if self._closed:
            return
        self._closed = True
        self._drop_fds()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ReadFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        # Last-resort fd hygiene, mirroring the failed-open cleanup: a
        # caller that abandons the handle after an error still must not
        # leak descriptors.
        try:
            self.close()
        except Exception:
            pass


def logical_size(container: Container) -> int:
    """Compute a container's logical size through the shared index cache.

    Used by ``getattr`` when no trustworthy cached metadata exists;
    repeated ``stat`` calls against an unchanged container hit the cache
    instead of rebuilding the global index each time.
    """
    loaded, _ = shared_cache().get(container)
    return loaded.index.logical_size
