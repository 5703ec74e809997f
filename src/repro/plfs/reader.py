"""The PLFS read path: global index construction and scatter-gather reads.

Reading a PLFS file requires merging every index dropping into a global
index (overlaps resolved by recency), then servicing each read as a series
of ``pread`` calls into the data droppings named by the plan.  This is the
"reorder on read" half of the log-structured design: writes were laid down
sequentially, so reads pay the reassembly cost.

The fast lane (:mod:`repro.plfs.cache`) takes most of that cost off the
hot path: handles without a writer overlay share one epoch-validated
global index per container (loaded from the persistent compacted
``global.index`` when fresh), and read plans coalesce physically-adjacent
slices of one dropping into single preads — the noncontiguous-access
optimisation of Thakur et al. applied at the container layer.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict

from . import constants
from .cache import shared_cache
from .container import Container
from .errors import CorruptIndexError
from .index import GlobalIndex, ReadSlice, load_global_index
from .route import posix
from .writer import WriteFile


def coalesce_plan(
    plan: list[ReadSlice], *, gap: int = constants.READ_COALESCE_GAP
) -> list[list[ReadSlice]]:
    """Group logically-consecutive plan slices serviceable by one pread.

    Two adjacent slices merge when they read the same data dropping and
    the second starts within *gap* bytes past the first's physical end —
    exact adjacency (the per-record fragmentation interleaved sequential
    writers produce) or a small gap worth reading through and discarding
    (data sieving).  Holes never merge.
    """
    groups: list[list[ReadSlice]] = []
    current: list[ReadSlice] = []
    for piece in plan:
        if current:
            prev = current[-1]
            if (
                not piece.is_hole
                and not prev.is_hole
                and piece.dropping == prev.dropping
                and 0
                <= piece.physical_offset - (prev.physical_offset + prev.length)
                <= gap
            ):
                current.append(piece)
                continue
            groups.append(current)
        current = [piece]
    if current:
        groups.append(current)
    return groups


class ReadFile:
    """Read handle on a container.

    The global index is built lazily on first read and invalidated with
    :meth:`refresh` (e.g. after a same-process writer syncs).  If *writer*
    is supplied, its unflushed in-memory records are merged in so that a
    handle opened O_RDWR sees its own writes immediately — the same
    guarantee plfs_read gives through the C API.

    Handles without a writer overlay share their index through the
    process-wide :class:`~repro.plfs.cache.IndexCache`; every handle also
    remembers the cache *generation* its index was built at, so a flush
    from any other handle in the process (which bumps the generation) is
    picked up on the next read without re-stating the container.

    Data-dropping descriptors are cached in a bounded LRU
    (*fd_cache_limit*, default :data:`constants.FD_CACHE_LIMIT`): wide
    containers hold one dropping per writing rank, and an unbounded cache
    exhausts ``RLIMIT_NOFILE``.
    """

    def __init__(
        self,
        container: Container,
        *,
        writer: WriteFile | None = None,
        fd_cache_limit: int | None = None,
        coalesce: bool = True,
        use_shared_cache: bool = True,
    ):
        self.container = container
        self._writer = writer
        self._index: GlobalIndex | None = None
        self._data_paths: list[str] = []
        self._fd_cache: OrderedDict[int, int] = OrderedDict()
        self._fd_last_use: dict[int, float] = {}
        self._fd_limit = (
            constants.FD_CACHE_LIMIT if fd_cache_limit is None else max(1, fd_cache_limit)
        )
        self._coalesce = coalesce
        self._use_shared_cache = use_shared_cache
        self._generation: int | None = None
        self._gen_token: tuple[int, int] | None = None
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
        self._gen_token = self.container.generation_token()
        cache = shared_cache()
        if self._writer is None and self._use_shared_cache:
            loaded, generation = cache.get(self.container)
            self._index, self._data_paths = loaded.index, loaded.data_paths
            self._generation = generation
            return
        extra: list = []
        if self._writer is not None:
            # Make sure on-disk index droppings are complete, then overlay
            # anything still buffered (nothing, after flush — but a writer
            # may be actively appending between our flush and read).
            self._writer.flush_indexes()
        droppings = self.container.droppings()
        if self._writer is not None:
            path_to_id = {data: i for i, (_, data) in enumerate(droppings)}
            for recs, data_path in self._writer.pending_records():
                gid = path_to_id.get(data_path)
                if gid is None:
                    droppings.append(("", data_path))
                    gid = len(droppings) - 1
                    path_to_id[data_path] = gid
                extra.append((recs, gid))
        self._index, self._data_paths = load_global_index(droppings, extra)
        self._generation = cache.generation(self.container.path)

    def refresh(self) -> None:
        """Invalidate the cached global index (picks up new droppings)."""
        self._index = None
        self._generation = None
        self._drop_fds()

    def _revalidate(self) -> None:
        """Rebuild the index if any handle flushed writes since ours was
        built — in this process (generation bump, one dict lookup) or in
        another one (generation-file token change, one ``stat``)."""
        if self._index is None or self._generation is None:
            return
        if shared_cache().generation(self.container.path) != self._generation:
            self.refresh()
            return
        token = self.container.generation_token()
        if token != self._gen_token:
            # A writer in another process bumped the container's
            # generation file; the in-process cache entry it cannot reach
            # must be dropped too, or _build_index would serve it back.
            self.stats["cross_process_refreshes"] += 1
            shared_cache().invalidate(self.container.path)
            self.refresh()

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
        cache = self._fd_cache
        fd = cache.get(dropping)
        if fd is not None:
            cache.move_to_end(dropping)
            self._fd_last_use[dropping] = time.monotonic()
            return fd
        fd = posix.open(self._data_paths[dropping], os.O_RDONLY)
        cache[dropping] = fd
        self._fd_last_use[dropping] = time.monotonic()
        while len(cache) > self._fd_limit:
            key, evicted = cache.popitem(last=False)
            self._fd_last_use.pop(key, None)
            try:
                posix.close(evicted)
            except OSError:  # pragma: no cover - defensive
                pass
        return fd

    def reap_idle_fds(self, idle_seconds: float, *, now: float | None = None) -> int:
        """Close cached descriptors unused for at least *idle_seconds*.

        A long-lived handle (a daemon's, or any reader a process keeps
        open across idle hours) must not pin one kernel fd per data
        dropping forever — the LRU only bounds the *count*, not the
        *lifetime*.  The handle stays fully usable: a later read
        transparently reopens what it needs.  Returns fds closed;
        ``idle_seconds=0`` empties the cache unconditionally.
        """
        if now is None:
            now = time.monotonic()
        reaped = 0
        for dropping in list(self._fd_cache):
            if now - self._fd_last_use.get(dropping, now) < idle_seconds:
                continue
            fd = self._fd_cache.pop(dropping)
            self._fd_last_use.pop(dropping, None)
            try:
                posix.close(fd)
            except OSError:  # pragma: no cover - defensive
                pass
            reaped += 1
        self.stats["fds_reaped"] += reaped
        return reaped

    def _drop_fds(self) -> None:
        """Close every cached descriptor, tolerating individual failures
        (a single bad close must not strand the rest open)."""
        while self._fd_cache:
            key, fd = self._fd_cache.popitem()
            self._fd_last_use.pop(key, None)
            try:
                posix.close(fd)
            except OSError:  # pragma: no cover - defensive
                pass

    def _short_read(self, piece: ReadSlice, got: int) -> CorruptIndexError:
        return CorruptIndexError(
            f"short read from dropping {self._data_paths[piece.dropping]}: "
            f"wanted {piece.length} at {piece.physical_offset}, got {got}"
        )

    def _read_group(self, group: list[ReadSlice], out: list[bytes]) -> None:
        """Service one coalesced group with a single pread, then carve the
        span back into the group's logical pieces."""
        first, last = group[0], group[-1]
        if first.is_hole:
            out.append(b"\x00" * first.length)
            return
        fd = self._fd_for(first.dropping)
        span_start = first.physical_offset
        span_len = last.physical_offset + last.length - span_start
        data = posix.pread(fd, span_len, span_start)
        self.stats["preads"] += 1
        self.stats["coalesced_slices"] += len(group) - 1
        if len(group) == 1:
            if len(data) < first.length:
                raise self._short_read(first, len(data))
            self.stats["bytes_read"] += len(data)
            out.append(data)
            return
        view = memoryview(data)
        for piece in group:
            lo = piece.physical_offset - span_start
            hi = lo + piece.length
            if hi > len(data):
                raise self._short_read(piece, max(0, len(data) - lo))
            out.append(bytes(view[lo:hi]))
            self.stats["bytes_read"] += piece.length
        self.stats["sieved_gap_bytes"] += span_len - sum(p.length for p in group)

    def _read_slice(self, piece: ReadSlice) -> bytes:
        if piece.is_hole:
            return b"\x00" * piece.length
        fd = self._fd_for(piece.dropping)
        data = posix.pread(fd, piece.length, piece.physical_offset)
        self.stats["preads"] += 1
        if len(data) < piece.length:
            # The index promised bytes the data dropping does not hold.
            raise self._short_read(piece, len(data))
        self.stats["bytes_read"] += len(data)
        return data

    def read(self, count: int, offset: int) -> bytes:
        """Read up to *count* bytes at *offset*; b"" at or past EOF."""
        if self._closed:
            raise ValueError("read on closed ReadFile")
        self._revalidate()
        plan = self.index.query(offset, count)
        if not plan:
            return b""
        if len(plan) == 1:
            return self._read_slice(plan[0])
        if not self._coalesce:
            return b"".join(self._read_slice(p) for p in plan)
        out: list[bytes] = []
        for group in coalesce_plan(plan):
            self._read_group(group, out)
        return b"".join(out)

    def read_into(self, buf, offset: int) -> int:
        """Fill *buf* (a writable buffer) from *offset*; returns bytes read."""
        view = memoryview(buf)
        data = self.read(len(view), offset)
        view[: len(data)] = data
        return len(data)

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
