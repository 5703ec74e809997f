"""``CollectiveFile``: ROMIO-style two-phase collective buffering over
the real PLFS path — the real-bytes twin of the simulated
:class:`repro.mpiio.MPIIOSimFile`.

One ``CollectiveFile`` models a communicator of ``nodes * ppn`` ranks
sharing one logical file.  Each rank describes its layout with a
:class:`~repro.collective.datatype.FileView`; a collective data call
then honors the :class:`~repro.mpiio.hints.MPIHints` exactly as ROMIO
would:

- ``romio_cb_write``/``romio_cb_read`` **on** (default): phase 1 hands
  every rank's flattened pieces — zero-copy slices of the member's
  buffer, which outlives the round because the call is collective — to
  the ``cb_nodes`` aggregators owning the round's file domains; phase 2 has
  each aggregator issue single ``plfs_writev`` / coalesced ``plfs_read``
  calls in ``cb_buffer_size`` chunks on its *own* handle, concurrently
  on worker threads (or against a plfsd daemon — per-process
  aggregators in spirit and in transport).
- **off**: every rank moves its own pieces independently through the
  list-I/O layer, sieving per ``romio_ds_write``/``romio_ds_read``.

Aggregation is a *transport* optimisation: whichever path runs, the
same logical bytes land in the container and the container index stays
the single authority for what the file contains — the differential
tests demand byte-identical read-back between the two paths.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

from repro.mpiio.hints import DEFAULT_HINTS, MPIHints
from repro.plfs import api as plfs_api
from repro.plfs.reader import byte_view

from . import listio
from .aggregator import Aggregator, partition_domains, split_extent
from .datatype import FileView, coalesce, interleaved_view

#: pid namespace for per-worker handles (keeps aggregator/rank droppings
#: distinct from the host process's own)
_PID_BASE = 1 << 20


class CollectiveFile:
    """One communicator's handle on one PLFS-backed logical file."""

    def __init__(
        self,
        path: str,
        *,
        nodes: int = 1,
        ppn: int = 1,
        hints: MPIHints = DEFAULT_HINTS,
        flags: int = os.O_CREAT | os.O_RDWR,
        mode: int = 0o644,
        open_opt=None,
        workers: str = "thread",
        daemon: str | None = None,
    ):
        if nodes < 1 or ppn < 1:
            raise ValueError("nodes and ppn must be >= 1")
        if workers not in ("thread", "inline"):
            raise ValueError(f"unknown workers mode {workers!r}")
        self.path = path
        self.nodes = nodes
        self.ppn = ppn
        self.ranks = nodes * ppn
        self.hints = hints
        self.flags = flags
        self.mode = mode
        self.open_opt = open_opt
        self.daemon = daemon
        self.aggregator_count = hints.aggregator_count(nodes)
        self.stats: dict[str, int] = {}
        self._views: dict[int, FileView] = {}
        self._positions: dict[int, int] = {r: 0 for r in range(self.ranks)}
        self._agg_fds: list = []
        self._rank_fds: dict[int, object] = {}
        self._daemon_clients: list = []
        self._writer_totals: dict[str, int] = {}
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self.aggregator_count,
                thread_name_prefix="cb-agg",
            )
            if workers == "thread" and self.aggregator_count > 1
            else None
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def set_view(self, rank: int, view: FileView) -> None:
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} outside communicator of {self.ranks}")
        self._views[rank] = view
        self._positions[rank] = 0

    def set_interleaved(self, record_bytes: int, *, displacement: int = 0) -> None:
        """The canonical shared-file layout: every rank round-robins over
        *record_bytes* records (rank r owns records r, r+R, ...)."""
        for rank in range(self.ranks):
            self.set_view(
                rank,
                interleaved_view(
                    rank, self.ranks, record_bytes, displacement=displacement
                ),
            )

    def _view(self, rank: int) -> FileView:
        try:
            return self._views[rank]
        except KeyError:
            raise ValueError(
                f"rank {rank} has no file view (call set_view/set_interleaved)"
            ) from None

    # ------------------------------------------------------------------ #
    # handles (one per worker: aggregators and ranks never share writers)
    # ------------------------------------------------------------------ #

    def _open_handle(self, pid: int):
        if self.daemon is not None:
            from repro.plfsd import client as plfsd_client

            cli = plfsd_client.connect(self.daemon, name=f"cb-{pid}")
            self._daemon_clients.append(cli)
            return cli.open(self.path, self.flags, self.mode)
        return plfs_api.plfs_open(
            self.path, self.flags, _PID_BASE + pid, self.mode, self.open_opt
        )

    def _aggregators(self) -> list[Aggregator]:
        if not self._agg_fds:
            for i in range(self.aggregator_count):
                self._agg_fds.append(self._open_handle(i))
        return [
            Aggregator(i, fd, cb_buffer_size=int(self.hints.cb_buffer_size))
            for i, fd in enumerate(self._agg_fds)
        ]

    def _rank_fd(self, rank: int):
        fd = self._rank_fds.get(rank)
        if fd is None:
            fd = self._open_handle(self.aggregator_count + rank)
            self._rank_fds[rank] = fd
        return fd

    def _run_workers(self, jobs: list):
        if self._pool is not None and len(jobs) > 1:
            return list(self._pool.map(lambda job: job(), jobs))
        return [job() for job in jobs]

    def _publish(self) -> None:
        """Flush every open writer so the next read on *any* handle
        revalidates against the full container.  A handle flushes only its
        own buffered records ahead of its own read; bytes buffered in a
        sibling handle (another aggregator, another rank) become visible
        through the index-cache generation bump a flush performs."""
        for fd in list(self._agg_fds) + list(self._rank_fds.values()):
            plfs_api.plfs_sync(fd)

    def _count(self, key: str, delta: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + delta

    def _merge_worker_stats(self, aggs: list[Aggregator]) -> None:
        # Aggregators count on their own dicts while running concurrently;
        # the engine folds them in single-threaded after the phase barrier.
        for agg in aggs:
            for key, value in agg.stats.items():
                self.stats[key] = self.stats.get(key, 0) + value

    # ------------------------------------------------------------------ #
    # collective write
    # ------------------------------------------------------------------ #

    def _contributions(self, contribs) -> dict[int, memoryview]:
        if not isinstance(contribs, dict):
            contribs = dict(enumerate(contribs))
        out: dict[int, memoryview] = {}
        for rank, data in contribs.items():
            view = byte_view(data)
            if len(view):
                out[rank] = view
        return out

    def write_at_all(self, contribs, *, position: int | None = None) -> int:
        """One collective write round: every rank contributes its bytes,
        laid out through its file view.  *contribs* maps rank -> buffer
        (a list is taken as rank order).  Returns total bytes written.

        With *position* the round reads the view from that byte (an
        ``_at`` call: positions don't advance); otherwise each rank
        continues at its own view position.
        """
        data = self._contributions(contribs)
        self._count("cb_rounds")
        if not self.hints.romio_cb_write:
            total = 0
            for rank in sorted(data):
                pos = self._positions[rank] if position is None else position
                total += listio.list_write(
                    self._rank_fd(rank),
                    self._view(rank),
                    data[rank],
                    position=pos,
                    ds_write=self.hints.romio_ds_write,
                    buffer_limit=int(self.hints.cb_buffer_size),
                    stats=self.stats,
                )
                if position is None:
                    self._positions[rank] += len(data[rank])
                if self.hints.romio_ds_write:
                    # Sieving is read-modify-write: commit this rank's
                    # block before the next rank's covering read, the
                    # serialized-RMW ordering ROMIO's fcntl lock provides.
                    plfs_api.plfs_sync(self._rank_fd(rank))
            return total

        # phase 0: flatten every rank's contribution into file extents
        # (tuple indexing, not Extent properties: this loop and phase 1
        # below run once per member extent per round)
        per_rank: dict[int, list] = {}
        lo = hi = None
        for rank in sorted(data):
            pos = self._positions[rank] if position is None else position
            extents = coalesce(
                self._view(rank).extents(len(data[rank]), position=pos)
            )
            per_rank[rank] = extents
            for off, _boff, length in extents:
                if lo is None:
                    lo, hi = off, off + length
                else:
                    if off < lo:
                        lo = off
                    if off + length > hi:
                        hi = off + length
            self._count("cb_member_extents", len(extents))
        if lo is None:
            return 0

        # phase 1: exchange pieces into the owning aggregators' inboxes.
        # The bisect fast path handles the overwhelmingly common
        # piece-inside-one-domain case without touching split_extent.
        aggs = self._aggregators()
        domains = partition_domains(lo, hi, len(aggs))
        starts = [d[0] for d in domains]
        last = len(domains) - 1
        deliver = [agg.deliver for agg in aggs]
        messages = 0
        for rank, extents in per_rank.items():
            buf = data[rank]
            for extent in extents:
                off, boff, length = extent
                idx = bisect_right(starts, off) - 1
                if idx < 0:
                    idx = 0
                if off + length <= domains[idx][1] or idx == last:
                    deliver[idx](off, buf[boff : boff + length])
                    messages += 1
                    continue
                for didx, piece in split_extent(extent, domains, starts):
                    deliver[didx](
                        piece.file_offset, buf[piece.buf_offset : piece.buf_end]
                    )
                    messages += 1
        self._count("exchange_messages", messages)
        self._count("exchange_bytes", sum(len(buf) for buf in data.values()))

        # phase 2: aggregators flush concurrently, then the barrier
        total = sum(self._run_workers([agg.flush_writes for agg in aggs]))
        self._merge_worker_stats(aggs)
        if position is None:
            for rank in per_rank:
                self._positions[rank] += len(data[rank])
        return total

    # ------------------------------------------------------------------ #
    # collective read
    # ------------------------------------------------------------------ #

    def read_at_all(self, nbytes, *, position: int | None = None) -> dict[int, bytes]:
        """One collective read round: every rank reads *nbytes* bytes
        (an int, or a dict rank -> count) through its view.  Returns
        rank -> bytes (zero-filled past EOF)."""
        if isinstance(nbytes, int):
            wanted = {r: nbytes for r in range(self.ranks)}
        else:
            wanted = dict(nbytes)
        wanted = {r: n for r, n in wanted.items() if n > 0}
        self._count("cb_rounds")
        # Collective read is a barrier: whatever any handle wrote in
        # earlier rounds must be readable by whichever worker owns the
        # domain now (write and read rounds can partition differently).
        self._publish()
        if not self.hints.romio_cb_read:
            out: dict[int, bytes] = {}
            for rank in sorted(wanted):
                pos = self._positions[rank] if position is None else position
                out[rank] = listio.list_read(
                    self._rank_fd(rank),
                    self._view(rank),
                    wanted[rank],
                    position=pos,
                    ds_read=self.hints.romio_ds_read,
                    buffer_limit=int(self.hints.cb_buffer_size),
                    stats=self.stats,
                )
                if position is None:
                    self._positions[rank] += wanted[rank]
            return out

        per_rank: dict[int, list] = {}
        lo = hi = None
        for rank in sorted(wanted):
            pos = self._positions[rank] if position is None else position
            extents = coalesce(self._view(rank).extents(wanted[rank], position=pos))
            per_rank[rank] = extents
            for e in extents:
                lo = e.file_offset if lo is None else min(lo, e.file_offset)
                hi = e.file_end if hi is None else max(hi, e.file_end)
            self._count("cb_member_extents", len(extents))
        if lo is None:
            return {}

        aggs = self._aggregators()
        domains = partition_domains(lo, hi, len(aggs))
        starts = [d[0] for d in domains]
        requests: list[list] = [[] for _ in aggs]
        for rank, extents in per_rank.items():
            for extent in extents:
                for didx, piece in split_extent(extent, domains, starts):
                    requests[didx].append(((rank, piece.buf_offset), piece))

        served = self._run_workers(
            [
                (lambda a=agg, r=reqs: a.serve_reads(r))
                for agg, reqs in zip(aggs, requests)
            ]
        )
        self._merge_worker_stats(aggs)
        out = {rank: bytearray(wanted[rank]) for rank in per_rank}
        for batch in served:
            for (rank, buf_offset), piece in batch:
                out[rank][buf_offset : buf_offset + len(piece)] = piece
        if position is None:
            for rank in per_rank:
                self._positions[rank] += wanted[rank]
        return {rank: bytes(buf) for rank, buf in out.items()}

    # ------------------------------------------------------------------ #
    # lifecycle / stats
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        for fd in list(self._agg_fds) + list(self._rank_fds.values()):
            plfs_api.plfs_sync(fd)

    def _harvest(self, fd) -> None:
        writer = getattr(fd, "writer", None)
        if writer is not None:
            for key, value in writer.stats.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                self._writer_totals[key] = self._writer_totals.get(key, 0) + value

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for fd in list(self._agg_fds) + list(self._rank_fds.values()):
            self._harvest(fd)
            plfs_api.plfs_close(fd)
        self._agg_fds.clear()
        self._rank_fds.clear()
        for cli in self._daemon_clients:
            cli.close()
        self._daemon_clients.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "CollectiveFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def writer_stats(self) -> dict[str, int]:
        """Aggregated WriteFile counters across every worker handle
        (harvested at close; live handles contribute on demand)."""
        totals = dict(self._writer_totals)
        for fd in list(self._agg_fds) + list(self._rank_fds.values()):
            writer = getattr(fd, "writer", None)
            if writer is not None:
                for key, value in writer.stats.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def counters(self) -> dict[str, int]:
        """Engine + exchange counters, insights-export ready."""
        return dict(self.stats)
