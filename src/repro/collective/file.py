"""``CollectiveFile``: ROMIO-style two-phase collective buffering over
the real PLFS path — the real-bytes executor of the plan the simulated
:class:`repro.mpiio.MPIIOSimFile` charges.

One ``CollectiveFile`` models a communicator of ``nodes * ppn`` ranks
sharing one logical file.  Each rank describes its layout with a
:class:`~repro.collective.datatype.FileView`; a collective data call
flattens every rank's share of the round and takes aggregators, file
domains and calls from :func:`repro.mpiio.plan.plan_round`, which reads
the :class:`~repro.mpiio.hints.MPIHints` exactly as ROMIO would:

- aggregated (``romio_cb_write``/``romio_cb_read`` on, the default):
  phase 1 hands every piece — a zero-copy slice of the member's buffer,
  which outlives the round because the call is collective — to the
  aggregator owning its file domain; phase 2 has each aggregator issue
  its calls, one ``plfs_writev`` / ``plfs_read`` each, on its *own*
  handle, concurrently on worker threads when there is more than one.
- not aggregated: every rank moves its own extents independently through
  the list-I/O layer, sieving per ``romio_ds_write``/``romio_ds_read``.

Aggregation is a *transport* optimisation: whichever path runs, the
same logical bytes land in the container and the container index stays
the single authority for what the file contains — the differential
tests demand byte-identical read-back between the two paths.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.mpiio.hints import DEFAULT_HINTS, MPIHints
from repro.mpiio.plan import RoundPlan, aggregators, plan_round
from repro.plfs import api as plfs_api
from repro.plfs.reader import byte_view
from repro.plfs.util import accumulate

from . import listio
from .datatype import FileView, coalesce, interleaved_view

#: pid namespace for per-worker handles (keeps aggregator/rank droppings
#: distinct from the host process's own)
_PID_BASE = 1 << 20


def _write_calls(fd, calls, data) -> tuple[int, int]:
    """Phase 2 of a write at one aggregator: one vectored append per call."""
    written = 0
    for call in calls:
        written += plfs_api.plfs_writev(
            fd,
            [data[p.rank][p.buf_offset : p.buf_offset + p.length] for p in call.parts],
            call.offset,
        )
    return len(calls), written


def _read_calls(fd, calls, out) -> tuple[int, int]:
    """Phase 2 of a read at one aggregator: one read per call, scattered
    into the members' buffers (zero-filled past EOF).  Aggregators run
    concurrently into the same buffers at disjoint offsets: a same-length
    slice assignment never resizes a bytearray, so each is one step under
    the interpreter lock."""
    got = 0
    for call in calls:
        block = plfs_api.plfs_read(fd, call.length, call.offset)
        got += len(block)
        pos = 0
        for p in call.parts:
            piece = block[pos : pos + p.length]
            out[p.rank][p.buf_offset : p.buf_offset + len(piece)] = piece
            pos += p.length
    return len(calls), got


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
    ):
        if nodes < 1 or ppn < 1:
            raise ValueError("nodes and ppn must be >= 1")
        self.path = path
        self.nodes = nodes
        self.ppn = ppn
        self.ranks = nodes * ppn
        self.hints = hints
        self.flags = flags
        self.mode = mode
        self.open_opt = open_opt
        self.aggregator_count = len(aggregators(nodes, ppn, hints))
        self.stats: dict[str, int] = {}
        self._views: dict[int, FileView] = {}
        self._positions: dict[int, int] = {r: 0 for r in range(self.ranks)}
        self._agg_fds: list = []
        self._rank_fds: dict[int, object] = {}
        self._writer_totals: dict[str, int] = {}
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self.aggregator_count,
                thread_name_prefix="cb-agg",
            )
            if self.aggregator_count > 1
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
        return plfs_api.plfs_open(
            self.path, self.flags, _PID_BASE + pid, self.mode, self.open_opt
        )

    def _rank_fd(self, rank: int):
        fd = self._rank_fds.get(rank)
        if fd is None:
            fd = self._open_handle(self.aggregator_count + rank)
            self._rank_fds[rank] = fd
        return fd

    def _handles(self) -> list:
        return self._agg_fds + list(self._rank_fds.values())

    def _count(self, key: str, delta: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + delta

    # ------------------------------------------------------------------ #
    # rounds: the plan, then its execution
    # ------------------------------------------------------------------ #

    def _plan(self, sizes: dict[int, int], position: int | None, *, write: bool):
        """Flatten each rank's share of the round at its view position
        (advancing it unless *position* makes this an ``_at`` call) and
        plan the round.  Returns the plan and the extents it was made of."""
        self._count("cb_rounds")
        extents = {}
        for rank in sorted(sizes):
            pos = self._positions[rank] if position is None else position
            extents[rank] = coalesce(self._view(rank).extents(sizes[rank], position=pos))
            if position is None:
                self._positions[rank] += sizes[rank]
        plan = plan_round(extents, nodes=self.nodes, ppn=self.ppn, hints=self.hints, write=write)
        if plan.aggregated:
            self._count("cb_member_extents", sum(map(len, extents.values())))
        return plan, extents

    def _aggregate(self, plan: RoundPlan, move) -> tuple[int, int]:
        """Phase 2: every aggregator runs ``move(fd, calls)`` on its own
        handle, concurrently, then the barrier.  Returns (calls, bytes)."""
        if not self._agg_fds:
            self._agg_fds = [self._open_handle(w.index) for w in plan.workers]
        jobs = [partial(move, fd, w.calls) for fd, w in zip(self._agg_fds, plan.workers)]
        if self._pool is not None:
            done = list(self._pool.map(lambda job: job(), jobs))
        else:
            done = [job() for job in jobs]
        return sum(n for n, _ in done), sum(b for _, b in done)

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
        plan, extents = self._plan(
            {rank: len(buf) for rank, buf in data.items()}, position, write=True
        )
        if not plan.aggregated:
            total = 0
            for rank, rank_extents in extents.items():
                fd = self._rank_fd(rank)
                total += listio.write_extents(
                    fd,
                    rank_extents,
                    data[rank],
                    ds_write=self.hints.romio_ds_write,
                    buffer_limit=int(self.hints.cb_buffer_size),
                    stats=self.stats,
                )
                if self.hints.romio_ds_write:
                    # Sieving is read-modify-write: commit this rank's
                    # block before the next rank's covering read, the
                    # serialized-RMW ordering ROMIO's fcntl lock provides.
                    plfs_api.plfs_sync(fd)
            return total
        self._count("exchange_messages", sum(len(w.pieces) for w in plan.workers))
        self._count("exchange_bytes", sum(len(buf) for buf in data.values()))
        calls, total = self._aggregate(plan, partial(_write_calls, data=data))
        self._count("cb_backend_writes", calls)
        self._count("cb_backend_write_bytes", total)
        return total

    def read_at_all(self, nbytes, *, position: int | None = None) -> dict[int, bytes]:
        """One collective read round: every rank reads *nbytes* bytes
        (an int, or a dict rank -> count) through its view.  Returns
        rank -> bytes (zero-filled past EOF)."""
        if isinstance(nbytes, int):
            wanted = {r: nbytes for r in range(self.ranks)}
        else:
            wanted = dict(nbytes)
        wanted = {r: n for r, n in wanted.items() if n > 0}
        # Collective read is a barrier: whatever any handle wrote in
        # earlier rounds must be readable by whichever worker owns the
        # domain now (write and read rounds can partition differently).
        # A handle flushes only its own buffered records ahead of its own
        # read; a sibling's become visible through the index-cache
        # generation bump its flush performs.
        self.sync()
        plan, extents = self._plan(wanted, position, write=False)
        if not plan.aggregated:
            return {
                rank: listio.read_extents(
                    self._rank_fd(rank),
                    rank_extents,
                    wanted[rank],
                    ds_read=self.hints.romio_ds_read,
                    buffer_limit=int(self.hints.cb_buffer_size),
                    stats=self.stats,
                )
                for rank, rank_extents in extents.items()
            }
        out = {rank: bytearray(wanted[rank]) for rank in extents}
        calls, got = self._aggregate(plan, partial(_read_calls, out=out))
        self._count("cb_backend_reads", calls)
        self._count("cb_backend_read_bytes", got)
        return {rank: bytes(buf) for rank, buf in out.items()}

    # ------------------------------------------------------------------ #
    # lifecycle / stats
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        for fd in self._handles():
            plfs_api.plfs_sync(fd)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer_totals = self.writer_stats  # outlives the handles
        for fd in self._handles():
            plfs_api.plfs_close(fd)
        self._agg_fds.clear()
        self._rank_fds.clear()
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
        for fd in self._handles():
            if fd.writer is not None:
                accumulate(totals, fd.writer.stats)
        return totals

    @property
    def counters(self) -> dict[str, int]:
        """Engine + exchange counters, insights-export ready."""
        return dict(self.stats)
