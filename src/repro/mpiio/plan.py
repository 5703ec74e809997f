"""One two-phase plan: aggregators, file domains and backend calls.

ROMIO's collective buffering (Thakur et al.) decides from one round's
file views and the MPI hints alone who touches the backend and with which
calls: ``cb_nodes`` aggregators each own an even *file domain* of the
round's touched range, receive every member piece that falls in it (phase
1) and move what they hold as file-contiguous runs cut at
``cb_buffer_size`` (phase 2).  With ``romio_cb_write`` / ``romio_cb_read``
off there is no phase 1: every rank moves its own file-contiguous runs.

This module is that decision and nothing else — no I/O, no clock, nothing
from ``repro.plfs`` or ``repro.collective`` — and the two engines are its
executors: :class:`repro.mpiio.MPIIOSimFile` charges a plan on the
simulator, :class:`repro.collective.CollectiveFile` performs it on PLFS
handles.  Byte counts may be fluid (the simulator divides a class's volume
evenly over the ranks), so nothing here floors a non-integer count.
Data sieving is not part of the plan: see DESIGN §5 decision 19.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .hints import MPIHints

#: a fluid domain bound within this fraction of the round's span of a
#: piece edge is that edge (rounding, not a byte of some node's data)
_FLUID_SNAP = 1e-12

_file_offset = itemgetter(0)


class Extent(NamedTuple):
    """One flattened piece: buffer bytes ``[buf_offset, buf_offset+length)``
    land at file bytes ``[file_offset, file_offset+length)``.

    A ``NamedTuple`` rather than a dataclass: flattening a fine-grained
    view allocates one of these per record on the collective hot path.
    """

    file_offset: int
    buf_offset: int
    length: int

    @property
    def file_end(self) -> int:
        return self.file_offset + self.length

    @property
    def buf_end(self) -> int:
        return self.buf_offset + self.length


class Piece(NamedTuple):
    """An extent in flight, tagged with the rank whose buffer it is."""

    file_offset: int
    buf_offset: int
    length: int
    rank: int


class Call(NamedTuple):
    """One backend call: file bytes ``[offset, offset+length)``, gathered
    from (write) or scattered to (read) *parts*, which tile it in order."""

    offset: int
    length: int
    parts: list


class Worker(NamedTuple):
    """Who issues backend calls in a round: an aggregator, or — collective
    buffering off — one rank on its own (``index`` is then the rank)."""

    index: int
    node: int
    #: the rank whose handle / client issues the calls
    rank: int
    #: the aggregator's file domain ``(lo, hi)``; ``None`` for a lone rank
    domain: tuple | None
    pieces: list
    calls: list


class RoundPlan(NamedTuple):
    #: two-phase (phase 1 exchanges pieces) or every rank on its own
    aggregated: bool
    workers: list


def aggregators(nodes: int, ppn: int, hints: MPIHints) -> list[tuple[int, int]]:
    """``(node, rank)`` of each aggregator, in index order: the first rank
    of the node holding the domain's first node's worth of bytes — one per
    node by default (the paper's footnote 3)."""
    count = hints.aggregator_count(nodes)
    return [(node, node * ppn) for node in (i * nodes // count for i in range(count))]


def partition_domains(lo, hi, count: int) -> list[tuple]:
    """Split ``[lo, hi)`` into *count* contiguous, near-even file domains
    (ROMIO's file-domain assignment for one round).  Integer byte counts
    split at floored bounds; fluid ones where they fall."""
    if hi <= lo:
        return [(lo, lo)] * count
    span = hi - lo
    if isinstance(span, int):
        bounds = [lo + span * i // count for i in range(count)]
    else:
        bounds = [lo + span * i / count for i in range(count)]
    bounds.append(hi)
    return list(zip(bounds, bounds[1:]))


def split_extent(extent, domains: list[tuple], starts: list | None = None) -> list[tuple]:
    """Cut one extent (or piece) along domain boundaries -> ``(domain_idx,
    part)``; the last domain takes any overhang.  *starts* is the list of
    domain start offsets (pass it to bisect one shared list for a round).
    The common case — inside one domain — returns the extent itself."""
    if starts is None:
        starts = [d[0] for d in domains]
    last = len(domains) - 1
    off, boff, length = extent[0], extent[1], extent[2]
    end = off + length
    idx = max(0, bisect_right(starts, off) - 1)
    if end <= domains[idx][1] or idx == last:
        return [(idx, extent)]
    out = []
    pos = off
    while pos < end:
        stop = end if idx == last else min(end, domains[idx][1])
        if stop > pos:
            out.append(
                (idx, extent._replace(file_offset=pos, buf_offset=boff + (pos - off), length=stop - pos))
            )
            pos = stop
        idx += 1
    return out


def file_runs(extents) -> list[tuple]:
    """File-sorted, file-contiguous runs: ``(run_offset, members)``.

    The sort is stable by file offset, so members that start together keep
    their given order (view order within a rank, rank order across ranks).
    Members that overlap start a new run: a write run is exactly the bytes
    of its members, and an overlapping read is read once per run.
    """
    runs: list[tuple] = []
    end = None
    for e in sorted((e for e in extents if e[2] > 0), key=_file_offset):
        if e[0] == end:
            runs[-1][1].append(e)
        else:
            runs.append((e[0], [e]))
        end = e[0] + e[2]
    return runs


def backend_calls(pieces, limit=None) -> list[Call]:
    """The calls that move *pieces*: each file-contiguous run, cut every
    *limit* bytes from its start (``None``: uncut) — the same for reads
    and writes."""
    calls: list[Call] = []
    for offset, members in file_runs(pieces):
        end = members[-1][0] + members[-1][2]
        parts: list = []
        for piece in members:
            while limit is not None and piece[0] + piece[2] - offset >= limit:
                cut = offset + limit
                head = cut - piece[0]
                whole = head == piece[2]
                parts.append(piece if whole else piece._replace(length=head))
                calls.append(Call(offset, limit, parts))
                parts = []
                offset = cut
                if whole:
                    break
                piece = piece._replace(
                    file_offset=cut, buf_offset=piece[1] + head, length=piece[2] - head
                )
            else:
                parts.append(piece)
        if parts:
            calls.append(Call(offset, end - offset, parts))
    return calls


def _snap(domains: list[tuple], edges: list, span) -> list[tuple]:
    """Fluid byte counts: put each interior bound that rounding left a hair
    off a piece edge on that edge, so no node pays a NIC transfer for a
    sliver of a byte the exact split would not give it."""
    bounds = [d[0] for d in domains] + [domains[-1][1]]
    tol = span * _FLUID_SNAP
    for i in range(1, len(bounds) - 1):
        j = bisect_left(edges, bounds[i])
        for edge in edges[max(j - 1, 0) : j + 1]:
            if abs(edge - bounds[i]) <= tol:
                bounds[i] = edge
    return list(zip(bounds, bounds[1:]))


def plan_round(
    extents: Mapping[int, Sequence],
    *,
    nodes: int,
    ppn: int,
    hints: MPIHints,
    write: bool,
) -> RoundPlan:
    """Plan one collective round.

    *extents* maps rank -> the rank's ``(file_offset, buf_offset, length)``
    extents for the round (ranks are placed block-wise, ``ppn`` per node).
    Collective buffering in the round's direction (``romio_cb_write`` for a
    write) gives one :class:`Worker` per aggregator, owning an even file
    domain of the touched range, its pieces tagged with their source rank,
    and its calls cut at ``cb_buffer_size``; off, one worker per rank with
    that rank's own runs.  A round with no bytes has no workers.
    """
    if not (hints.romio_cb_write if write else hints.romio_cb_read):
        workers = []
        for rank in sorted(extents):
            pieces = [Piece(e[0], e[1], e[2], rank) for e in extents[rank] if e[2] > 0]
            if pieces:
                workers.append(
                    Worker(rank, rank // ppn, rank, None, pieces, backend_calls(pieces))
                )
        return RoundPlan(False, workers)

    live = [e for rank_extents in extents.values() for e in rank_extents if e[2] > 0]
    if not live:
        return RoundPlan(True, [])
    lo = min(e[0] for e in live)
    hi = max(e[0] + e[2] for e in live)
    placed = aggregators(nodes, ppn, hints)
    domains = partition_domains(lo, hi, len(placed))
    limit = hints.cb_buffer_size
    if isinstance(hi - lo, int):
        limit = max(1, int(limit))
    else:
        domains = _snap(domains, sorted(e[0] for e in live), hi - lo)
    starts = [d[0] for d in domains]
    last = len(domains) - 1
    owned: list[list] = [[] for _ in domains]
    for rank in sorted(extents):
        for off, boff, length in extents[rank]:
            if length <= 0:
                continue
            piece = Piece(off, boff, length, rank)
            idx = bisect_right(starts, off) - 1
            if idx < 0:
                idx = 0
            if off + length <= domains[idx][1] or idx == last:
                owned[idx].append(piece)  # the common case: inside one domain
            else:
                for didx, part in split_extent(piece, domains, starts):
                    owned[didx].append(part)
    return RoundPlan(True, [
        Worker(i, node, rank, domain, pieces, backend_calls(pieces, limit))
        for i, ((node, rank), domain, pieces) in enumerate(zip(placed, domains, owned))
    ])
