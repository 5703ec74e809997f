"""List I/O + data sieving: independent noncontiguous access, real bytes.

The two classical answers to a noncontiguous request from *one* rank
(Thakur et al. §3; Ching et al.):

list I/O
    Flatten the view, group into file-contiguous runs, and move each run
    with one vectored call — ``plfs_writev`` gathers the run's buffer
    slices into a single append + one (merged) index record, and one
    ``plfs_read`` per run feeds the scatter.  This is the default: PLFS
    appends make strided *writes* cheap regardless of the logical stride.

data sieving (``romio_ds_write`` / ``romio_ds_read``)
    Read one covering extent (holes included), modify/scatter in memory,
    and for writes put the whole block back — two large operations
    instead of many small strided ones, "at the expense of" moving the
    hole bytes too.  Worthwhile only when the holes are a bounded
    fraction of the span, so sieving gates on a gap budget derived from
    the run itself and never exceeds ``cb_buffer_size`` of staging
    memory.

Counters land in the *stats* dict the caller threads through (the
collective engine aggregates them into its insights export).
"""

from __future__ import annotations

from repro.mpiio.plan import file_runs
from repro.plfs import api as plfs_api

from .datatype import Extent, FileView, coalesce, covering_runs

#: sieve only when hole bytes are at most this fraction of the covering span
SIEVE_MAX_GAP_FRACTION = 0.5


def _count(stats: dict | None, key: str, delta: int = 1) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + delta


def _sieve_worthwhile(lo: int, hi: int, members: list[Extent], limit: int) -> bool:
    span = hi - lo
    if span > limit or len(members) < 2:
        return False
    data_bytes = sum(e.length for e in members)
    return span - data_bytes <= span * SIEVE_MAX_GAP_FRACTION


def list_write(fd, view: FileView, data, *, position: int = 0, **options) -> int:
    """Write *data* through *view* starting at view byte *position*
    (*options* as for :func:`write_extents`)."""
    extents = coalesce(view.extents(memoryview(data).nbytes, position=position))
    return write_extents(fd, extents, data, **options)


def write_extents(
    fd,
    extents: list[Extent],
    data,
    *,
    pid: int | None = None,
    ds_write: bool = False,
    buffer_limit: int = 16 * 1024 * 1024,
    stats: dict | None = None,
) -> int:
    """Write *data* to the file extents of its flattened view.

    Returns bytes written.  With *ds_write* the strided runs that fit the
    sieve budget go down as read-modify-write of one covering extent;
    everything else takes the vectored list-I/O path.
    """
    payload = memoryview(data)
    if payload.itemsize != 1:
        payload = payload.cast("B")
    _count(stats, "member_extents", len(extents))
    total = 0
    max_gap = buffer_limit if ds_write else 0
    for lo, hi, members in covering_runs(extents, max_gap):
        if ds_write and _sieve_worthwhile(lo, hi, members, buffer_limit):
            span = hi - lo
            base = bytearray(span)
            existing = plfs_api.plfs_read(fd, span, lo)
            base[: len(existing)] = existing
            for e in members:
                base[e.file_offset - lo : e.file_end - lo] = payload[
                    e.buf_offset : e.buf_end
                ]
            total += plfs_api.plfs_write(fd, base, span, lo, pid=pid) - (
                span - sum(e.length for e in members)
            )
            _count(stats, "sieve_hits")
            _count(stats, "sieve_read_bytes", len(existing))
            _count(stats, "listio_backend_calls", 2)
            continue
        for run_off, run_members in file_runs(members):
            total += plfs_api.plfs_writev(
                fd,
                [payload[e.buf_offset : e.buf_end] for e in run_members],
                run_off,
                pid=pid,
            )
            _count(stats, "listio_runs")
            _count(stats, "listio_backend_calls")
    return total


def list_read(fd, view: FileView, nbytes: int, *, position: int = 0, **options) -> bytes:
    """Read *nbytes* through *view* starting at view byte *position*
    (*options* as for :func:`read_extents`)."""
    extents = coalesce(view.extents(nbytes, position=position))
    return read_extents(fd, extents, nbytes, **options)


def read_extents(
    fd,
    extents: list[Extent],
    nbytes: int,
    *,
    ds_read: bool = False,
    buffer_limit: int = 16 * 1024 * 1024,
    stats: dict | None = None,
) -> bytes:
    """Read the *nbytes* a flattened view maps to its file extents.

    Returns exactly *nbytes* bytes (zero-filled past EOF, like reading a
    hole).  With *ds_read* strided runs within the sieve budget issue one
    covering read and scatter from it; otherwise each file-contiguous run
    is one ``plfs_read``.
    """
    _count(stats, "member_extents", len(extents))
    out = bytearray(nbytes)
    max_gap = buffer_limit if ds_read else 0
    for lo, hi, members in covering_runs(extents, max_gap):
        if ds_read and _sieve_worthwhile(lo, hi, members, buffer_limit):
            block = plfs_api.plfs_read(fd, hi - lo, lo)
            for e in members:
                piece = block[e.file_offset - lo : e.file_end - lo]
                out[e.buf_offset : e.buf_offset + len(piece)] = piece
            _count(stats, "sieve_hits")
            _count(stats, "sieve_read_bytes", len(block))
            _count(stats, "listio_backend_calls")
            continue
        for run_off, run_members in file_runs(members):
            run_len = sum(e.length for e in run_members)
            block = plfs_api.plfs_read(fd, run_len, run_off)
            pos = 0
            for e in run_members:
                piece = block[pos : pos + e.length]
                out[e.buf_offset : e.buf_offset + len(piece)] = piece
                pos += e.length
            _count(stats, "listio_runs")
            _count(stats, "listio_backend_calls")
    return bytes(out)
