"""Datatype / file-view flattening: noncontiguous access as extent lists.

MPI applications describe noncontiguous file layouts with derived
datatypes; ROMIO flattens a datatype into an ``(offset, length)`` list
and drives every optimisation — list I/O, data sieving, two-phase
collective buffering — off that flat form (Thakur et al., "Optimizing
Noncontiguous Accesses in MPI-IO"; Ching et al., "Noncontiguous I/O
through PVFS").  This module is that flat form for the real PLFS path:

- a :class:`FileView` maps a contiguous span of a rank's *buffer* onto
  file offsets, producing :class:`~repro.mpiio.plan.Extent` triples
  ``(file_offset, buf_offset, length)``;
- :func:`coalesce` merges extents that are contiguous in both the file
  and the buffer (the unit the vectored fast path wants);
- :func:`covering_runs` groups extents into covering spans that tolerate
  bounded gaps — what a data-sieving read/modify/write operates on.  The
  gap-free runs every backend call is made of are the plan's
  (:func:`repro.mpiio.plan.file_runs`).

Everything here is pure bookkeeping: no I/O, no state, so both the
independent list-I/O path and the two-phase engine share it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpiio.plan import Extent


class FileView:
    """Base file view: where view byte *v* lives in the file.

    Subclasses implement :meth:`extents`; *position* is the view-relative
    byte the transfer starts at (MPI's file-view position, advanced by
    each data call), so repeated collective rounds continue where the
    last one stopped.
    """

    def extents(self, nbytes: int, *, position: int = 0) -> list[Extent]:
        raise NotImplementedError


@dataclass(frozen=True)
class ContiguousView(FileView):
    """The trivial view: view byte v -> file byte displacement + v."""

    displacement: int = 0

    def extents(self, nbytes: int, *, position: int = 0) -> list[Extent]:
        if nbytes <= 0:
            return []
        return [Extent(self.displacement + position, 0, nbytes)]


@dataclass(frozen=True)
class StridedView(FileView):
    """A vector view: blocks of *block* bytes placed *stride* apart.

    View byte v falls in tile ``v // block`` at file offset
    ``displacement + tile * stride + (v % block)`` — the interleaved
    layout a rank sees when R ranks share a file record-wise
    (rank r's view: ``displacement = r * block``, ``stride = R * block``).
    """

    displacement: int
    block: int
    stride: int

    def __post_init__(self):
        if self.block <= 0:
            raise ValueError("block must be positive")
        if self.stride < self.block:
            raise ValueError("stride must be >= block (tiles cannot overlap)")

    def extents(self, nbytes: int, *, position: int = 0) -> list[Extent]:
        out: list[Extent] = []
        buf_off = 0
        v = position
        remaining = nbytes
        while remaining > 0:
            tile, within = divmod(v, self.block)
            take = min(self.block - within, remaining)
            out.append(
                Extent(self.displacement + tile * self.stride + within, buf_off, take)
            )
            buf_off += take
            v += take
            remaining -= take
        return out


@dataclass(frozen=True)
class IrregularView(FileView):
    """An explicit tile list (hindexed datatype), repeated cyclically.

    *tiles* are ``(file_offset, length)`` pairs relative to
    *displacement*, in view order; one cycle spans *extent* file bytes
    (default: past the last tile), so cycle *c*'s tiles shift by
    ``c * extent``.
    """

    tiles: tuple[tuple[int, int], ...]
    displacement: int = 0
    extent: int | None = None

    def __post_init__(self):
        if not self.tiles:
            raise ValueError("IrregularView needs at least one tile")
        for off, length in self.tiles:
            if length <= 0 or off < 0:
                raise ValueError("tiles must have positive length and offset >= 0")

    def _cycle_extent(self) -> int:
        if self.extent is not None:
            return self.extent
        return max(off + length for off, length in self.tiles)

    def extents(self, nbytes: int, *, position: int = 0) -> list[Extent]:
        cycle_bytes = sum(length for _, length in self.tiles)
        cycle_span = self._cycle_extent()
        out: list[Extent] = []
        buf_off = 0
        v = position
        remaining = nbytes
        while remaining > 0:
            cycle, within = divmod(v, cycle_bytes)
            for off, length in self.tiles:
                if within >= length:
                    within -= length
                    continue
                take = min(length - within, remaining)
                out.append(
                    Extent(
                        self.displacement + cycle * cycle_span + off + within,
                        buf_off,
                        take,
                    )
                )
                buf_off += take
                v += take
                remaining -= take
                within = 0
                if remaining <= 0:
                    break
        return out


# ---------------------------------------------------------------------- #
# extent algebra
# ---------------------------------------------------------------------- #


def coalesce(extents: list[Extent]) -> list[Extent]:
    """Merge neighbours contiguous in both file and buffer (view order).

    The flattened form of a mostly-contiguous view collapses back to few
    extents, so downstream work scales with real fragmentation, not with
    datatype verbosity.
    """
    out: list[Extent] = []
    for e in extents:
        # indexed access, not properties: one pass per extent on the
        # collective hot path
        length = e[2]
        if length <= 0:
            continue
        if out:
            prev = out[-1]
            if prev[0] + prev[2] == e[0] and prev[1] + prev[2] == e[1]:
                out[-1] = Extent(prev[0], prev[1], prev[2] + length)
                continue
        out.append(e)
    return out


def covering_runs(
    extents: list[Extent], max_gap: int
) -> list[tuple[int, int, list[Extent]]]:
    """Gap-tolerant covering runs: ``(lo, hi, members)`` where file holes
    up to *max_gap* bytes are swallowed into the covering span — the
    extents one data-sieving read-modify-write (or sieved read) covers.
    """
    ordered = sorted(
        (e for e in extents if e.length > 0),
        key=lambda e: (e.file_offset, e.buf_offset),
    )
    runs: list[tuple[int, int, list[Extent]]] = []
    for e in ordered:
        if runs:
            lo, hi, members = runs[-1]
            if e.file_offset - hi <= max_gap:
                runs[-1] = (lo, max(hi, e.file_end), members + [e])
                continue
        runs.append((e.file_offset, e.file_end, [e]))
    return runs


def interleaved_view(rank: int, ranks: int, record_bytes: int, *, displacement: int = 0) -> StridedView:
    """The canonical shared-file layout: R ranks round-robin over
    *record_bytes* records.  Rank r owns records ``r, r+R, r+2R, ...``."""
    if not 0 <= rank < ranks:
        raise ValueError(f"rank {rank} outside communicator of {ranks}")
    return StridedView(
        displacement=displacement + rank * record_bytes,
        block=record_bytes,
        stride=ranks * record_bytes,
    )
