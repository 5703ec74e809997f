"""PLFS index records, droppings and the global (flattened) index.

Every write into a PLFS container appends the payload to a *data dropping*
and one fixed-size record to the sibling *index dropping*.  A record maps a
logical extent of the file onto a physical extent of one data dropping:

    [logical_offset, logical_offset + length)
        -> data dropping ``dropping`` at [physical_offset, physical_offset + length)

Reads require the *global index*: the union of all records from all index
droppings, with overlaps resolved in favour of the most recent write (by the
record's completion timestamp).  This module stores records as a NumPy
structured array and the flattened index as four sorted int64 columns
(starts, ends, droppings, physical offsets): a batch of records becomes
those columns with one stable sort (Thakur et al.'s flattened offset/length
lists) and compaction packs them field by field.  Only a batch that is
observed to overlap is resolved by the :class:`ExtentMap` sweep, whose
result is frozen straight back into columns.  Range queries ``bisect`` over
``memoryview``s of the columns, never NumPy: a read plans one window at a
time, and array machinery costs more than the lookup it would vectorise.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from . import constants
from .errors import CorruptIndexError
from .route import posix

#: On-disk/in-memory layout of one index record.  ``dropping`` is the id of
#: the data dropping *within one index dropping's scope* when on disk (always
#: 0 today: one index dropping describes exactly one data dropping, as in
#: PLFS); after loading, it is rewritten to a global dropping id.
INDEX_DTYPE = np.dtype(
    [
        ("logical_offset", "<u8"),
        ("physical_offset", "<u8"),
        ("length", "<u8"),
        ("dropping", "<i8"),
        ("pid", "<i8"),
        ("timestamp", "<f8"),
    ]
)

RECORD_SIZE = INDEX_DTYPE.itemsize


def pack_records(records: np.ndarray) -> bytes:
    """Serialise a structured record array to the on-disk byte format."""
    if records.dtype != INDEX_DTYPE:
        records = records.astype(INDEX_DTYPE)
    return records.tobytes()


def parse_records(data: bytes, *, source: str = "<memory>") -> np.ndarray:
    """Parse raw index dropping bytes into a structured record array.

    Raises :class:`CorruptIndexError` if the byte count is not a whole number
    of records.
    """
    if len(data) % RECORD_SIZE:
        raise CorruptIndexError(
            f"index dropping {source} is {len(data)} bytes, "
            f"not a multiple of the {RECORD_SIZE}-byte record size"
        )
    # Copy so the result owns its memory (the input buffer may be mmapped or
    # reused by the caller).
    return np.frombuffer(data, dtype=INDEX_DTYPE).copy()


def split_torn(data: bytes) -> tuple[np.ndarray, int]:
    """Parse as many whole records as *data* holds, tolerating a torn tail.

    A crash mid-flush (or mid-WAL-append) leaves an index dropping whose
    byte count is not a multiple of the record size; the prefix of whole
    records is still sound because records are appended atomically in
    memory and sequentially on disk.  Returns ``(records, torn_bytes)``
    where *torn_bytes* is the length of the discarded partial tail.
    """
    torn = len(data) % RECORD_SIZE
    whole = data[: len(data) - torn] if torn else data
    return np.frombuffer(whole, dtype=INDEX_DTYPE).copy(), torn


def clip_to_physical(records: np.ndarray, data_size: int) -> tuple[np.ndarray, int]:
    """Clip *records* to the bytes a data dropping actually holds.

    Recovery reconciliation: a record (from a WAL or an index dropping)
    may promise bytes past the end of its data dropping — the write was
    torn, or never happened before the crash.  Records are physically
    sequential within one dropping, so each record's true extent is
    bounded below by the next record's start and by *data_size*.  Returns
    ``(clipped_records, lost_bytes)`` where *lost_bytes* counts promised
    bytes that never reached the dropping.
    """
    if records.shape[0] == 0:
        return records, 0
    out = records.copy()
    lost = 0
    keep = np.ones(out.shape[0], dtype=bool)
    for i in range(out.shape[0]):
        start = int(out[i]["physical_offset"])
        promised = int(out[i]["length"])
        if i + 1 < out.shape[0]:
            bound = min(int(out[i + 1]["physical_offset"]), data_size)
        else:
            bound = data_size
        actual = max(0, min(promised, bound - start))
        if actual < promised:
            lost += promised - actual
        if actual == 0:
            keep[i] = False
        else:
            out[i]["length"] = actual
    return out[keep], lost


def read_index_dropping(path: str, size: int = -1) -> np.ndarray:
    """Read and parse one index dropping file (its first *size* bytes,
    when the caller's ``stat`` vouches for exactly that many)."""
    with posix.builtins_open(path, "rb") as fh:
        return parse_records(fh.read(size), source=path)


class ReadSlice(NamedTuple):
    """One contiguous piece of a read plan.

    ``dropping`` is a global data-dropping id, or :data:`constants.HOLE` for
    a region no write ever covered (reads back as zeros).  A tuple: a scan
    plans hundreds per read, and tuples build, unpack and sort in C.
    """

    logical_offset: int
    length: int
    dropping: int
    physical_offset: int


class ExtentMap:
    """Ordered map of non-overlapping logical extents.

    Supports "assign" semantics: inserting an extent overwrites any part of
    older extents it overlaps, splitting them as needed — exactly the
    resolution rule of the PLFS global index (later writes shadow earlier
    ones).  Backed by three parallel Python lists kept sorted by start
    offset; inserts are O(log n + k) for k displaced segments.
    :class:`GlobalIndex` sweeps only overlapping batches through it; the
    tests hold every index build against it.
    """

    __slots__ = ("_starts", "_ends", "_payloads")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        # payload = (dropping, physical_offset at segment start)
        self._payloads: list[tuple[int, int]] = []

    @classmethod
    def from_arrays(cls, starts, ends, droppings, physical_offsets) -> "ExtentMap":
        """Inverse of :meth:`as_arrays`; the caller guarantees the segments
        are sorted and non-overlapping."""
        m = cls()
        m._starts, m._ends = starts.tolist(), ends.tolist()
        m._payloads = list(zip(droppings.tolist(), physical_offsets.tolist()))
        return m

    def __len__(self) -> int:
        return len(self._starts)

    def assign(self, start: int, end: int, dropping: int, physical_offset: int) -> None:
        """Map [start, end) to *dropping* at *physical_offset*, shadowing
        whatever was there before."""
        if end <= start:
            return
        starts, ends, payloads = self._starts, self._ends, self._payloads

        # Find the window of existing segments that overlap [start, end).
        # First segment whose end is > start:
        lo = bisect_right(ends, start)
        # First segment whose start is >= end:
        hi = bisect_left(starts, end, lo=lo)

        replacement_starts: list[int] = []
        replacement_ends: list[int] = []
        replacement_payloads: list[tuple[int, int]] = []

        if lo < hi:
            # Left fragment of the first overlapped segment survives.
            if starts[lo] < start:
                replacement_starts.append(starts[lo])
                replacement_ends.append(start)
                replacement_payloads.append(payloads[lo])
            # Right fragment of the last overlapped segment survives, with
            # its physical offset advanced by the clipped amount.
            last = hi - 1
            if ends[last] > end:
                drop, phys = payloads[last]
                replacement_starts.append(end)
                replacement_ends.append(ends[last])
                replacement_payloads.append((drop, phys + (end - starts[last])))

        # Insert the new segment in order.
        insert_at = len(replacement_starts) - (1 if replacement_starts and replacement_starts[-1] == end else 0)
        replacement_starts.insert(insert_at, start)
        replacement_ends.insert(insert_at, end)
        replacement_payloads.insert(insert_at, (dropping, physical_offset))

        starts[lo:hi] = replacement_starts
        ends[lo:hi] = replacement_ends
        payloads[lo:hi] = replacement_payloads

    def extent_end(self) -> int:
        """Logical size implied by the map (end of the last extent)."""
        return self._ends[-1] if self._ends else 0

    def segments(self) -> list[tuple[int, int, int, int]]:
        """All segments as (start, end, dropping, physical_offset) tuples."""
        return [
            (s, e, p[0], p[1])
            for s, e, p in zip(self._starts, self._ends, self._payloads)
        ]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Segments as parallel NumPy arrays (starts, ends, droppings, phys)."""
        n = len(self._starts)
        starts = np.fromiter(self._starts, dtype=np.int64, count=n)
        ends = np.fromiter(self._ends, dtype=np.int64, count=n)
        drops = np.fromiter((p[0] for p in self._payloads), dtype=np.int64, count=n)
        phys = np.fromiter((p[1] for p in self._payloads), dtype=np.int64, count=n)
        return starts, ends, drops, phys


#: (starts, ends, droppings, physical_offsets): parallel int64 columns
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_NO_SEGMENTS: Columns = (np.empty(0, dtype=np.int64),) * 4
_SEGMENT_FIELDS = ("logical_offset", "length", "dropping", "physical_offset")


class GlobalIndex:
    """The flattened, queryable index of one logical PLFS file.

    Built from any number of record arrays (one per index dropping, plus any
    not-yet-flushed in-memory records of open writers).  Its whole state is
    the sorted, non-overlapping segments as four int64 columns; later
    records shadow earlier ones (by timestamp) wherever a batch overlaps.
    """

    def __init__(self, record_arrays: list[np.ndarray] | None = None):
        self._bind(_NO_SEGMENTS)
        if record_arrays:
            self.add_records(np.concatenate(record_arrays) if len(record_arrays) > 1 else record_arrays[0])

    def _bind(self, cols: Columns) -> None:
        """The one place the columns are (re)bound: :meth:`query`'s views
        of them go in the same breath (and are made again on first use)."""
        self._cols = cols
        self._views: tuple[memoryview, ...] | None = None
        self._last_hit = 0

    @classmethod
    def from_flat_segments(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        droppings: np.ndarray,
        physical_offsets: np.ndarray,
    ) -> "GlobalIndex":
        """Build directly from already-flattened, sorted, non-overlapping
        segments (a compacted global index), skipping the merge.

        The caller guarantees the invariants the merge would otherwise
        establish; nothing here re-checks them beyond monotonicity.
        """
        idx = cls()
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        droppings = np.asarray(droppings, dtype=np.int64)
        physical_offsets = np.asarray(physical_offsets, dtype=np.int64)
        if starts.size and (
            np.any(starts[1:] < ends[:-1]) or np.any(ends <= starts)
        ):
            raise CorruptIndexError(
                "compacted segments are not sorted and non-overlapping"
            )
        idx._bind((starts, ends, droppings, physical_offsets))
        return idx

    def add_records(self, records: np.ndarray) -> None:
        """Merge *records* (with global dropping ids) into the index.

        Sorted by logical start, a batch whose extents turn out disjoint —
        from each other and from the segments already held — *is* the
        flattened index, whatever its timestamps.  Any observed overlap is
        resolved by the :class:`ExtentMap` sweep instead.
        """
        if records.size == 0:
            return
        cols = self._merge(records)
        self._bind(self._sweep(records) if cols is None else cols)

    def extended(self, records: np.ndarray) -> "GlobalIndex | None":
        """A *new* index of these segments plus *records* — this one is
        published (other handles hold it) and is never mutated.  None on
        any overlap: flattened segments have no timestamps left to resolve
        one with, so the sweep is no fallback here and the caller rebuilds
        from the droppings."""
        cols = self._merge(records) if records.size else self._cols
        if cols is None:
            return None
        index = GlobalIndex()
        index._bind(cols)
        return index

    def _merge(self, records: np.ndarray) -> Columns | None:
        """The build kernel: the held segments and *records* as one set of
        sorted columns, or None when it observes two extents overlap."""
        # Unsigned fields reinterpreted, not converted: the same wrap as
        # ``astype(int64)`` without a temporary per column.
        lo, ln, dr, po = (records[name].view(np.int64) for name in _SEGMENT_FIELDS)
        cols = (lo, lo + ln, dr, po)
        held = self._cols
        # A batch that sorts past everything held (a log being followed) is
        # sorted alone and concatenated; anything else sorts with the held.
        past = bool(held[0].size) and lo.min() >= held[1][-1]
        if held[0].size and not past:
            cols = tuple(np.concatenate(pair) for pair in zip(held, cols))
        # One argsort, one gather per column.  Gathering the struct array
        # whole, or converting every column before the sort, doubles the
        # mid-sized temporaries of each rebuild, and the allocator fragments
        # over them (peak RSS).  A lone record (a one-write file) is in order.
        order = np.argsort(cols[0], kind="stable") if cols[0].size > 1 else [0]
        cols = tuple(col[order] for col in cols)
        live = cols[1] > cols[0]
        if not live.all():
            cols = tuple(col[live] for col in cols)
        if not (cols[0][1:] >= cols[1][:-1]).all():
            return None
        if past:
            cols = tuple(np.concatenate(pair) for pair in zip(held, cols))
        return cols

    def _sweep(self, records: np.ndarray) -> Columns:
        """The overlap fallback: assign *records* over the held segments in
        completion order, so later writes shadow earlier ones."""
        extents = ExtentMap.from_arrays(*self._cols)
        # kind="stable" preserves the append order of records with equal
        # timestamps from one dropping.
        order = np.argsort(records["timestamp"], kind="stable")
        lo, ln, dr, po = (records[name].view(np.int64)[order] for name in _SEGMENT_FIELDS)
        for extent in zip(lo.tolist(), (lo + ln).tolist(), dr.tolist(), po.tolist()):
            extents.assign(*extent)
        return extents.as_arrays()

    def as_arrays(self) -> Columns:
        """The flattened segments as parallel columns (shared, read-only
        by convention: compaction and the tools compute on them in bulk)."""
        return self._cols

    @property
    def logical_size(self) -> int:
        """Size of the logical file: one past the last written byte."""
        ends = self._cols[1]
        return int(ends[-1]) if ends.size else 0

    def __len__(self) -> int:
        return self._cols[0].size

    def query(self, offset: int, length: int) -> list[ReadSlice]:
        """Plan a read of [offset, offset+length).

        Returns contiguous :class:`ReadSlice` pieces covering the requested
        range up to the logical file size; regions never written are returned
        as holes.  The plan never extends past ``logical_size`` (a read at or
        beyond EOF returns an empty plan, mirroring ``read(2)``).
        One array-free algorithm for every window size: ``bisect`` over the
        columns' memoryviews, then a walk of the window's segments by index.
        """
        if self._views is None:
            self._views = tuple(map(memoryview, self._cols))
        starts, ends, drops, phys = self._views
        n = len(ends)
        if length <= 0 or not n:
            return []
        end = min(offset + length, ends[n - 1])
        if end <= offset:
            return []
        # First segment ending past offset: where the previous plan ended
        # (a sequential reader is still inside it), else by bisection.
        lo = self._last_hit
        if lo >= n or not starts[lo] <= offset < ends[lo]:
            lo = bisect_right(ends, offset)
        s = starts[lo]
        if s <= offset and end <= ends[lo]:
            self._last_hit = lo
            return [ReadSlice(offset, end - offset, drops[lo], phys[lo] + offset - s)]
        plan: list[ReadSlice] = []
        pos, k = offset, lo
        while k < n:
            s = starts[k]
            if s >= end:
                break
            e, p = ends[k], phys[k]
            if s < pos:  # only the first segment can start before the window
                p += pos - s
                s = pos
            elif s > pos:
                plan.append(ReadSlice(pos, s - pos, constants.HOLE, 0))
            if e > end:  # only the last one can end past it
                e = end
            plan.append(ReadSlice(s, e - s, drops[k], p))
            pos = e
            k += 1
        self._last_hit = max(lo, k - 1)
        if pos < end:
            plan.append(ReadSlice(pos, end - pos, constants.HOLE, 0))
        return plan

    def segments(self) -> list[tuple[int, int, int, int]]:
        """The flattened extents as (start, end, dropping, physical_offset)
        tuples — a view of :meth:`as_arrays` for inspection."""
        return list(zip(*(col.tolist() for col in self._cols)))


def load_global_index(
    droppings: list[tuple[str, str]],
    sizes: list[int] | None = None,
) -> tuple[GlobalIndex, list[str]]:
    """Build a :class:`GlobalIndex` from container droppings.

    ``droppings`` is a list of (index_path, data_path) pairs; ``data_path``
    receives global dropping id = its position in the returned list.
    ``sizes[i]``, when given, is how much of dropping
    *i*'s index to read: what the caller's epoch vouches for, so the index
    holds exactly those bytes and a flush landing meanwhile is the next
    epoch's to see.

    Returns (index, data_paths) where ``data_paths[i]`` is the file to pread
    for slices with ``dropping == i``.
    """
    arrays: list[np.ndarray] = []
    data_paths: list[str] = []
    for global_id, (index_path, data_path) in enumerate(droppings):
        data_paths.append(data_path)
        try:
            recs = read_index_dropping(index_path, -1 if sizes is None else sizes[global_id])
        except FileNotFoundError:
            # No index dropping (yet, or any more): the data dropping keeps
            # its id, it just contributes no records.
            continue
        if recs.size:
            recs["dropping"] = global_id
            arrays.append(recs)
    return GlobalIndex(arrays), data_paths


# ---------------------------------------------------------------------- #
# persistent compacted global index
# ---------------------------------------------------------------------- #

def pack_compacted(
    segments: Columns,
    data_paths: list[str],
    epoch: str,
    logical_size: int,
) -> bytes:
    """Serialise a flattened global index to the ``global.index`` format.

    Layout: one JSON header line (magic, version, container epoch, record
    count, data-dropping paths relative to the container root, logical
    size), then ``records`` packed :data:`INDEX_DTYPE` entries holding the
    non-overlapping *segments* (the columns of :meth:`GlobalIndex.as_arrays`)
    sorted by logical offset.  ``pid`` and ``timestamp`` are zeroed: a
    compacted index has no recency to resolve.
    """
    recs = segment_records(segments)
    header = json.dumps(
        {
            "magic": constants.GLOBAL_INDEX_MAGIC,
            "version": constants.GLOBAL_INDEX_VERSION,
            "epoch": epoch,
            "records": len(recs),
            "data_paths": list(data_paths),
            "logical_size": logical_size,
        },
        sort_keys=True,
    )
    return header.encode() + b"\n" + pack_records(recs)


def parse_compacted(
    data: bytes, *, source: str = "<memory>"
) -> tuple[np.ndarray, list[str], str, int]:
    """Parse a compacted global index; the inverse of :func:`pack_compacted`.

    Returns ``(records, data_paths, epoch, logical_size)``.  Raises
    :class:`CorruptIndexError` on any malformation — callers treat that as
    "no compacted index" and fall back to merging droppings.
    """
    head, sep, body = data.partition(b"\n")
    if not sep:
        raise CorruptIndexError(f"compacted index {source}: missing header")
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptIndexError(
            f"compacted index {source}: unparsable header ({exc})"
        ) from None
    if (
        not isinstance(header, dict)
        or header.get("magic") != constants.GLOBAL_INDEX_MAGIC
        or header.get("version") != constants.GLOBAL_INDEX_VERSION
    ):
        raise CorruptIndexError(
            f"compacted index {source}: bad magic or unsupported version"
        )
    count = header.get("records")
    paths = header.get("data_paths")
    epoch = header.get("epoch")
    size = header.get("logical_size", 0)
    if (
        not isinstance(count, int)
        or not isinstance(paths, list)
        or not all(isinstance(p, str) for p in paths)
        or not isinstance(epoch, str)
        or not isinstance(size, int)
    ):
        raise CorruptIndexError(f"compacted index {source}: malformed header")
    if len(body) != count * RECORD_SIZE:
        raise CorruptIndexError(
            f"compacted index {source}: body is {len(body)} bytes, "
            f"expected {count} records of {RECORD_SIZE} bytes"
        )
    records = parse_records(body, source=source)
    if records.size and int(records["dropping"].max()) >= len(paths):
        raise CorruptIndexError(
            f"compacted index {source}: record references a dropping id "
            "past the data-path table"
        )
    return records, paths, epoch, size


def index_from_compacted(records: np.ndarray) -> GlobalIndex:
    """Rehydrate a :class:`GlobalIndex` from compacted records."""
    starts = records["logical_offset"].astype(np.int64)
    ends = starts + records["length"].astype(np.int64)
    return GlobalIndex.from_flat_segments(
        starts, ends, records["dropping"].astype(np.int64),
        records["physical_offset"].astype(np.int64),
    )


def segment_records(segments: Columns) -> np.ndarray:
    """Flattened segment columns as :data:`INDEX_DTYPE` records (``pid``
    and ``timestamp`` zero); the inverse of :func:`index_from_compacted`."""
    starts, ends, droppings, physical_offsets = segments
    recs = np.zeros(starts.size, dtype=INDEX_DTYPE)
    recs["logical_offset"] = starts
    recs["length"] = ends - starts
    recs["dropping"] = droppings
    recs["physical_offset"] = physical_offsets
    return recs


def make_record(
    logical_offset: int,
    physical_offset: int,
    length: int,
    pid: int,
    timestamp: float,
    dropping: int = 0,
) -> np.ndarray:
    """Build a single-record array (convenience for writers and tests)."""
    rec = np.zeros(1, dtype=INDEX_DTYPE)
    rec["logical_offset"] = logical_offset
    rec["physical_offset"] = physical_offset
    rec["length"] = length
    rec["dropping"] = dropping
    rec["pid"] = pid
    rec["timestamp"] = timestamp
    return rec
