"""PLFS index records, droppings and the global (flattened) index.

Every write into a PLFS container appends the payload to a *data dropping*
and one fixed-size record to the sibling *index dropping*.  A record maps a
logical extent of the file onto a physical extent of one data dropping:

    [logical_offset, logical_offset + length)
        -> data dropping ``dropping`` at [physical_offset, physical_offset + length)

Reads require the *global index*: the union of all records from all index
droppings, with overlaps resolved in favour of the most recent write (by the
record's completion timestamp).  A record is one :data:`RECORD` row, and a
batch of records is their packed bytes back to back: the same bytes in an
index dropping, a writer's flush and ``global.index``.  The flattened index
is four ``array('q')`` columns sorted by start — starts, lengths,
droppings, physical offsets, four of a record's own fields — so a batch
becomes columns by strided slicing, put in order by start (Thakur et al.'s
flattened offset/length lists), and compaction turns columns back into rows
by strided assignment.  Only a batch that is observed to overlap is
resolved by the :class:`ExtentMap` sweep, whose result is frozen straight
back into columns.  Range queries ``bisect`` the starts: a read plans one
window at a time.  The module needs nothing outside the standard library,
because every process that loads the shim loads it (DESIGN §5 decisions 4
and 25).
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from itertools import compress, islice
from operator import add, ge, gt, itemgetter, sub
from typing import NamedTuple

from . import constants
from .errors import CorruptIndexError
from .route import posix

#: On-disk/in-memory layout of one index record: logical offset, physical
#: offset and length (unsigned), dropping and pid (signed), completion
#: timestamp.  ``dropping`` is the id of the data dropping *within one index
#: dropping's scope* when on disk (always 0 today: one index dropping
#: describes exactly one data dropping, as in PLFS); after loading, it is
#: rewritten to a global dropping id.
RECORD = struct.Struct("<QQQqqd")

RECORD_SIZE = RECORD.size


class Record(NamedTuple):
    """One unpacked :data:`RECORD` row, for repair, tools and tests; the
    index build reads columns and never makes one."""

    logical_offset: int
    physical_offset: int
    length: int
    dropping: int
    pid: int
    timestamp: float


# A record is six 8-byte words; field f of every record in a batch is
# ``words[f::_WORDS]``.
_LOGICAL, _PHYSICAL, _LENGTH, _DROPPING, _PID, _TIMESTAMP = range(6)
_WORDS = RECORD_SIZE // 8
_SWAP = sys.byteorder != "little"  # RECORD is little-endian, arrays are native


def _words(records, typecode: str = "q") -> array:
    """Packed *records* as one flat array of their words.  The unsigned
    fields read signed: a length past 2**63 is negative, as on any signed
    view of the same bytes."""
    words = array(typecode)
    words.frombytes(records)
    if _SWAP:
        words.byteswap()
    return words


def _packed(words: array) -> bytes:
    """The inverse of :func:`_words`."""
    if _SWAP:
        words = array(words.typecode, words)
        words.byteswap()
    return words.tobytes()


def pack_records(rows: Iterable[Sequence]) -> bytes:
    """Pack (logical_offset, physical_offset, length, dropping, pid,
    timestamp) rows — :class:`Record` or plain tuples — into the
    on-disk byte format."""
    pack = RECORD.pack
    return b"".join([pack(*row) for row in rows])


def unpack_records(records) -> list[Record]:
    """Packed *records* as :class:`Record` rows; the inverse of
    :func:`pack_records`."""
    return list(map(Record._make, RECORD.iter_unpack(records)))


def parse_records(data, *, source: str = "<memory>") -> bytes:
    """Check raw index dropping bytes and return them as a record batch.

    Raises :class:`CorruptIndexError` if the byte count is not a whole number
    of records.
    """
    if len(data) % RECORD_SIZE:
        raise CorruptIndexError(
            f"index dropping {source} is {len(data)} bytes, "
            f"not a multiple of the {RECORD_SIZE}-byte record size"
        )
    # A bytes copy owns its memory (the input buffer may be mmapped or
    # reused by the caller); bytes in are returned as they are.
    return bytes(data)


def split_torn(data) -> tuple[bytes, int]:
    """Take as many whole records as *data* holds, tolerating a torn tail.

    A crash mid-flush leaves an index dropping whose
    byte count is not a multiple of the record size; the prefix of whole
    records is still sound because records are appended atomically in
    memory and sequentially on disk.  Returns ``(records, torn_bytes)``
    where *torn_bytes* is the length of the discarded partial tail.
    """
    torn = len(data) % RECORD_SIZE
    return bytes(data[: len(data) - torn]), torn


def clip_to_physical(records, data_size: int) -> tuple[bytes, int]:
    """Clip *records* to the bytes a data dropping actually holds.

    Recovery reconciliation: an index dropping's record may promise bytes past the end of its data dropping — the write was
    torn, or never happened before the crash.  Records are physically
    sequential within one dropping, so each record's true extent is
    bounded below by the next record's start and by *data_size*.  Returns
    ``(clipped_records, lost_bytes)`` where *lost_bytes* counts promised
    bytes that never reached the dropping.
    """
    rows = unpack_records(records)
    kept: list[Record] = []
    lost = 0
    for row, after in zip(rows, rows[1:] + [None]):
        bound = data_size if after is None else min(after.physical_offset, data_size)
        actual = max(0, min(row.length, bound - row.physical_offset))
        lost += row.length - actual
        if actual:
            kept.append(row._replace(length=actual))
    return pack_records(kept), lost


def with_dropping(records, dropping: int) -> bytes:
    """*records* with every ``dropping`` field set to *dropping* (a global
    id, once the batch is one dropping's of many)."""
    words = _words(records)
    words[_DROPPING::_WORDS] = array("q", [dropping]) * (len(words) // _WORDS)
    return _packed(words)


def read_index_dropping(path: str, size: int = -1) -> bytes:
    """Read and check one index dropping file (its first *size* bytes,
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
    def from_arrays(cls, starts, lengths, droppings, physical_offsets) -> "ExtentMap":
        """Inverse of :meth:`as_arrays`; the caller guarantees the segments
        are sorted and non-overlapping."""
        m = cls()
        m._starts = list(starts)
        m._ends = list(map(add, starts, lengths))
        m._payloads = list(zip(droppings, physical_offsets))
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

    def as_arrays(self) -> "Columns":
        """Segments as parallel ``array('q')`` columns (starts, lengths,
        droppings, phys)."""
        drops, phys = zip(*self._payloads) if self._payloads else ((), ())
        return _frozen((self._starts, list(map(sub, self._ends, self._starts)), drops, phys))


#: (starts, lengths, droppings, physical_offsets): parallel ``array('q')``
#: columns — a record's own fields, so rows become columns by strided slicing
#: and columns become rows by strided assignment, with no arithmetic either way
Columns = tuple[array, array, array, array]

#: shared by every empty index: columns are replaced, never mutated
_NO_SEGMENTS: Columns = (array("q"), array("q"), array("q"), array("q"))


def _fields(records) -> Columns:
    """The (starts, lengths, droppings, physical offsets) of packed
    *records*, in record order."""
    words = _words(records)
    starts, lengths, drops, phys = (
        words[f::_WORDS] for f in (_LOGICAL, _LENGTH, _DROPPING, _PHYSICAL))
    return starts, lengths, drops, phys


def _frozen(cols) -> Columns:
    """Four sequences of ints as the ``array('q')`` columns an index holds."""
    try:
        starts, lengths, drops, phys = (array("q", col) for col in cols)
    except OverflowError:
        raise CorruptIndexError("an index extent lies past 2**63") from None
    return starts, lengths, drops, phys


def _joined(first: Columns, then: Columns) -> Columns:
    """*then*'s segments after *first*'s, as new columns."""
    starts, lengths, drops, phys = map(add, first, then)
    return starts, lengths, drops, phys


def _sorted(cols: Columns) -> Columns:
    """*cols* stably sorted by start: the positions sorted, then one
    gather per column."""
    keys = cols[0].tolist()
    return _frozen(map(itemgetter(*sorted(range(len(keys)), key=keys.__getitem__)), cols))


def _dealt(cols: Columns) -> Columns | None:
    """*cols* as k runs of one length, dealt out round-robin in the order
    of the runs' first starts — N writers each writing every Nth block,
    their index droppings one after the other — or None when the first
    run's length does not divide the batch, or the runs are more than they
    are long (dealing is a Python step per run; the sort is one per
    record).  Slice assignments only; the caller checks the result like
    any other order."""
    starts = cols[0]
    n = len(starts)
    m = next(compress(range(1, n), map(gt, starts, islice(starts, 1, None))), n)
    k = n // m
    if n % m or k == 1 or k > m:
        return None
    runs = sorted(range(k), key=lambda j: starts[j * m])
    out = []
    for col in cols:
        dealt = array("q", [0]) * n
        for i, j in enumerate(runs):
            dealt[i::k] = col[j * m:(j + 1) * m]
        out.append(dealt)
    starts, lengths, drops, phys = out
    return starts, lengths, drops, phys


def _disjoint(starts, lengths) -> bool:
    """Each extent starts at or after the previous one ends."""
    return all(map(ge, islice(starts, 1, None), map(add, starts, lengths)))


class GlobalIndex:
    """The flattened, queryable index of one logical PLFS file.

    Built from any number of record batches (one per index dropping, plus
    any not-yet-flushed in-memory records of open writers).  Its whole
    state is the sorted, non-overlapping segments as four ``array('q')``
    columns (:data:`Columns`); later records shadow earlier ones (by
    timestamp) wherever a batch overlaps.
    """

    def __init__(self, batches: list | None = None):
        self._bind(_NO_SEGMENTS)
        if batches:
            self.add_records(b"".join(batches) if len(batches) > 1 else batches[0])

    def _bind(self, cols: Columns) -> None:
        """The one place the columns are (re)bound, with the logical size
        they imply and :meth:`query`'s memory of where the last plan ended."""
        self._cols = cols
        starts, lengths = cols[:2]
        self._size = starts[-1] + lengths[-1] if starts else 0
        self._last_hit = 0

    @classmethod
    def from_flat_segments(
        cls,
        starts: Sequence[int],
        lengths: Sequence[int],
        droppings: Sequence[int],
        physical_offsets: Sequence[int],
    ) -> "GlobalIndex":
        """Build directly from already-flattened, sorted, non-overlapping
        segments (a compacted global index), skipping the merge.

        The caller guarantees the invariants the merge would otherwise
        establish; nothing here re-checks them beyond monotonicity.
        """
        idx = cls()
        if starts and not (min(lengths) > 0 and _disjoint(starts, lengths)):
            raise CorruptIndexError(
                "compacted segments are not sorted and non-overlapping"
            )
        idx._bind(_frozen((starts, lengths, droppings, physical_offsets)))
        return idx

    def add_records(self, records) -> None:
        """Merge packed *records* (with global dropping ids) into the index.

        Sorted by logical start, a batch whose extents turn out disjoint —
        from each other and from the segments already held — *is* the
        flattened index, whatever its timestamps.  Any observed overlap is
        resolved by the :class:`ExtentMap` sweep instead.
        """
        if not records:
            return
        cols = self._merge(records)
        self._bind(self._sweep(records) if cols is None else cols)

    def extended(self, records) -> "GlobalIndex | None":
        """A *new* index of these segments plus *records* — this one is
        published (other handles hold it) and is never mutated.  None on
        any overlap: flattened segments have no timestamps left to resolve
        one with, so the sweep is no fallback here and the caller rebuilds
        from the droppings."""
        cols = self._merge(records) if records else self._cols
        if cols is None:
            return None
        index = GlobalIndex()
        index._bind(cols)
        return index

    def _merge(self, records) -> Columns | None:
        """The build kernel: the held segments and *records* as one set of
        sorted columns, or None when it observes two extents overlap."""
        cols = _fields(records)
        if min(cols[1]) <= 0:  # no length (or one past 2**63, read negative): nothing
            live = [length > 0 for length in cols[1]]
            cols = _frozen(compress(col, live) for col in cols)
        held = self._cols
        # A batch that sorts past everything held (a log being followed) is
        # sorted alone and concatenated; anything else sorts with the held.
        past = bool(held[0]) and (not cols[0] or min(cols[0]) >= self._size)
        if held[0] and not past:
            cols = _joined(held, cols)
        # Live extents disjoint in an order are in order, and it is the one
        # the stable sort by start gives.  Two orders cost nothing to try:
        # the order they came in (one sequential writer, a log followed in
        # order), and the runs dealt round-robin (the N-1 strided
        # checkpoint).  Otherwise the sort, and the same check again.
        if not _disjoint(cols[0], cols[1]):
            dealt = _dealt(cols)
            if dealt is not None and _disjoint(dealt[0], dealt[1]):
                cols = dealt
            else:
                cols = _sorted(cols)
                if not _disjoint(cols[0], cols[1]):
                    return None
        return _joined(held, cols) if past else cols

    def _sweep(self, records) -> Columns:
        """The overlap fallback: assign *records* over the held segments in
        completion order, so later writes shadow earlier ones."""
        extents = ExtentMap.from_arrays(*self._cols)
        starts, lengths, drops, phys = _fields(records)
        stamps = _words(records, "d")[_TIMESTAMP::_WORDS]
        # sorted() is stable: records with equal timestamps keep their
        # append order within the batch.
        for i in sorted(range(len(stamps)), key=stamps.__getitem__):
            extents.assign(starts[i], starts[i] + lengths[i], drops[i], phys[i])
        return extents.as_arrays()

    def as_arrays(self) -> Columns:
        """The flattened segments as parallel columns (shared, read-only
        by convention: compaction and the tools compute on them in bulk)."""
        return self._cols

    @property
    def logical_size(self) -> int:
        """Size of the logical file: one past the last written byte."""
        return self._size

    def __len__(self) -> int:
        return len(self._cols[0])

    def query(self, offset: int, length: int) -> list[ReadSlice]:
        """Plan a read of [offset, offset+length).

        Returns contiguous :class:`ReadSlice` pieces covering the requested
        range up to the logical file size; regions never written are returned
        as holes.  The plan never extends past ``logical_size`` (a read at or
        beyond EOF returns an empty plan, mirroring ``read(2)``).
        One algorithm for every window size: ``bisect`` over the starts,
        then a walk of the window's segments by index.
        """
        starts, lengths, drops, phys = self._cols
        n = len(starts)
        if length <= 0 or not n:
            return []
        end = min(offset + length, self._size)
        if end <= offset:
            return []
        # First segment ending past offset: where the previous plan ended
        # (a sequential reader is still inside it), else the last one
        # starting at or before offset, or the one after it if that one
        # ends first.
        lo = self._last_hit
        if lo >= n or not starts[lo] <= offset < starts[lo] + lengths[lo]:
            lo = bisect_right(starts, offset) - 1
            if lo < 0 or starts[lo] + lengths[lo] <= offset:
                lo += 1
        s = starts[lo]
        if s <= offset and end <= s + lengths[lo]:
            self._last_hit = lo
            return [ReadSlice(offset, end - offset, drops[lo], phys[lo] + offset - s)]
        plan: list[ReadSlice] = []
        pos, k = offset, lo
        while k < n:
            s = starts[k]
            if s >= end:
                break
            e, p = s + lengths[k], phys[k]
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
        starts, lengths, drops, phys = self._cols
        return list(zip(starts, map(add, starts, lengths), drops, phys))


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
    batches: list[bytes] = []
    data_paths: list[str] = []
    for global_id, (index_path, data_path) in enumerate(droppings):
        data_paths.append(data_path)
        try:
            recs = read_index_dropping(index_path, -1 if sizes is None else sizes[global_id])
        except FileNotFoundError:
            # No index dropping (yet, or any more): the data dropping keeps
            # its id, it just contributes no records.
            continue
        if recs:
            batches.append(with_dropping(recs, global_id))
    return GlobalIndex(batches), data_paths


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
    size), then ``records`` packed :data:`RECORD` rows holding the
    non-overlapping *segments* (the columns of :meth:`GlobalIndex.as_arrays`)
    sorted by logical offset.  ``pid`` and ``timestamp`` are zeroed: a
    compacted index has no recency to resolve.
    """
    header = json.dumps(
        {
            "magic": constants.GLOBAL_INDEX_MAGIC,
            "version": constants.GLOBAL_INDEX_VERSION,
            "epoch": epoch,
            "records": len(segments[0]),
            "data_paths": list(data_paths),
            "logical_size": logical_size,
        },
        sort_keys=True,
    )
    return b"".join((header.encode(), b"\n", segment_records(segments)))


def parse_compacted(
    data: bytes, *, source: str = "<memory>"
) -> tuple[bytes, list[str], str, int]:
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
    if records:
        words = _words(records)
        drops = words[_DROPPING::_WORDS]
        # A dropping id is an index into the data-path table, and HOLE
        # (-1) would plan zeros: anything outside the table is corrupt.
        if min(drops) < 0 or max(drops) >= len(paths):
            raise CorruptIndexError(
                f"compacted index {source}: record references a dropping id "
                "outside the data-path table"
            )
        if min(words[_LOGICAL::_WORDS]) < 0 or min(words[_PHYSICAL::_WORDS]) < 0:
            raise CorruptIndexError(
                f"compacted index {source}: record has an offset past 2**63"
            )
    return records, paths, epoch, size


def index_from_compacted(records) -> GlobalIndex:
    """Rehydrate a :class:`GlobalIndex` from compacted records."""
    return GlobalIndex.from_flat_segments(*_fields(records))


def segment_records(segments: Columns, timestamp: float = 0.0) -> bytes:
    """Flattened segment columns as packed :data:`RECORD` rows (``pid``
    zero, every ``timestamp`` *timestamp*); the inverse of
    :func:`index_from_compacted`."""
    n = len(segments[0])
    words = array("q", [0]) * (_WORDS * n)
    for field, col in zip((_LOGICAL, _LENGTH, _DROPPING, _PHYSICAL), _frozen(segments)):
        words[field::_WORDS] = col
    if timestamp:
        words[_TIMESTAMP::_WORDS] = array("q", array("d", [timestamp]).tobytes()) * n
    return _packed(words)


def make_record(
    logical_offset: int,
    physical_offset: int,
    length: int,
    pid: int,
    timestamp: float,
    dropping: int = 0,
) -> bytes:
    """Pack a single record (convenience for writers and tests)."""
    return RECORD.pack(logical_offset, physical_offset, length, dropping, pid, timestamp)
