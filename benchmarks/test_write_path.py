"""Write-path fast lane: group-commit WAL, vectored and zero-copy appends.

Not a paper figure — evidence for the write-path optimisation layer.  The
workload is the shape the paper's write benchmarks (Fig. 3 N-1 strided
writes, BT class write phases) stress hardest: long streams of small
writes, where per-append overheads dominate.

Smoke scale by default (CI runs this); ``LDPLFS_BENCH_FULL=1`` widens the
streams.
"""

from __future__ import annotations

import pytest

from .conftest import FULL_SCALE
from repro.bench.guard import assert_faster, median_time
from repro.plfs import backing
from repro.plfs.container import Container
from repro.plfs.reader import ReadFile
from repro.plfs.writer import WriteFile


class _NullStore(backing.BackingStore):
    """Acknowledges every persistence operation without touching disk."""

    def write_data(self, fd, buf, path):
        return len(buf)

    def write_datav(self, fd, buffers, path):
        return sum(len(b) for b in buffers)

    def append_index(self, path, payload):
        return len(payload)

    def write_wal(self, fd, payload, path):
        return len(payload)

    def create_meta(self, path):
        pass

    def fsync(self, fd):
        pass

SMALL_WRITES = 8192 if FULL_SCALE else 2048
WRITE_SIZE = 64
WAL_BATCH = 64
IOVEC = 16
CHUNK = 1 << 20 if FULL_SCALE else 1 << 18
CHUNKS = 32 if FULL_SCALE else 16
REPEATS = 5


@pytest.fixture
def fresh_container(tmp_path):
    """A factory for one-shot containers (append benchmarks must not
    accumulate droppings across timing rounds)."""
    counter = [0]

    def make():
        counter[0] += 1
        c = Container(str(tmp_path / f"c{counter[0]}"))
        c.create()
        return c

    return make


def small_write_stream(container, *, wal, wal_batch):
    payload = b"s" * WRITE_SIZE
    with WriteFile(container, wal=wal, wal_batch=wal_batch) as w:
        for i in range(SMALL_WRITES):
            w.write(payload, i * WRITE_SIZE, pid=1)
        return w.stats


def test_write_path_fast_lane(fresh_container, report):
    size_mb = SMALL_WRITES * WRITE_SIZE / 1e6

    # Baseline: no WAL at all (the durability-free upper bound).
    t_nowal = median_time(
        lambda: small_write_stream(fresh_container(), wal=False, wal_batch=1)
    )

    # Per-append WAL: one write_wal syscall before every data append.
    t_per_append = median_time(
        lambda: small_write_stream(fresh_container(), wal=True, wal_batch=1)
    )

    # Group commit: one write_wal per WAL_BATCH-append window.
    t_batched = median_time(
        lambda: small_write_stream(fresh_container(), wal=True, wal_batch=WAL_BATCH)
    )
    stats = small_write_stream(
        fresh_container(), wal=True, wal_batch=WAL_BATCH
    )
    assert stats["wal_records"] == SMALL_WRITES
    assert stats["wal_batches"] == SMALL_WRITES // WAL_BATCH

    # Vectored appends: the same bytes as IOVEC-buffer gather writes.
    payload = b"v" * WRITE_SIZE

    def vectored():
        c = fresh_container()
        with WriteFile(c) as w:
            for i in range(0, SMALL_WRITES, IOVEC):
                w.append_many([payload] * IOVEC, i * WRITE_SIZE, pid=1)

    t_scalar = median_time(
        lambda: small_write_stream(fresh_container(), wal=False, wal_batch=1)
    )
    t_vectored = median_time(vectored)

    # Zero-copy: memoryview windows of one big buffer vs bytes copies.
    # Timed against a null backing store: page-cache writeback noise is
    # orders of magnitude above the memcpy a copy costs, so the disk
    # would only measure itself — the null store isolates exactly the
    # work zero-copy removes.
    big = b"z" * (CHUNK * CHUNKS)

    def run_chunks(make_buf):
        c = fresh_container()
        with WriteFile(c) as w:
            view = memoryview(big)
            for i in range(CHUNKS):
                w.write(make_buf(view[i * CHUNK : (i + 1) * CHUNK]), i * CHUNK, pid=1)
        return c

    previous = backing.install(_NullStore())
    try:
        t_copy = median_time(lambda: run_chunks(bytes))
        t_view = median_time(lambda: run_chunks(lambda v: v))
    finally:
        backing.install(previous)
    c = run_chunks(lambda v: v)
    with ReadFile(c) as r:
        assert r.read(CHUNK, 0) == b"z" * CHUNK  # views landed intact

    lines = [
        "write-path fast lane "
        f"({SMALL_WRITES} x {WRITE_SIZE} B small writes = {size_mb:.1f} MB, "
        f"median of {REPEATS})",
        f"{'variant':28s} {'stream (ms)':>12s} {'vs per-append':>14s}",
        f"{'no WAL':28s} {t_nowal * 1e3:12.2f} {t_per_append / t_nowal:13.2f}x",
        f"{'per-append WAL':28s} {t_per_append * 1e3:12.2f} {1.0:13.2f}x",
        f"{'group commit (batch=' + str(WAL_BATCH) + ')':28s} "
        f"{t_batched * 1e3:12.2f} {t_per_append / t_batched:13.2f}x",
        "",
        f"scalar appends              : {t_scalar * 1e3:.2f} ms",
        f"vectored appends (iovec={IOVEC:2d}) : {t_vectored * 1e3:.2f} ms "
        f"({t_scalar / t_vectored:.2f}x)",
        f"{CHUNKS} x {CHUNK >> 10} KiB copied (null store)    : "
        f"{t_copy * 1e3:.2f} ms",
        f"{CHUNKS} x {CHUNK >> 10} KiB zero-copy (null store) : "
        f"{t_view * 1e3:.2f} ms ({t_copy / t_view:.2f}x)",
    ]
    report("write_path.txt", "\n".join(lines))

    # Coarse regression guards (the CI write-path job runs these): group
    # commit must beat the per-append WAL it batches — that is its whole
    # reason to exist — and a gather write must not lose to the scalar
    # loop it replaces.
    assert_faster(t_batched, t_per_append, "group-commit WAL vs per-append WAL")
    assert_faster(t_vectored, t_scalar, "vectored appends vs scalar appends")


def test_merged_streams_flush_their_index_once(fresh_container, monkeypatch):
    """With a tiny flush threshold, a perfectly sequential stream never
    reaches it — every record merges into the one pending — so its index
    is flushed once, at close; a random-offset stream of the same length
    flushes at every threshold's worth of appends."""
    from repro.plfs import writer as writer_module

    monkeypatch.setattr(writer_module, "INDEX_FLUSH_THRESHOLD", 8)

    streams = {}
    for name, stride in (("sequential", 1), ("random", 199)):
        with WriteFile(fresh_container()) as w:
            for i in range(SMALL_WRITES):
                w.write(b"s" * WRITE_SIZE, ((i * stride) % SMALL_WRITES) * WRITE_SIZE, pid=1)
        streams[name] = w.stats  # after close: its flush is in the count

    seq, rnd = streams["sequential"], streams["random"]
    assert seq["records_merged"] == SMALL_WRITES - 1 and rnd["records_merged"] == 0
    assert seq["index_flushes"] == 1 and seq["threshold_flushes"] == 0
    assert rnd["index_flushes"] == rnd["threshold_flushes"] == SMALL_WRITES // 8
