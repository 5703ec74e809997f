"""Write-path fast lane: vectored and zero-copy appends.

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

    def create_meta(self, path):
        pass

    def fsync(self, fd):
        pass

SMALL_WRITES = 8192 if FULL_SCALE else 2048
WRITE_SIZE = 64
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


def small_write_stream(container):
    payload = b"s" * WRITE_SIZE
    with WriteFile(container) as w:
        for i in range(SMALL_WRITES):
            w.write(payload, i * WRITE_SIZE, pid=1)
        return w.stats


def test_write_path_fast_lane(fresh_container, report):
    size_mb = SMALL_WRITES * WRITE_SIZE / 1e6

    # Vectored appends: the same bytes as IOVEC-buffer gather writes.
    payload = b"v" * WRITE_SIZE

    def vectored():
        c = fresh_container()
        with WriteFile(c) as w:
            for i in range(0, SMALL_WRITES, IOVEC):
                w.append_many([payload] * IOVEC, i * WRITE_SIZE, pid=1)

    t_scalar = median_time(lambda: small_write_stream(fresh_container()))
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
        f"scalar appends              : {t_scalar * 1e3:.2f} ms",
        f"vectored appends (iovec={IOVEC:2d}) : {t_vectored * 1e3:.2f} ms "
        f"({t_scalar / t_vectored:.2f}x)",
        f"{CHUNKS} x {CHUNK >> 10} KiB copied (null store)    : "
        f"{t_copy * 1e3:.2f} ms",
        f"{CHUNKS} x {CHUNK >> 10} KiB zero-copy (null store) : "
        f"{t_view * 1e3:.2f} ms ({t_copy / t_view:.2f}x)",
    ]
    report("write_path.txt", "\n".join(lines))

    # Coarse regression guard (the CI write-path job runs it): a gather
    # write must not lose to the scalar loop it replaces.
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
