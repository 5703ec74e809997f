"""The read-path fast lane: persistent compacted index, shared index
cache, coalesced read plans — plus the read-path bug-sweep regressions
(fd-cache bound, cross-handle staleness, error-path fd hygiene,
cached logical_size)."""

from __future__ import annotations

import errno
import os
import struct

import pytest

from repro.plfs import cache as index_cache
from repro.plfs import constants
from repro.plfs.api import (
    plfs_close,
    plfs_getattr,
    plfs_open,
    plfs_read,
    plfs_sync,
    plfs_trunc,
    plfs_write,
)
from repro.plfs.cache import IndexCache, compact, load_index, shared_cache
from repro.plfs.container import Container
from repro.plfs.errors import CorruptIndexError
from repro.plfs.index import RECORD_SIZE, Record, load_global_index, parse_compacted
from repro.plfs import reader as reader_module
from repro.plfs.reader import ReadFile, logical_size
from repro.plfs.writer import WriteFile


@pytest.fixture
def container(container_path):
    c = Container(container_path)
    c.create()
    return c


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def write_stripes(container, *, droppings, stripe=8, rounds=1):
    """Interleave *droppings* writers round-robin: dropping i owns every
    logical stripe where (stripe_no % droppings) == i."""
    writers = [WriteFile(container) for _ in range(droppings)]
    payload = {}
    for r in range(rounds):
        for s in range(droppings):
            off = (r * droppings + s) * stripe
            data = bytes([(r * droppings + s + 1) % 256]) * stripe
            writers[s].write(data, off, pid=s + 1)
            payload[off] = data
    for w in writers:
        w.close()
    size = max(o + len(d) for o, d in payload.items())
    whole = bytearray(size)
    for off, data in payload.items():
        whole[off : off + len(data)] = data
    return bytes(whole)


# ---------------------------------------------------------------------- #
# persistent compacted global index
# ---------------------------------------------------------------------- #


class TestCompactedIndex:
    # A clean close compacts where there is a merge to skip (decision 17):
    # the fixtures below write through two pids, hence two droppings.

    def test_clean_close_writes_global_index(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"hello ", offset=0, pid=1)
        plfs_write(fd, b"world", offset=6, pid=2)
        plfs_close(fd)
        gpath = Container(container_path).global_index_path()
        assert os.path.exists(gpath)
        with open(gpath, "rb") as fh:
            records, paths, epoch, size = parse_compacted(
                fh.read(), source=gpath
            )
        assert size == 11
        assert len(records) == 2 * RECORD_SIZE
        assert epoch == Container(container_path).index_epoch()
        # data paths are container-relative: the container can be renamed
        assert all(not os.path.isabs(p) for p in paths)

    def test_compacted_load_is_byte_identical(self, container):
        expect = write_stripes(container, droppings=6, rounds=3)
        compact(container)
        loaded = load_index(container)
        assert loaded.source == "compacted"
        with ReadFile(container, use_shared_cache=False) as r:
            # route the probe through the compacted file explicitly
            r._index, r._data_paths = loaded.index, loaded.data_paths
            assert r.read(len(expect), 0) == expect

    def test_stale_epoch_falls_back_to_merge(self, container):
        write_stripes(container, droppings=2)
        compact(container)
        w = WriteFile(container)
        w.write(b"fresh", 0, pid=99)
        w.close()
        loaded = load_index(container)
        assert loaded.source == "merged"
        assert loaded.index.logical_size >= 5

    def test_corrupt_compacted_falls_back_to_merge(self, container):
        expect = write_stripes(container, droppings=2)
        compact(container)
        gpath = container.global_index_path()
        with open(gpath, "r+b") as fh:
            fh.write(b"\xff\xff\xff")
        loaded = load_index(container)
        assert loaded.source == "merged"
        with ReadFile(container) as r:
            assert r.read(len(expect), 0) == expect

    @pytest.mark.parametrize(
        "mangle",
        [
            b"",  # empty file
            b"not json at all\n",  # unparseable header
            b'{"magic": "wrong"}\n',  # wrong magic
        ],
    )
    def test_parse_compacted_rejects_garbage(self, mangle):
        with pytest.raises(CorruptIndexError):
            parse_compacted(mangle, source="<test>")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dropping", constants.HOLE),  # read back as a hole: zeros
            ("dropping", -2),  # indexes the data-path table from the end
            ("dropping", 2),  # past the table
            ("logical_offset", -1),
            ("physical_offset", -4096),
            ("length", -1),
        ],
    )
    def test_a_record_naming_no_real_extent_takes_the_merge(
        self, container_path, field, value
    ):
        """Regression: ``parse_compacted`` bounded only the largest dropping
        id, so a negative one was trusted — a hole's zeros, or another
        dropping's bytes, where the droppings say otherwise."""
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"A" * 4096, offset=0, pid=1)
        plfs_write(fd, b"B" * 4096, offset=4096, pid=2)
        plfs_close(fd)
        container = Container(container_path)
        gpath = container.global_index_path()
        with open(gpath, "rb") as fh:
            at = fh.read().index(b"\n") + 1 + 8 * Record._fields.index(field)
        with open(gpath, "r+b") as fh:  # record 0, the epoch left as it was
            fh.seek(at)
            fh.write(struct.pack("<q", value))
        assert load_index(container).source == "merged"
        fd = plfs_open(container_path, os.O_RDONLY)
        try:
            assert plfs_read(fd, 8192, 0) == b"A" * 4096 + b"B" * 4096
        finally:
            plfs_close(fd)

    def test_truncate_drops_compacted_index(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs_write(fd, b"da", offset=0, pid=1)
        plfs_write(fd, b"ta", offset=2, pid=2)
        plfs_close(fd)
        assert os.path.exists(Container(container_path).global_index_path())
        fd = plfs_open(container_path, os.O_WRONLY | os.O_TRUNC)
        plfs_close(fd)
        assert load_index(Container(container_path)).index.logical_size == 0

    def test_dropping_the_compacted_index_reroutes_to_merge(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"da", offset=0, pid=1)
        plfs_write(fd, b"ta", offset=2, pid=2)
        plfs_close(fd)
        container = Container(container_path)
        assert load_index(container).source == "compacted"
        assert container.drop_global_index()
        assert not os.path.exists(container.global_index_path())
        assert load_index(container).source == "merged"

    def test_no_compaction_while_other_writers_open(self, container_path):
        fd1 = plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=1)
        fd2 = plfs_open(container_path, os.O_WRONLY, pid=2)
        plfs_write(fd1, b"one", offset=0, pid=1)
        plfs_write(fd2, b"two", offset=3, pid=2)
        plfs_close(fd1, pid=1)
        # fd2 still open: closing fd1 must not freeze a half view
        assert not os.path.exists(
            Container(container_path).global_index_path()
        )
        plfs_close(fd2, pid=2)
        assert os.path.exists(Container(container_path).global_index_path())


class TestCompactionWhereItPays:
    """DESIGN decision 17: a clean close writes ``global.index`` for more
    than one index dropping, or one of more than ``COMPACT_MIN_RECORDS``
    records; whoever asks outright (``plfs_compact``) always gets it."""

    @staticmethod
    def write_and_close(path, payload=b"x" * 512, offset=0, flags=os.O_CREAT | os.O_WRONLY):
        fd = plfs_open(path, flags)
        plfs_write(fd, payload, offset=offset)
        plfs_close(fd)

    @staticmethod
    def read_back(path, count=1 << 20):
        fd = plfs_open(path, os.O_RDONLY)
        try:
            return plfs_read(fd, count, 0)
        finally:
            plfs_close(fd)

    def test_one_record_closes_without_it_and_a_second_dropping_brings_it(self, container_path):
        container = Container(container_path)
        self.write_and_close(container_path)
        assert not os.path.exists(container.global_index_path())
        assert load_index(container).source == "merged"
        assert self.read_back(container_path) == b"x" * 512

        self.write_and_close(container_path, b"y" * 512, 512, os.O_WRONLY)
        assert len(container.droppings()) == 2
        assert os.path.exists(container.global_index_path())
        assert load_index(container).source == "compacted"
        assert self.read_back(container_path) == b"x" * 512 + b"y" * 512

    @pytest.mark.parametrize("over", [0, 1])
    def test_one_dropping_compacts_past_the_record_bound_only(self, container_path, over):
        records = constants.COMPACT_MIN_RECORDS + over
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        for i in range(records):  # a comb: no two records merge
            plfs_write(fd, b"r", offset=2 * i)
        plfs_close(fd)
        container = Container(container_path)
        assert len(container.droppings()) == 1
        assert os.path.exists(container.global_index_path()) == bool(over)
        loaded = load_index(container)
        assert loaded.source == ("compacted" if over else "merged")
        assert len(loaded.index) == records

    def test_asking_outright_always_writes_it(self, container_path):
        from repro.plfs.tools import plfs_compact

        self.write_and_close(container_path)
        info = plfs_compact(container_path)
        assert info["segments"] == 1 and os.path.exists(info["path"])
        assert load_index(Container(container_path)).source == "compacted"
        assert self.read_back(container_path) == b"x" * 512

    def test_truncates_rewrite_goes_through_the_same_rule(self, container_path, monkeypatch):
        decided = []
        real = index_cache.compact_where_it_pays
        monkeypatch.setattr(
            index_cache,
            "compact_where_it_pays",
            lambda container, records: decided.append(records) or real(container, records),
        )
        container = Container(container_path)
        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"ab" * 100, offset=0, pid=1)
        plfs_write(fd, b"cd" * 100, offset=200, pid=2)
        plfs_close(fd)
        assert decided == [2] and os.path.exists(container.global_index_path())

        plfs_trunc(container_path, 150)  # rewritten as one dropping, one record
        assert decided == [2, 1]
        assert len(container.droppings()) == 1
        assert not os.path.exists(container.global_index_path())
        assert self.read_back(container_path) == b"ab" * 75

        plfs_trunc(container_path, 100)
        assert decided == [2, 1, 1]

    def test_a_stale_one_is_ignored_by_epoch_and_replaced_at_the_next_close(self, container_path):
        self.write_and_close(container_path)
        container = Container(container_path)
        compact(container)
        with open(container.global_index_path(), "rb") as fh:
            first = fh.read()

        fd = plfs_open(container_path, os.O_WRONLY)
        plfs_write(fd, b"y" * 512, offset=512)
        plfs_sync(fd)  # the second dropping is on disk, the file is stale
        assert load_index(container).source == "merged"
        assert self.read_back(container_path) == b"x" * 512 + b"y" * 512
        plfs_close(fd)
        with open(container.global_index_path(), "rb") as fh:
            assert fh.read() != first
        loaded = load_index(container)
        assert loaded.source == "compacted" and loaded.index.logical_size == 1024

    @pytest.mark.parametrize("pids", [1, 16])
    def test_sixteen_writers_compact_exactly_once(self, container_path, monkeypatch, pids):
        """Only the last of 16 write handles compacts: in one process the
        earlier closes still hold the marker, across pids they see it held."""
        compacted = []
        real = index_cache.compact
        monkeypatch.setattr(
            index_cache, "compact", lambda c, **kw: compacted.append(c.path) or real(c, **kw)
        )
        owners = [100 + i % pids for i in range(16)]
        fds = [(plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=pid), pid) for pid in owners]
        for i, (fd, pid) in enumerate(fds):
            plfs_write(fd, b"%02d" % i, offset=2 * i, pid=pid)
        for fd, pid in fds:
            plfs_close(fd, pid=pid)
        assert compacted == [Container(container_path).path]
        assert load_index(Container(container_path)).source == "compacted"
        assert self.read_back(container_path) == b"".join(b"%02d" % i for i in range(16))

    def test_one_that_describes_an_earlier_state_does_not_outlive_a_close_that_writes_none(
        self, container_path
    ):
        container = Container(container_path)
        container.create()
        compact(container)  # of the empty container
        assert os.path.exists(container.global_index_path())
        self.write_and_close(container_path, flags=os.O_WRONLY)
        assert not os.path.exists(container.global_index_path())
        assert self.read_back(container_path) == b"x" * 512


# ---------------------------------------------------------------------- #
# shared index cache
# ---------------------------------------------------------------------- #


class TestSharedIndexCache:
    def test_repeated_opens_hit_the_cache(self, container):
        write_stripes(container, droppings=4)
        cache = shared_cache()
        for _ in range(5):
            with ReadFile(container) as r:
                r.logical_size()
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 4

    def test_repeated_stat_builds_index_once(self, container):
        """Bug-sweep satellite: logical_size via the shared cache."""
        write_stripes(container, droppings=4)
        cache = shared_cache()
        sizes = {logical_size(container) for _ in range(10)}
        assert len(sizes) == 1
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 9

    def test_epoch_revalidation_sees_external_change(self, container):
        # A private cache instance stands in for "another process": the
        # writer's close invalidates only the shared cache, so this one
        # must catch the change purely by epoch revalidation.
        cache = IndexCache()
        write_stripes(container, droppings=2, stripe=4)
        loaded, _ = cache.get(container)
        first = loaded.index.logical_size
        w = WriteFile(container)
        w.write(b"x" * 64, first, pid=7)
        w.close()
        loaded, _ = cache.get(container)
        assert loaded.index.logical_size == first + 64
        assert cache.stats["stale_epoch_evictions"] == 1

    def test_invalidate_bumps_generation(self):
        cache = IndexCache()
        g0 = cache.generation("/some/container")
        cache.invalidate("/some/container")
        assert cache.generation(os.path.abspath("/some/container")) == g0 + 1

    def test_cache_capacity_is_bounded(self, backend):
        cache = IndexCache(capacity=2)
        paths = []
        for i in range(4):
            p = os.path.join(backend, f"file{i}")
            c = Container(p)
            c.create()
            w = WriteFile(c)
            w.write(b"x", 0, pid=1)
            w.close()
            cache.get(c)
            paths.append(p)
        assert len(cache._entries) == 2

    def test_miss_lists_the_container_once(self, container, monkeypatch):
        """The cached epoch and the cached index come from one listing."""
        write_stripes(container, droppings=3)
        listings = []
        original = Container.droppings

        def counting(self):
            listings.append(self.path)
            return original(self)

        monkeypatch.setattr(Container, "droppings", counting)
        cache = IndexCache()
        cache.get(container)
        assert len(listings) == 1
        cache.get(container)  # a hit revalidates with one more
        assert len(listings) == 2

    def test_index_dropping_vanishing_mid_build_is_not_an_error(self, container):
        """A listed dropping whose index file is gone by the time it is
        opened contributes no records (no exists-then-open window)."""
        whole = write_stripes(container, droppings=2, stripe=4)
        pairs = container.droppings()
        os.unlink(pairs[1][0])
        index, data_paths = load_global_index(pairs)
        assert data_paths == [data for _, data in pairs]
        assert index.segments() == [(0, 4, 0, 0)]
        assert index.logical_size < len(whole)

    def test_writer_flush_invalidates_readers(self, container):
        r = ReadFile(container)
        assert r.read(3, 0) == b""
        w = WriteFile(container)
        w.write(b"abc", 0, pid=1)
        w.sync()
        assert r.read(3, 0) == b"abc"
        r.close()
        w.close()


# ---------------------------------------------------------------------- #
# coalesced read plans
# ---------------------------------------------------------------------- #


class TestCoalescing:
    """The physical-order plan: per data dropping, every run of slices that
    are adjacent or within ``READ_COALESCE_GAP`` is one ``preadv``."""

    def test_sequential_writes_collapse_to_one_pread(self, container):
        # One writer, strictly sequential: the extent map merges the
        # contiguous records, so any span is a single slice and pread.
        w = WriteFile(container)
        for i in range(16):
            w.write(bytes([i]) * 8, i * 8, pid=1)
        w.close()
        with ReadFile(container) as r:
            data = r.read(128, 0)
            assert data == b"".join(bytes([i]) * 8 for i in range(16))
            assert r.stats["preads"] == 1

    def test_out_of_order_writes_coalesce_with_sieving(self, container):
        # A@0(64) then C@96(64) then B@64(32): one dropping laid out
        # physically A,C,B, and the plan for [0,160) is A, B, C.  In
        # physical order that is one gapless run (it was two preads while
        # only logical neighbours could merge: B→C goes backwards).
        w = WriteFile(container)
        w.write(b"A" * 64, 0, pid=1)
        w.write(b"C" * 64, 96, pid=1)
        w.write(b"B" * 32, 64, pid=1)
        w.close()
        with ReadFile(container) as r:
            data = r.read(160, 0)
            assert data == b"A" * 64 + b"B" * 32 + b"C" * 64
            assert r.stats["preads"] == 1
            assert r.stats["coalesced_slices"] == 2
            assert r.stats["sieved_gap_bytes"] == 0
            # [0,96) is A and B: the run reads through C's 64 bytes into a
            # throw-away buffer instead of issuing a second I/O.
            assert r.read(96, 0) == b"A" * 64 + b"B" * 32
            assert r.stats["preads"] == 2
            assert r.stats["sieved_gap_bytes"] == 64
            assert r.stats["bytes_read"] == 160 + 96

    def test_interleaved_droppings_are_one_read_each(self, container):
        expect = write_stripes(container, droppings=4, stripe=8, rounds=2)
        with ReadFile(container) as r:
            assert r.read(len(expect), 0) == expect
            # 8 stripes from 4 droppings, alternating: no two logical
            # neighbours share a dropping, but each dropping's two stripes
            # are physically adjacent — 4 reads where there were 8.
            assert r.stats["preads"] == 4
            assert r.stats["coalesced_slices"] == 4

    def test_gap_larger_than_threshold_splits(self, backend):
        # ``a`` and ``b`` logically adjacent, *gap* bytes apart in one
        # dropping (the filler between them lives far past the window).
        limit = constants.READ_COALESCE_GAP
        for gap, preads, sieved in ((limit, 1, limit), (limit + 1, 2, 0)):
            container = Container(os.path.join(backend, f"gap{gap}"))
            container.create()
            w = WriteFile(container)
            w.write(b"a" * 10, 0, pid=1)
            w.write(b"-" * gap, 1 << 20, pid=1)
            w.write(b"b" * 10, 10, pid=1)
            w.close()
            with ReadFile(container) as r:
                assert r.read(20, 0) == b"a" * 10 + b"b" * 10
                assert r.stats["preads"] == preads
                assert r.stats["sieved_gap_bytes"] == sieved

    def test_holes_never_merge(self, container):
        # a, a 30-byte hole, b: the hole is no I/O at all and does not come
        # between the two physically adjacent extents around it.
        w = WriteFile(container)
        w.write(b"a" * 10, 0, pid=1)
        w.write(b"b" * 10, 40, pid=1)
        w.close()
        with ReadFile(container) as r:
            dest = bytearray(b"\xff" * 50)
            assert r.read_into(dest, 0) == 50
            assert dest == b"a" * 10 + bytes(30) + b"b" * 10
            assert r.stats["preads"] == 1
            assert r.stats["bytes_read"] == 20

    def test_backwards_physical_order_sorts_into_the_run(self, container):
        # The second half was written first: logically a→b goes physically
        # backwards.  Sorted by physical offset it is one forward run; no
        # span is ever negative.
        w = WriteFile(container)
        w.write(b"b" * 10, 10, pid=1)
        w.write(b"a" * 10, 0, pid=1)
        w.close()
        with ReadFile(container) as r:
            assert r.read(20, 0) == b"a" * 10 + b"b" * 10
            assert r.stats["preads"] == 1

    def test_runs_are_chunked_at_iov_max(self, container, monkeypatch):
        # One dropping, 8 slices alternately adjacent and 1 byte apart: with
        # room for 5 iovec entries a run is slice, slice, gap, slice — and
        # the next slice (which would need a gap entry too) starts a new one.
        expect = bytearray(104)
        w = WriteFile(container)
        for i in range(8):
            w.write(bytes([65 + i]) * 4, 100 - 10 * i, pid=1)  # descending: never merges
            expect[100 - 10 * i : 104 - 10 * i] = bytes([65 + i]) * 4
            if i % 2:
                w.write(b"-", 1 << 20, pid=1)
        w.close()
        monkeypatch.setattr(reader_module, "_IOV_MAX", 5)
        with ReadFile(container) as r:
            assert r.read(74, 30) == bytes(expect[30:])
            assert r.stats["preads"] == 3
            assert r.stats["sieved_gap_bytes"] == 2
        monkeypatch.setattr(reader_module, "_IOV_MAX", 1024)
        with ReadFile(container) as r:
            assert r.read(74, 30) == bytes(expect[30:])
            assert r.stats["preads"] == 1
            assert r.stats["sieved_gap_bytes"] == 3

    def test_coalesce_disabled_matches(self, container):
        expect = write_stripes(container, droppings=3, stripe=16, rounds=2)
        with ReadFile(container, coalesce=False) as r:
            assert r.read(len(expect), 0) == expect
            assert r.stats["preads"] == 6  # the one-pread-per-slice reference
            dest = bytearray(len(expect))
            assert r.read_into(dest, 0) == len(expect) and dest == expect


# ---------------------------------------------------------------------- #
# bug sweep: fd-cache bound
# ---------------------------------------------------------------------- #


class TestFdCacheBound:
    def test_more_droppings_than_cap_stays_bounded(self, container):
        """Regression: the unbounded dict exhausted RLIMIT_NOFILE on wide
        containers; the LRU must keep at most fd_cache_limit descriptors
        open while still reading correctly."""
        expect = write_stripes(container, droppings=24, stripe=4)
        with ReadFile(container, fd_cache_limit=5) as r:
            assert r.read(len(expect), 0) == expect
            assert len(r._fd_cache) <= 5
            # every cached descriptor is still alive
            for fd in r._fd_cache.values():
                os.fstat(fd)

    def test_handle_holds_at_most_the_cap_plus_the_generation_file(self, container):
        expect = write_stripes(container, droppings=24, stripe=4)
        baseline = open_fds()
        with ReadFile(container, fd_cache_limit=5) as r:
            for _ in range(2):
                assert r.read(len(expect), 0) == expect
                assert r._gen_fd is not None
                assert open_fds() - baseline == 5 + 1
                r.refresh()  # the data descriptors and the held one go
                assert r._gen_fd is None and open_fds() == baseline
            r.read(4, 0)
            r.refresh()
            assert open_fds() == baseline
            r.read(4, 0)
            assert open_fds() - baseline == 2
        assert open_fds() == baseline

    def test_default_cap_is_constant(self, container):
        with ReadFile(container) as r:
            assert r._fd_limit == constants.FD_CACHE_LIMIT

    def test_lru_keeps_hot_dropping(self, container):
        write_stripes(container, droppings=6, stripe=4)
        with ReadFile(container, fd_cache_limit=2) as r:
            r.read(4, 0)  # dropping 0
            r.read(4, 4)  # dropping 1
            r.read(4, 0)  # dropping 0 again: now most-recent
            r.read(4, 8)  # dropping 2: evicts dropping 1
            assert set(r._fd_cache) == {0, 2}


class TestDescriptorsAcrossARebuild:
    """A rebuild the handle starts itself (it saw a flush) keeps each data
    descriptor whose dropping id still names the same file; ``refresh()``
    and ``close()`` release everything, as above."""

    def test_a_flush_elsewhere_costs_the_reader_only_its_generation_descriptor(self, container):
        write_stripes(container, droppings=3, stripe=4)
        baseline = open_fds()
        with ReadFile(container) as r:
            assert r.read(12, 0) == b"\x01" * 4 + b"\x02" * 4 + b"\x03" * 4
            held = dict(r._fd_cache)
            assert len(held) == 3 and open_fds() - baseline == 3 + 1
            w = WriteFile(container)
            w.write(b"new!", 12, pid=9)
            w.sync()
            assert r.read(16, 0)[12:] == b"new!"
            assert r.stats["index_builds"] == 2
            assert {k: r._fd_cache[k] for k in held} == held  # the same descriptors
            assert open_fds() - baseline == 3 + 1 + 1 + 1  # + the new dropping, the writer's
            for fd in r._fd_cache.values():
                os.fstat(fd)
            w.close()
        assert open_fds() == baseline

    def test_a_replaced_data_dropping_is_reopened(self, container):
        write_stripes(container, droppings=2, stripe=4)
        with ReadFile(container) as r:
            assert r.read(8, 0) == b"\x01" * 4 + b"\x02" * 4
            kept = r._fd_cache[0]
            victim = r._data_paths[1]
            os.unlink(victim)  # a dropping replaced under a new inode
            with open(victim, "wb") as fh:
                fh.write(b"\x09" * 4)
            index_cache.shared_cache().bump(container.path)
            assert r.read(8, 0) == b"\x01" * 4 + b"\x09" * 4
            assert r._fd_cache[0] == kept
            # (the old inode was pinned by the descriptor: the new file's differs)
            assert os.fstat(r._fd_cache[1]).st_ino == os.stat(victim).st_ino

    def test_a_failed_rebuild_releases_everything(self, container, monkeypatch):
        write_stripes(container, droppings=2, stripe=4)
        baseline = open_fds()
        r = ReadFile(container)
        r.read(8, 0)
        assert open_fds() - baseline == 3
        index_cache.shared_cache().bump(container.path)
        with monkeypatch.context() as m:
            m.setattr(Container, "droppings", lambda self: (_ for _ in ()).throw(OSError("gone")))
            with pytest.raises(OSError, match="gone"):
                r.read(8, 0)
        assert open_fds() == baseline and not r._fd_cache
        assert r.read(8, 0) == b"\x01" * 4 + b"\x02" * 4
        r.close()


# ---------------------------------------------------------------------- #
# bug sweep: error-path fd hygiene
# ---------------------------------------------------------------------- #


class TestFdHygiene:
    def test_close_is_idempotent(self, container):
        write_stripes(container, droppings=2)
        r = ReadFile(container)
        r.read(4, 0)
        r.close()
        r.close()
        assert r.closed

    def test_read_after_close_raises(self, container):
        write_stripes(container, droppings=2)
        r = ReadFile(container)
        r.close()
        with pytest.raises(ValueError):
            r.read(4, 0)

    def test_context_manager_closes_on_error(self, container):
        write_stripes(container, droppings=2)
        with pytest.raises(RuntimeError):
            with ReadFile(container) as r:
                r.read(4, 0)
                raise RuntimeError("boom")
        assert r.closed
        assert not r._fd_cache

    def test_corrupt_read_then_close_releases_fds(self, container):
        """Regression: a CorruptIndexError mid-plan used to strand every
        descriptor the partial read had opened."""
        expect = write_stripes(container, droppings=3, stripe=16)
        r = ReadFile(container)
        r.read(len(expect), 0)  # open fds, build index
        # Truncate one data dropping behind the index's back.
        victim = r._data_paths[1]
        with open(victim, "ab") as fh:
            fh.truncate(4)
        index_cache.invalidate(container.path)  # epoch changed anyway
        baseline = open_fds()
        r2 = ReadFile(container, use_shared_cache=False)
        r2._index, r2._data_paths = r.index, list(r._data_paths)
        with pytest.raises(CorruptIndexError, match="short read .* wanted 16 at 0, got 4"):
            r2.read(len(expect), 0)
        open_before_close = list(r2._fd_cache.values())
        assert open_before_close and open_fds() > baseline
        r2.close()
        assert open_fds() == baseline
        for fd in open_before_close:
            with pytest.raises(OSError) as ei:
                os.fstat(fd)
            assert ei.value.errno == errno.EBADF
        r.close()

    def test_failed_index_build_does_not_leak_the_generation_descriptor(
        self, container, monkeypatch
    ):
        def gone(self):
            raise OSError("gone")

        write_stripes(container, droppings=2)
        baseline = open_fds()
        r = ReadFile(container)
        with monkeypatch.context() as m:
            m.setattr(Container, "droppings", gone)
            for _ in range(3):  # every attempt opens it anew: still at most one held
                with pytest.raises(OSError, match="gone"):
                    r.read(4, 0)
                assert open_fds() - baseline <= 1
        assert r.read(4, 0)  # the retry that succeeds holds one, plus the dropping
        assert open_fds() - baseline == 2
        r.close()
        assert open_fds() == baseline

    def test_del_closes_quietly(self, container):
        write_stripes(container, droppings=2)
        r = ReadFile(container)
        r.read(4, 0)
        fds = list(r._fd_cache.values())
        r.__del__()
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)


# ---------------------------------------------------------------------- #
# bug sweep: cross-handle staleness through the API
# ---------------------------------------------------------------------- #


class TestCrossHandleStaleness:
    def test_getattr_sees_other_handles_flush(self, container_path):
        fd1 = plfs_open(container_path, os.O_CREAT | os.O_RDWR, pid=1)
        fd2 = plfs_open(container_path, os.O_RDWR, pid=2)
        plfs_write(fd1, b"x" * 100, offset=0, pid=1)
        from repro.plfs.api import plfs_sync

        plfs_sync(fd1)
        # fd2 never wrote; its stat must still see fd1's flushed bytes.
        assert plfs_getattr(fd2).st_size == 100
        plfs_write(fd1, b"y" * 50, offset=100, pid=1)
        plfs_sync(fd1)
        assert plfs_getattr(fd2).st_size == 150
        plfs_close(fd1, pid=1)
        plfs_close(fd2, pid=2)

    def test_read_sees_other_handles_flush(self, container_path):
        fd1 = plfs_open(container_path, os.O_CREAT | os.O_RDWR, pid=1)
        fd2 = plfs_open(container_path, os.O_RDWR, pid=2)
        plfs_write(fd1, b"first", offset=0, pid=1)
        from repro.plfs.api import plfs_sync

        plfs_sync(fd1)
        assert plfs_read(fd2, 5, 0) == b"first"
        plfs_write(fd1, b"SECOND", offset=0, pid=1)
        plfs_sync(fd1)
        assert plfs_read(fd2, 6, 0) == b"SECOND"
        plfs_close(fd1, pid=1)
        plfs_close(fd2, pid=2)


class TestGetattrFromTheReader:
    """``plfs_getattr(fd)`` on a handle that has read (and does not write)
    answers from its reader: the round's one revalidation, no listing of
    ``openhosts/`` or ``meta/``.  A handle that never read keeps the
    meta-dropping path."""

    def test_a_handle_that_has_read_sizes_from_its_index(self, container_path, monkeypatch):
        from repro.plfs.api import plfs_sync

        w = plfs_open(container_path, os.O_CREAT | os.O_WRONLY, pid=1)
        r = plfs_open(container_path, os.O_RDONLY, pid=2)
        listed = []
        real = Container.cached_size
        monkeypatch.setattr(
            Container, "cached_size", lambda self: listed.append(self.path) or real(self))
        assert plfs_getattr(r).st_size == 0 and len(listed) == 1  # never read: meta path
        plfs_write(w, b"x" * 100, offset=0, pid=1)
        plfs_sync(w)
        assert plfs_read(r, 4, 0) == b"xxxx"
        assert plfs_getattr(r).st_size == 100 and len(listed) == 1
        plfs_write(w, b"y" * 50, offset=100, pid=1)
        assert plfs_getattr(r).st_size == 100  # buffered: not visible to reads either
        plfs_sync(w)
        builds = r._reader.stats["index_builds"]
        assert plfs_getattr(r).st_size == 150 and len(listed) == 1
        assert plfs_read(r, 4, 148) == b"yy"
        assert r._reader.stats["index_builds"] == builds + 1  # once for the round, not twice
        plfs_close(w, pid=1)
        assert plfs_getattr(r).st_size == 150
        assert plfs_getattr(container_path).st_size == 150 and len(listed) == 2
        plfs_close(r, pid=2)


class TestOwnWriteStaleness:
    """An ``O_RDWR`` handle's reader overlays its own writer.  Building the
    index flushes that writer, which bumps the generation file: the handle
    must take its generation descriptor *after* that bump, or its next
    read mistakes itself for a foreign writer and builds a second time."""

    def test_first_read_after_own_write_builds_its_index_once(self, interposer, mnt):
        fd = os.open(f"{mnt}/f", os.O_CREAT | os.O_RDWR)
        os.pwrite(fd, b"abcdefgh", 0)
        before = shared_cache().stats["invalidations"]
        for _ in range(3):
            assert os.pread(fd, 8, 0) == b"abcdefgh"
        stats = interposer.shim.table.lookup(fd).plfs_fd._reader.stats
        assert stats["index_builds"] == 1 and stats["cross_process_refreshes"] == 0
        assert shared_cache().stats["invalidations"] - before == 1  # the flush's own
        # each later write is seen by the very next read, at one build each
        os.pwrite(fd, b"XY", 2)
        assert os.pread(fd, 8, 0) == os.pread(fd, 8, 0) == b"abXYefgh"
        assert stats["index_builds"] == 2 and stats["cross_process_refreshes"] == 0
        os.close(fd)

    def test_a_reader_is_behind_exactly_when_its_writer_has_appended(self, container_path):
        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        plfs_write(fd, b"0123", offset=0)
        assert plfs_read(fd, 4, 0) == plfs_read(fd, 4, 0) == b"0123"
        assert fd._reader.stats["index_builds"] == 1
        fd.writer.flush_indexes()  # nothing pending: no bump, nothing to see
        assert plfs_read(fd, 4, 0) == b"0123" and fd._reader.stats["index_builds"] == 1
        plfs_write(fd, b"!", offset=9)  # an append, still buffered: no bump either
        assert plfs_read(fd, 10, 0) == b"0123" + bytes(5) + b"!"
        assert fd._reader.stats["index_builds"] == 2
        plfs_close(fd)


class TestOneLaneForEveryHandle:
    """An ``O_RDWR`` handle's reader is built, extended and kept like any
    other; what is the handle's own is the flush ahead of its read."""

    @pytest.mark.parametrize("stride", [2, 1], ids=["holes", "contiguous"])
    def test_two_threads_on_one_handle_lose_nothing(self, container_path, stride):
        """One thread appends disjoint blocks, one reads through the same
        handle (so flushes the appender's records from under it): a block
        is absent or whole in every read, and all there after the join.
        With a hole after each block every append is a record of its own;
        contiguous, an append extends the last buffered record — the one
        the reading thread may be taking."""
        import sys
        import threading
        import time

        block, blocks, window = 16, 1500, 8
        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        errors: list = []
        started, done = threading.Event(), threading.Event()
        appended, progress_seen = [0], set()

        def payload(k: int) -> bytes:
            return bytes([1 + k % 250]) * block

        def check(first: int, count: int, *, everything: bool) -> None:
            got = plfs_read(fd, stride * count * block, stride * first * block)
            for k in range(first, first + count):
                at = stride * (k - first) * block
                seen = got[at : at + block]
                assert seen == payload(k) or not everything and seen in (bytes(block), b""), k

        def append() -> None:
            try:
                started.wait(10)
                for k in range(blocks):
                    plfs_write(fd, payload(k), offset=stride * k * block)
                    appended[0] = k
                    if k % 4 == 0:
                        time.sleep(5e-5)  # let the reader in: it flushes mid-burst
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def read() -> None:
            try:
                while not done.is_set():
                    started.set()
                    progress_seen.add(appended[0])
                    check(max(0, appended[0] - window // 2), window, everything=False)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=append), threading.Thread(target=read)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(progress_seen) > 10  # the reads did flush from under the appender
        check(0, blocks, everything=True)
        plfs_sync(fd)
        container = Container(container_path)
        ((index_path, _),) = container.droppings()
        records, rest = divmod(os.path.getsize(index_path), RECORD_SIZE)
        assert rest == 0
        # contiguous: merged, and flushed mid-run
        assert records == blocks if stride == 2 else 1 < records < blocks
        plfs_close(fd)

    def test_a_read_landing_inside_a_record_merge_loses_nothing(self, container_path):
        """The window the thread test above hits too rarely, held open: the
        appender has found the record it will extend and another thread's
        read flushes before the length moves.  The flush waits its turn."""
        import threading

        reads: list = []
        reader = threading.Thread(target=lambda: reads.append(plfs_read(fd, 8, 0)))

        class Pid(int):
            __hash__ = int.__hash__

            def __eq__(self, other):  # _record: ``last[_PID] == pid``
                if not reader.ident:
                    reader.start()
                    reader.join(0.05)
                return int(self) == int(other)

        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR, pid=Pid(7))
        plfs_write(fd, b"aaaa", offset=0)
        plfs_write(fd, b"bbbb", offset=4)
        reader.join(10)
        assert reads in ([b"aaaa"], [b"aaaabbbb"])
        assert plfs_read(fd, 8, 0) == b"aaaabbbb"
        plfs_close(fd)

    @pytest.mark.parametrize("size", [0, 5, 12, 40])
    def test_trunc_through_a_handle_that_has_read(self, container_path, tmp_path, size):
        """Wipe, shrink, no-op and grow: the droppings (and the writer) are
        replaced under a reader that holds descriptors on the old ones."""
        flat = os.open(tmp_path / "flat", os.O_CREAT | os.O_RDWR)
        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR)

        def both(payload: bytes, offset: int) -> None:
            os.pwrite(flat, payload, offset)
            plfs_write(fd, payload, offset=offset)

        def same() -> None:
            assert plfs_getattr(fd).st_size == os.fstat(flat).st_size
            assert plfs_read(fd, 64, 0) == os.pread(flat, 64, 0)

        both(b"0123456789ab", 0)
        same()
        assert fd._reader._fd_cache
        os.ftruncate(flat, size)
        plfs_trunc(fd, size)
        same()
        both(b"xyz", 3)
        same()
        both(b"!", 50)
        same()
        plfs_close(fd)
        os.close(flat)

    @pytest.mark.parametrize("size", [0, 5])
    def test_a_replaced_writer_is_flushed_ahead_of_the_next_read(
        self, container_path, tmp_path, size
    ):
        """``plfs_trunc`` swaps the writer; write → read → trunc → write →
        read, with no read between the trunc and the write, must still
        flush the new writer's one record."""
        flat = os.open(tmp_path / "flat", os.O_CREAT | os.O_RDWR)
        fd = plfs_open(container_path, os.O_CREAT | os.O_RDWR)
        for payload, offset, trunc in ((b"0123456789ab", 0, size), (b"xyz", 3, None)):
            os.pwrite(flat, payload, offset)
            plfs_write(fd, payload, offset=offset)
            assert plfs_read(fd, 64, 0) == os.pread(flat, 64, 0)
            if trunc is not None:
                os.ftruncate(flat, trunc)
                plfs_trunc(fd, trunc)
        assert plfs_getattr(fd).st_size == os.fstat(flat).st_size
        plfs_close(fd)
        os.close(flat)


# ---------------------------------------------------------------------- #
# tools: the compact verb, the check's compacted-index audit
# ---------------------------------------------------------------------- #


class TestTooling:
    def test_compact_verb(self, container, capsys):
        from repro.plfs.tools import main

        write_stripes(container, droppings=3)
        assert main(["compact", container.path]) == 0
        out = capsys.readouterr().out
        assert "segments" in out
        assert os.path.exists(container.global_index_path())
        assert load_index(container).source == "compacted"

    def test_check_warns_on_stale_compacted(self, container):
        from repro.plfs.fsck import plfs_check

        write_stripes(container, droppings=2)
        compact(container)
        w = WriteFile(container)
        w.write(b"new", 1000, pid=42)
        w.close()
        report = plfs_check(container.path)
        assert report.ok  # staleness is a warning, never a problem
        assert any("stale" in w for w in report.warnings)

    def test_check_warns_on_corrupt_compacted(self, container):
        from repro.plfs.fsck import plfs_check

        write_stripes(container, droppings=2)
        compact(container)
        with open(container.global_index_path(), "wb") as fh:
            fh.write(b"garbage")
        report = plfs_check(container.path)
        assert report.ok
        assert any("unreadable" in w for w in report.warnings)

    def test_check_silent_on_fresh_compacted(self, container):
        from repro.plfs.fsck import plfs_check

        write_stripes(container, droppings=2)
        compact(container)
        report = plfs_check(container.path)
        assert report.ok and not report.warnings
