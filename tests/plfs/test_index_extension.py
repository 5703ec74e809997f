"""Following the log: a cached index found stale by epoch is *extended* from
the index droppings' tails when — and only when — the result is what a
scratch build would produce.  Everything else declines into the full build.

``IndexCache()`` instances here are private: they stand for another process,
which no in-process invalidation reaches and only the epoch protects.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import plfs
from repro.plfs import util
from repro.plfs import cache as cache_module
from repro.plfs.cache import IndexCache, compact, invalidate_cross_process, shared_cache
from repro.plfs.container import Container
from repro.plfs.errors import CorruptIndexError
from repro.plfs.fsck import fsck
from repro.plfs.index import RECORD_SIZE, load_global_index
from repro.plfs.reader import ReadFile
from repro.plfs.writer import WriteFile


@pytest.fixture
def container(container_path):
    c = Container(container_path)
    c.create()
    return c


def resolution(index, data_paths) -> dict:
    """Where every logical byte lives: ``{offset: (data path, physical offset)}``."""
    return {
        start + k: (data_paths[dropping], physical + k)
        for start, end, dropping, physical in index.segments()
        for k in range(end - start)
    }


def scratch(container) -> dict:
    return resolution(*load_global_index(container.droppings()))


def content(container) -> bytes:
    """The logical file a scratch build resolves to, holes as zeros."""
    index, data_paths = load_global_index(container.droppings())
    out = bytearray(index.logical_size)
    for start, end, dropping, physical in index.segments():
        with open(data_paths[dropping], "rb") as fh:
            fh.seek(physical)
            out[start:end] = fh.read(end - start)
    return bytes(out)


def assert_like_scratch(cache: IndexCache, container) -> None:
    loaded, _ = cache.get(container)
    assert resolution(loaded.index, loaded.data_paths) == scratch(container)


def built(cache: IndexCache) -> int:
    return cache.stats["merged_builds"] + cache.stats["compacted_loads"]


class TestExtension:
    def test_a_follower_reads_only_what_was_appended(self, container, monkeypatch):
        cache = IndexCache()
        w = WriteFile(container)
        for k in range(8):
            w.write(b"a" * 16, 16 * (7 - k), pid=1)
        w.sync()
        first, _ = cache.get(container)
        frozen = first.index.segments()
        index_path = container.droppings()[0][0]

        tails = []
        real = os.pread
        monkeypatch.setattr(
            os, "pread", lambda fd, n, at: tails.append((n, at)) or real(fd, n, at))
        for rnd in range(1, 6):
            for k in range(3):
                w.write(b"b" * 16, 16 * (8 * rnd + 2 - k), pid=1)
            w.sync()
            held = os.path.getsize(index_path) - 3 * RECORD_SIZE
            assert_like_scratch(cache, container)
            assert tails.pop() == (3 * RECORD_SIZE, held) and not tails
        w.close()

        assert built(cache) == 1 and cache.stats["extensions"] == 5
        assert cache.stats["stale_epoch_evictions"] == 5  # found stale by epoch, each time
        assert cache.stats["hits"] + cache.stats["misses"] == 6  # the number of gets
        assert first.index.segments() == frozen  # copy-on-extend

    def test_a_data_append_without_a_flush_costs_no_read_and_no_copy(self, container):
        cache = IndexCache()
        w = WriteFile(container)
        w.write(b"a" * 16, 0, pid=1)
        w.sync()
        first, _ = cache.get(container)
        w.write(b"b" * 16, 16, pid=1)  # lands in the data dropping; its record is buffered
        second, _ = cache.get(container)
        assert second is not first and second.epoch != first.epoch
        assert second.index is first.index
        assert cache.stats["extensions"] == 1 and built(cache) == 1
        w.close()

    def test_a_new_dropping_that_sorts_last_is_read_whole(self, container):
        cache = IndexCache()
        w1 = WriteFile(container)
        w1.write(b"a" * 16, 0, pid=1)
        w1.sync()
        cache.get(container)
        w2 = WriteFile(container)  # same host, later timestamp: sorts last
        w2.write(b"b" * 16, 32, pid=2)
        w2.sync()
        w1.write(b"c" * 16, 16, pid=1)
        w1.sync()
        assert [d for _, d in container.droppings()][0] == w1._droppings[1].data_path
        assert_like_scratch(cache, container)
        assert cache.stats["extensions"] == 1 and built(cache) == 1
        w1.close()
        w2.close()

    def test_an_empty_container_is_extended_by_its_first_dropping(self, container):
        cache = IndexCache()
        assert len(cache.get(container)[0].index) == 0
        with WriteFile(container) as w:
            w.write(b"a" * 16, 0, pid=1)
        assert_like_scratch(cache, container)
        assert cache.stats["extensions"] == 1 and built(cache) == 1

    def test_a_dropping_inserted_mid_listing_takes_the_full_build(self, container):
        hosts = sorted(
            (f"host{i}" for i in range(64)),
            key=lambda h: os.path.basename(container.hostdir_path(h)),
        )
        cache = IndexCache()
        with WriteFile(container, host=hosts[-1]) as w:
            w.write(b"a" * 16, 0, pid=1)
        cache.get(container)
        with WriteFile(container, host=hosts[0]) as w:  # an earlier hostdir
            w.write(b"b" * 16, 16, pid=1)
        assert_like_scratch(cache, container)
        assert cache.stats["extensions"] == 0 and built(cache) == 2

    def test_an_overlapping_tail_takes_the_full_build(self, container):
        cache = IndexCache()
        w = WriteFile(container)
        w.write(b"a" * 32, 0, pid=1)
        w.sync()
        cache.get(container)
        w.write(b"b" * 8, 8, pid=1)  # rewrites bytes the held index maps
        w.sync()
        assert_like_scratch(cache, container)
        loaded, _ = cache.get(container)
        assert [(s, e) for s, e, _, _ in loaded.index.segments()] == [(0, 8), (8, 16), (16, 32)]
        assert cache.stats["extensions"] == 0 and cache.stats["merged_builds"] == 2
        w.close()

    def test_a_torn_tail_is_the_full_builds_to_report(self, container):
        cache = IndexCache()
        w = WriteFile(container)
        w.write(b"a" * 16, 0, pid=1)
        w.sync()
        cache.get(container)
        w.write(b"b" * 16, 16, pid=1)
        w.close()
        index_path = container.droppings()[0][0]
        os.truncate(index_path, os.path.getsize(index_path) - 5)
        with pytest.raises(CorruptIndexError, match="not a multiple"):
            cache.get(container)
        with pytest.raises(CorruptIndexError):
            load_global_index(container.droppings())
        assert cache.stats["extensions"] == 0

    @pytest.mark.parametrize("change", ["replaced", "shrunk", "gone"])
    def test_anything_but_an_append_takes_the_full_build(self, container, change):
        cache = IndexCache()
        with WriteFile(container) as w:
            for k in range(4):
                w.write(b"a" * 16, 32 * k, pid=1)
        cache.get(container)
        index_path, data_path = container.droppings()[0]
        with open(index_path, "rb") as fh:
            raw = fh.read()
        if change == "replaced":  # same name, same size, another file
            with open(index_path + ".new", "wb") as fh:
                fh.write(raw[RECORD_SIZE:] + raw[:RECORD_SIZE])
            os.replace(index_path + ".new", index_path)
        elif change == "shrunk":
            os.truncate(index_path, 2 * RECORD_SIZE)
        else:
            os.unlink(index_path)
            os.unlink(data_path)
        assert_like_scratch(cache, container)
        assert cache.stats["extensions"] == 0 and cache.stats["merged_builds"] == 2

    def test_an_entry_loaded_from_global_index_is_extended_too(self, container):
        cache = IndexCache()
        w = WriteFile(container)
        w.write(b"a" * 16, 0, pid=1)
        w.sync()
        compact(container)
        assert cache.get(container)[0].source == "compacted"
        w.write(b"b" * 16, 16, pid=1)
        w.sync()
        assert_like_scratch(cache, container)
        assert cache.stats["extensions"] == 1 and built(cache) == 1
        w.close()


class TestConcurrentGets:
    """Aggregator threads arriving together at an entry a flush made stale,
    or at none: one ``get`` per container at a time, so whoever comes second
    is served from what the first stored — never finds nothing and builds
    from scratch beside it.  Exact, every round: the conformance counters
    (``index_cache_hits``, ``index_rebuild_ops``) depend on it."""

    WORKERS, ROUNDS = 4, 300

    @pytest.mark.parametrize("entry, expected", [
        ("stale", {"hits": WORKERS, "misses": 0, "merged_builds": 0}),
        ("absent", {"hits": WORKERS - 1, "misses": 1, "merged_builds": 1}),
    ])
    def test_one_build_however_many_arrive(self, container, entry, expected, monkeypatch):
        def slowly(fn):  # a build long enough that the others arrive during it
            return lambda *args, **kwargs: time.sleep(0.001) or fn(*args, **kwargs)

        monkeypatch.setattr(cache_module, "load_index", slowly(cache_module.load_index))
        monkeypatch.setattr(cache_module, "_read_tail", slowly(cache_module._read_tail))
        cache = IndexCache()
        w = WriteFile(container)
        w.write(b"a" * 16, 0, pid=1)
        w.sync()
        cache.get(container)
        gate = threading.Barrier(self.WORKERS + 1, timeout=30)
        errors: list = []

        def worker() -> None:
            try:
                for _ in range(self.ROUNDS):
                    gate.wait()
                    cache.get(container)
                    gate.wait()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                gate.abort()

        threads = [threading.Thread(target=worker) for _ in range(self.WORKERS)]
        for t in threads:
            t.start()
        try:
            for rnd in range(1, self.ROUNDS + 1):
                if entry == "stale":
                    w.write(b"b" * 16, 16 * rnd, pid=1)
                    w.sync()
                else:
                    cache.clear()
                before = dict(cache.stats)
                gate.wait()  # release the round
                gate.wait()  # every get returned
                assert {k: cache.stats[k] - before[k] for k in expected} == expected, rnd
        except BaseException:
            gate.abort()
            raise
        finally:
            for t in threads:
                t.join(timeout=30)
            w.close()
        assert errors == [] and not any(t.is_alive() for t in threads)
        assert_like_scratch(cache, container)


class TestFlushBetweenTheEpochAndTheBuild:
    """The epoch vouches for the bytes its ``stat`` saw, and the build reads
    exactly those: a flush landing in between belongs to the next epoch."""

    @staticmethod
    def sync_after_the_next_stat_of(monkeypatch, path, writer, payload, offset):
        real = os.stat
        armed = [True]

        def stat(p, *args, **kwargs):
            result = real(p, *args, **kwargs)
            if armed[0] and p == path:
                armed[0] = False
                writer.write(payload, offset, pid=1)
                writer.sync()
            return result

        monkeypatch.setattr(os, "stat", stat)
        return armed

    @pytest.mark.parametrize("entry_held", [False, True])
    def test_it_is_neither_lost_nor_served_twice(self, container, monkeypatch, entry_held):
        cache = IndexCache()
        w = WriteFile(container)
        w.write(b"a" * 16, 0, pid=1)
        w.sync()
        if entry_held:
            cache.get(container)
            w.write(b"b" * 16, 16, pid=1)
            w.sync()
        index_path = container.droppings()[0][0]
        before = scratch(container)
        armed = self.sync_after_the_next_stat_of(monkeypatch, index_path, w, b"c" * 16, 32)

        raced, _ = cache.get(container)  # the flush of "c" lands after the epoch's stat
        assert not armed[0]
        assert resolution(raced.index, raced.data_paths) == before
        assert_like_scratch(cache, container)  # the next epoch has it, once
        assert len(scratch(container)) == len(before) + 16
        assert built(cache) <= 2 and cache.stats["merged_builds"] <= 2
        w.close()


def test_followers_in_threads_see_every_published_round(container, monkeypatch):
    """More followers than cores on one shared cache, a short switch
    interval: whatever interleaving of stale-entry pops, extensions and
    full builds results, a round announced after its ``sync`` is in the
    index of every reader that looks afterwards, and ``hits + misses``
    stays the number of ``get``s."""
    import sys
    import threading

    rounds, per_round, followers = 60, 4, 4
    cache = shared_cache()
    published = [0]
    errors: list = []
    reads = [0] * followers

    def write() -> None:
        try:
            with WriteFile(container) as w:
                for rnd in range(rounds):
                    for j in reversed(range(per_round)):
                        w.write(bytes([rnd + 1]) * 8, 8 * (rnd * per_round + j), pid=1)
                    w.sync()
                    published[0] = rnd + 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            published[0] = rounds

    def follow(slot: int) -> None:
        try:
            with ReadFile(container) as r:
                while True:
                    seen = published[0]
                    if seen:
                        got = r.read(8 * per_round, 8 * per_round * (seen - 1))
                        assert got == bytes([seen]) * (8 * per_round), (seen, got)
                        reads[slot] += 1
                    if seen == rounds:
                        return
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    gets = []
    real = IndexCache.get
    monkeypatch.setattr(IndexCache, "get", lambda self, c: gets.append(1) or real(self, c))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=follow, args=(i,)) for i in range(followers)]
    threads.append(threading.Thread(target=write))
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(reads)
    # the writer's close compacts through load_index, not through get
    assert cache.stats["hits"] + cache.stats["misses"] == len(gets)
    assert cache.stats["extensions"] > 0


class TestGenerations:
    def test_create_unlink_cycles_leave_the_table_bounded(self, backend):
        cache = shared_cache()
        reader = None
        for i in range(10_000):
            c = Container(os.path.join(backend, f"f{i}"))
            c.create()
            invalidate_cross_process(c)  # what a writer's flush does
            if i == 5_000:
                reader = ReadFile(c)
                assert reader.read(1, 0) == b""
                assert reader._index is not None
            plfs.plfs_unlink(c.path)
        assert len(cache._generations) == 0
        # built before its path was forgotten, it still sees itself behind
        reader._revalidate()
        assert reader._index is None
        reader.close()

    def test_a_reader_of_a_path_that_never_had_a_generation_sees_its_unlink(self, container):
        with WriteFile(container) as w:
            w.write(b"abc", 0, pid=1)
        shared_cache().clear()  # as if another process had written it
        reader = ReadFile(container)
        assert reader.read(3, 0) == b"abc"
        plfs.plfs_unlink(container.path)
        assert container.path not in shared_cache()._generations
        reader._revalidate()
        assert reader._index is None
        reader.close()

    def test_a_value_never_repeats(self, container):
        cache = IndexCache()
        seen = {cache.generation(container.path)}
        for verb in (cache.bump, cache.forget, cache.bump, cache.invalidate, cache.forget,
                     cache.forget, cache.bump):
            verb(container.path)
            now = cache.generation(container.path)
            assert now not in seen
            seen.add(now)

    def test_rename_forgets_the_source_and_evicts_the_destination(self, container, backend):
        other = os.path.join(backend, "other")
        with WriteFile(container) as w:
            w.write(b"abc", 0, pid=1)
        cache = shared_cache()
        cache.get(container)
        plfs.plfs_rename(container.path, other)
        assert container.path not in cache._generations and other in cache._generations
        assert not cache._entries


# ---------------------------------------------------------------------- #
# the extension is indistinguishable from a scratch build, or it is not taken
# ---------------------------------------------------------------------- #


class FollowedContainer(RuleBasedStateMachine):
    """One container, every way it can change; after each, a long-lived
    private cache must map every logical byte where a scratch build does."""

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp()
        root = os.path.join(self.tmp, "root")
        os.mkdir(root)
        self.path = os.path.join(root, "file")
        self.container = Container(self.path)
        self.container.create()
        # three hosts in three hostdirs: a later writer can sort anywhere
        buckets: dict = {}
        for i in range(64):
            buckets.setdefault(util.hostdir_bucket(f"host{i}"), f"host{i}")
        self.hosts = list(buckets.values())[:3]
        self.cache = IndexCache()
        self.writers: list[WriteFile] = []
        self.handle = None  # an O_RDWR handle: reads through the shared cache
        self.end = 0  # one past the last byte ever handed to a writer
        self.torn = False
        self.handed: list = []

    # -- helpers -------------------------------------------------------- #

    def close_writers(self) -> None:
        while self.writers:
            self.writers.pop().close()
        if self.handle is not None:
            handle, self.handle = self.handle, None
            plfs.plfs_close(handle)

    def abandon_writers(self) -> None:
        while self.writers:
            self.writers.pop().abandon()
        if self.handle is not None:
            handle, self.handle = self.handle, None
            handle.writer.abandon()
            handle.reader().close()

    def index_droppings(self) -> list[str]:
        return [
            index for index, _ in self.container.droppings()
            if os.path.exists(index) and os.path.getsize(index) >= RECORD_SIZE
        ]

    intact = precondition(lambda self: not self.torn)
    writing = precondition(lambda self: not self.torn and self.writers)

    # -- the write path -------------------------------------------------- #

    @intact
    @precondition(lambda self: len(self.writers) < 3)
    @rule(host=st.integers(0, 2))
    def open_writer(self, host):
        self.writers.append(WriteFile(self.container, host=self.hosts[host]))

    @writing
    @rule(which=st.integers(0, 2), overlapping=st.booleans(), length=st.integers(1, 40),
          gap=st.integers(0, 10), where=st.integers(0, 1 << 16), pid=st.integers(1, 2))
    def append(self, which, overlapping, length, gap, where, pid):
        writer = self.writers[which % len(self.writers)]
        offset = where % self.end if overlapping and self.end else self.end + gap
        writer.write(bytes([65 + pid]) * length, offset, pid)
        self.end = max(self.end, offset + length)

    @writing
    @rule(which=st.integers(0, 2), how=st.sampled_from(["flush_indexes", "sync", "close"]))
    def publish(self, which, how):
        writer = self.writers[which % len(self.writers)]
        getattr(writer, how)()
        if how == "close":
            self.writers.remove(writer)

    @intact
    @rule(blocks=st.lists(
        st.tuples(st.booleans(), st.integers(1, 40), st.integers(0, 10), st.integers(0, 1 << 16)),
        min_size=1, max_size=3))
    def read_through_a_writing_handle(self, blocks):
        """A long-lived ``O_RDWR`` handle appends — its records still
        buffered — and reads: what the file held, plus exactly those."""
        if self.handle is None:
            self.handle = plfs.plfs_open(self.path, os.O_RDWR)
        model = bytearray(content(self.container))
        for overlapping, length, gap, where in blocks:
            offset = where % self.end if overlapping and self.end else self.end + gap
            payload = bytes([48 + len(model) % 10]) * length
            plfs.plfs_write(self.handle, payload, offset=offset)
            model[len(model):] = bytes(max(0, offset + length - len(model)))
            model[offset : offset + length] = payload
            self.end = max(self.end, offset + length)
        assert any(d.pending for d in self.handle.writer._droppings.values())
        assert plfs.plfs_read(self.handle, len(model) + 1, 0) == bytes(model)
        assert self.handle._reader.stats["cross_process_refreshes"] == 0

    # -- everything that is not an append --------------------------------- #

    @intact
    @rule(where=st.integers(0, 1 << 16))
    def truncate(self, where):
        self.close_writers()
        plfs.plfs_trunc(self.path, where % (self.end + 1))

    @intact
    @rule()
    def flatten(self):
        self.close_writers()
        plfs.plfs_flatten_index(self.path)

    @intact
    @rule()
    def rename_away_and_back(self):
        plfs.plfs_rename(self.path, self.path + ".away")
        plfs.plfs_rename(self.path + ".away", self.path)

    @intact
    @rule()
    def unlink_and_recreate(self):
        self.close_writers()
        plfs.plfs_unlink(self.path)
        plfs.plfs_create(self.path)

    @intact
    @precondition(lambda self: self.index_droppings())
    @rule(which=st.integers(0, 7), cut=st.integers(1, RECORD_SIZE - 1))
    def tear_an_index_tail(self, which, cut):
        self.close_writers()
        droppings = self.index_droppings()
        victim = droppings[which % len(droppings)]
        os.truncate(victim, os.path.getsize(victim) - cut)
        self.torn = True

    @rule()
    def crash_and_fsck(self):
        self.abandon_writers()
        fsck(self.path)
        self.torn = False

    @intact
    @rule()
    def rewrite_in_place(self):
        """Every dropping replaced by its own bytes: the sizes stay, the
        inode and mtime are new."""
        self.close_writers()
        for pair in self.container.droppings():
            for path in pair:
                if os.path.exists(path):
                    fd, tmp = tempfile.mkstemp(dir=self.tmp)
                    os.close(fd)
                    shutil.copyfile(path, tmp)
                    os.replace(tmp, path)

    # -- the property ----------------------------------------------------- #

    @invariant()
    def the_cache_maps_every_byte_where_a_scratch_build_does(self):
        try:
            expected = scratch(self.container)
        except CorruptIndexError:
            assert self.torn
            with pytest.raises(CorruptIndexError):
                self.cache.get(self.container)
        else:
            loaded, _ = self.cache.get(self.container)
            assert resolution(loaded.index, loaded.data_paths) == expected
            self.handed.append(
                (loaded.index, loaded.index.segments(), loaded.data_paths, list(loaded.data_paths)))
            if not self.writers:
                self.end = loaded.index.logical_size
        # nothing handed out earlier was touched by what came after
        for index, segments, paths, frozen_paths in self.handed:
            assert index.segments() == segments and paths == frozen_paths

    def teardown(self):
        try:
            self.abandon_writers()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


FollowedContainer.TestCase.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None
)
TestFollowedContainer = FollowedContainer.TestCase
