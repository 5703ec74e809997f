"""Property-based equivalence of the three read routes.

The fast lane adds two shortcuts the read path may take — the persistent
compacted ``global.index`` and the process-wide shared index cache — on
top of the slow per-dropping merge.  Whatever route a read takes, the
bytes must be identical: over seeded random write schedules (overwrites,
holes, many pids) and after a ``repro-fsck`` repair.  And whatever *entry point* a window is read
through — ``read``, ``read_into``, the shim's ``os.pread`` / ``os.readv``
/ file-object ``readinto``, the one-pread-per-slice reference — the bytes
must be the model's.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import plfs
from repro.core.interpose import Interposer
from repro.plfs import constants
from repro.plfs.fsck import fsck
from repro.plfs.cache import compact, load_index, shared_cache
from repro.plfs.container import Container
from repro.plfs.reader import ReadFile
from repro.plfs.writer import WriteFile

MAX_FILE = 4096

schedules = st.lists(
    st.tuples(
        st.integers(0, MAX_FILE),  # offset
        st.binary(min_size=1, max_size=256),  # payload
        st.integers(0, 4),  # pid → dropping
    ),
    min_size=1,
    max_size=30,
)


def apply_model(writes):
    model = bytearray()
    for offset, payload, _pid in writes:
        end = offset + len(payload)
        if len(model) < end:
            model.extend(b"\x00" * (end - len(model)))
        model[offset:end] = payload
    return bytes(model)


def read_all_routes(path, expected):
    """Read the container through every route and assert byte equality."""
    container = Container(path)
    n = len(expected) + 64

    # Route 1: slow path — per-dropping merge, no shared state.
    with ReadFile(container, use_shared_cache=False) as r:
        assert r.read(n, 0) == expected, "merge route diverged"

    # Route 2: compacted file.
    compact(container)
    loaded = load_index(container)
    assert loaded.source == "compacted"
    shared_cache().clear()
    with ReadFile(container) as r:
        assert r.read(n, 0) == expected, "compacted route diverged"

    # Route 3: warm shared cache (second open hits).
    with ReadFile(container) as r:
        assert r.read(n, 0) == expected, "cached route diverged"
    assert shared_cache().stats["hits"] >= 1

    # Coalescing off must agree too (plan-execution equivalence).
    with ReadFile(container, coalesce=False, use_shared_cache=False) as r:
        assert r.read(n, 0) == expected, "uncoalesced route diverged"


@settings(max_examples=40, deadline=None)
@given(writes=schedules)
def test_three_routes_byte_identical(writes):
    tmp = tempfile.mkdtemp()
    try:
        path = os.path.join(tmp, "f")
        fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
        for offset, payload, pid in writes:
            plfs.plfs_write(fd, payload, len(payload), offset, pid=pid)
        plfs.plfs_close(fd)
        # this test wants the merge route: discard what the close compacted
        Container(path).drop_global_index()
        assert not os.path.exists(Container(path).global_index_path())
        read_all_routes(path, apply_model(writes))
    finally:
        shared_cache().clear()
        shutil.rmtree(tmp, ignore_errors=True)


#: (offset, count) windows: inside the file, across its end, past it, empty
windows = st.lists(
    st.tuples(st.integers(0, MAX_FILE + 300), st.integers(0, 1500)), min_size=1, max_size=8
)

POISON = 0xFF


@settings(max_examples=40, deadline=None)
@given(writes=schedules, windows=windows)
def test_every_entry_point_reads_the_models_window(writes, windows):
    tmp = tempfile.mkdtemp()
    try:
        backend, mnt = os.path.join(tmp, "backend"), os.path.join(tmp, "mnt")
        os.makedirs(backend)
        path = os.path.join(backend, "f")
        fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
        for offset, payload, pid in writes:
            plfs.plfs_write(fd, payload, len(payload), offset, pid=pid)
        plfs.plfs_close(fd)
        model = apply_model(writes)

        def filled(n: int, expect: bytes, dest: bytearray) -> None:
            """*dest* holds the window, and poison wherever it was not told to write."""
            assert n == len(expect)
            assert dest[:n] == expect and dest[n:] == bytes([POISON]) * (len(dest) - n)

        container = Container(path)
        with ReadFile(container) as fast, \
                ReadFile(container, coalesce=False, use_shared_cache=False) as reference, \
                Interposer([(mnt, backend)]):
            fd = os.open(os.path.join(mnt, "f"), os.O_RDONLY)
            with open(os.path.join(mnt, "f"), "rb", buffering=0) as raw:
                for offset, count in windows:
                    expect = model[offset : offset + count]
                    assert fast.read(count, offset) == expect
                    assert reference.read(count, offset) == expect
                    for reader in (fast, reference):
                        dest = bytearray([POISON]) * count
                        filled(reader.read_into(dest, offset), expect, dest)
                    assert os.pread(fd, count, offset) == expect
                    head = bytearray([POISON]) * (count // 3)
                    tail = bytearray([POISON]) * (count - count // 3)
                    n = os.preadv(fd, [head, tail], offset)
                    filled(n, expect, head + tail)
                    os.lseek(fd, offset, os.SEEK_SET)
                    dest = bytearray([POISON]) * count
                    filled(os.readv(fd, [dest]), expect, dest)
                    assert os.lseek(fd, 0, os.SEEK_CUR) == offset + len(expect)
                    raw.seek(offset)
                    dest = bytearray([POISON]) * count
                    filled(raw.readinto(dest), expect, dest)
            os.close(fd)
    finally:
        shared_cache().clear()
        shutil.rmtree(tmp, ignore_errors=True)


@settings(max_examples=20, deadline=None)
@given(writes=schedules)
def test_routes_agree_after_fsck_repair(writes):
    """A writer that crashes after a sync leaves an unindexed data tail;
    fsck trims it.  Every read route over the repaired container must
    match the synced model — and the pre-crash compacted index must never
    leak stale bytes in."""
    tmp = tempfile.mkdtemp()
    try:
        path = os.path.join(tmp, "f")
        container = Container(path)
        container.create()

        # An earlier clean generation, compacted (on request: its one
        # dropping gives a close no merge to skip).
        fd = plfs.plfs_open(path, os.O_WRONLY)
        plfs.plfs_write(fd, b"\xee" * 32, 32, 0)
        plfs.plfs_close(fd)
        compact(container)
        assert os.path.exists(container.global_index_path())

        # A writer that "crashes": the first half synced, the rest's data
        # persisted but its index never flushed, openhost marker left behind.
        synced = writes[: len(writes) // 2]
        w = WriteFile(container)
        for offset, payload, pid in synced:
            w.write(payload, offset, pid=pid)
        w.sync()
        for offset, payload, pid in writes[len(synced):]:
            w.write(payload, offset, pid=pid)
        container.register_open(os.getpid())
        del w  # no close(): the index flush never happens

        report = fsck(path)
        assert report.check is not None and report.check.ok
        # fsck must have discarded the stale compacted index.
        assert not os.path.exists(container.global_index_path())

        model = bytearray(b"\xee" * 32)
        for offset, payload, _pid in synced:
            end = offset + len(payload)
            if len(model) < end:
                model.extend(b"\x00" * (end - len(model)))
            model[offset:end] = payload
        read_all_routes(path, bytes(model))
    finally:
        shared_cache().clear()
        shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flatten_then_routes_agree(container_path, seed):
    """plfs_flatten_index rewrites the physical layout and refreshes the
    compacted index; every route must still serve the same bytes."""
    import random

    rng = random.Random(seed)
    container = Container(container_path)
    container.create()
    writes = [
        (rng.randrange(0, 2048), os.urandom(rng.randrange(1, 128)), rng.randrange(3))
        for _ in range(20)
    ]
    # The rewrite leaves one dropping, which is compacted only past the
    # record bound (decision 17): a comb of single bytes takes it there.
    writes += [
        (4096 + 2 * i, b"\xa5", 0) for i in range(constants.COMPACT_MIN_RECORDS + 1)
    ]
    fd = plfs.plfs_open(container_path, os.O_WRONLY)
    for offset, payload, pid in writes:
        plfs.plfs_write(fd, payload, len(payload), offset, pid=pid)
    plfs.plfs_close(fd)
    plfs.plfs_flatten_index(container_path)
    assert load_index(container).source == "compacted"
    read_all_routes(container_path, apply_model(writes))
