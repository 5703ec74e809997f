"""Multi-process container tests: the N-writers-one-file scenario.

PLFS's whole point is N processes writing one logical file without
coordination.  These tests run real concurrent *subprocesses* (not
threads) against one container — each becomes its own pid and therefore
its own dropping stream — and verify the merged result.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro import plfs

WRITER = """
import os, sys
from repro import plfs

path, rank, block = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
payload = bytes([65 + rank]) * block
# Interleaved stripes: rank r owns blocks r, r+N, r+2N...
for step in range(4):
    offset = (step * 4 + rank) * block
    plfs.plfs_write(fd, payload, block, offset)
plfs.plfs_close(fd)
"""


@pytest.mark.parametrize("block", [64, 4096])
def test_concurrent_subprocess_writers(container_path, block):
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, container_path, str(rank), str(block)]
        )
        for rank in range(4)
    ]
    for p in procs:
        assert p.wait() == 0

    # Four writers, each with its own dropping pair.
    container = plfs.Container(container_path)
    assert len(container.droppings()) == 4

    fd = plfs.plfs_open(container_path, os.O_RDONLY)
    data = plfs.plfs_read(fd, 16 * block, 0)
    plfs.plfs_close(fd)
    expected = b"".join(
        bytes([65 + rank]) * block for _ in range(4) for rank in range(4)
    )
    assert data == expected
    assert plfs.plfs_getattr(container_path).st_size == 16 * block


CREATOR = """
import os, sys, time
from repro import plfs

root, go, files = sys.argv[1], sys.argv[2], int(sys.argv[3])
while not os.path.exists(go):
    time.sleep(0.001)
won = 0
for i in range(files):
    plfs.plfs_create(f"{root}/shared{i}")  # idempotent: losing is not an error
    try:
        fd = plfs.plfs_open(f"{root}/excl{i}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except plfs.ContainerExistsError:
        continue
    plfs.plfs_close(fd)
    won += 1
print(won)
"""


def test_concurrent_creators_one_winner_no_leftovers(backend, tmp_path):
    """Creators in different processes race the atomic build-then-rename:
    every path ends up one complete container, ``O_EXCL`` has exactly one
    winner per path, and no loser's temporary skeleton survives."""
    files, go = 40, str(tmp_path / "go")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CREATOR, backend, go, str(files)],
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    open(go, "w").close()
    wins = [int(p.communicate()[0]) for p in procs]
    assert [p.returncode for p in procs] == [0] * 4
    assert sum(wins) == files
    expected = sorted(f"{kind}{i}" for kind in ("shared", "excl") for i in range(files))
    assert sorted(os.listdir(backend)) == expected
    assert all(plfs.is_container(os.path.join(backend, name)) for name in expected)


HELD_READER = """
import os, sys, time
from repro.core.interpose import Interposer

mnt, backend, ready, go = sys.argv[1:5]
with Interposer([(mnt, backend)]) as ip:
    fd = os.open(mnt + "/file", os.O_RDONLY)
    before = os.pread(fd, 64, 0)  # builds the handle's index
    reader = ip.shim.table.lookup(fd).plfs_fd._reader
    held = reader._gen_fd is not None
    open(ready, "w").close()
    while not os.path.exists(go):
        time.sleep(0.001)
    after = os.pread(fd, 64, 0)  # the very next read
    print(before.decode(), after.decode(), held, reader.stats["cross_process_refreshes"])
    os.close(fd)
"""


@pytest.mark.parametrize("generation_file_at_build", [True, False])
def test_open_reader_sees_a_foreign_fsync_on_its_next_pread(
    tmp_path, backend, container_path, generation_file_at_build
):
    """A reader process keeps its handle open while another process writes
    and ``fsync``s (no close): the reader's next ``pread`` returns the new
    bytes — whether it revalidates on the generation file it holds open
    since its index was built, or (none existed then) by probing the path."""
    mnt = str(tmp_path / "mnt" / "plfs")
    ready, go = str(tmp_path / "ready"), str(tmp_path / "go")
    container = plfs.Container(container_path)
    if generation_file_at_build:
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"old!", 4, 0)
        plfs.plfs_close(fd)
    else:
        plfs.plfs_create(container_path)
    assert os.path.exists(container.generation_path()) == generation_file_at_build

    reader = subprocess.Popen(
        [sys.executable, "-c", HELD_READER, mnt, backend, ready, go],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        while not os.path.exists(ready):
            assert reader.poll() is None
            time.sleep(0.001)
        fd = plfs.plfs_open(container_path, os.O_WRONLY)
        plfs.plfs_write(fd, b"fresh", 5, 4)
        plfs.plfs_sync(fd)  # flushed and announced; the handle stays open
        open(go, "w").close()
        out, _ = reader.communicate(timeout=60)
        plfs.plfs_close(fd)
    finally:
        reader.kill()
    assert reader.returncode == 0
    old = "old!" if generation_file_at_build else ""
    after = "old!fresh" if generation_file_at_build else "\x00" * 4 + "fresh"
    assert out.split("\n")[0] == f"{old} {after} {generation_file_at_build} 1"


FOLLOWED_WRITER = """
import os, sys
from repro import plfs

path, rounds = sys.argv[1], int(sys.argv[2])
fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
for i in range(rounds + 1):
    # two records a round, the later block first: nothing merges
    plfs.plfs_write(fd, bytes([65 + i % 26]) * 8, 8, 16 * i + 8)
    plfs.plfs_write(fd, bytes([97 + i % 26]) * 8, 8, 16 * i)
    plfs.plfs_sync(fd)  # flushed and announced; the handle stays open
    print(i, flush=True)
    sys.stdin.readline()  # until the reader has looked
plfs.plfs_close(fd)
"""


def test_open_reader_follows_fifty_foreign_fsyncs_with_one_build(container_path):
    """The monitor behind a checkpoint, across a process boundary: each
    ``fsync`` of the child is seen by the parent's open reader on its very
    next ``pread``, and costs it the tail of the index dropping — the one
    full build is the first."""
    from repro.plfs.cache import shared_cache
    from repro.plfs.reader import ReadFile

    rounds = 50
    child = subprocess.Popen(
        [sys.executable, "-c", FOLLOWED_WRITER, container_path, str(rounds)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    reader = None
    try:
        for i in range(rounds + 1):
            assert child.stdout.readline().strip() == str(i)
            if reader is None:
                reader = ReadFile(plfs.Container(container_path))
            block = bytes([97 + i % 26]) * 8 + bytes([65 + i % 26]) * 8
            assert reader.read(32, 16 * i) == block  # the next pread; nothing past it yet
            child.stdin.write("\n")
            child.stdin.flush()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        if reader is not None:
            reader.close()
    stats = shared_cache().stats
    assert stats["merged_builds"] == 1 and stats["compacted_loads"] == 0
    assert stats["extensions"] == rounds
    assert reader.stats["cross_process_refreshes"] == rounds
    assert reader.stats["index_builds"] == rounds + 1  # handle refreshes, as ever


SHIM_WRITER = """
import contextlib, os, sys
from repro.core.interpose import Interposer
from repro.faults import injector_from_env

mnt, backend, rank, ranks, block, steps = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]),
    int(sys.argv[5]), int(sys.argv[6]),
)
ip = Interposer([(mnt, backend)])
ip.install()
inj = injector_from_env()
ctx = inj.armed() if inj else contextlib.nullcontext()
with ctx:
    fd = os.open(mnt + "/file", os.O_CREAT | os.O_WRONLY)
    payload = bytes([65 + rank]) * block
    for step in range(steps):
        offset = (step * ranks + rank) * block
        assert os.pwrite(fd, payload, offset) == block
    os.close(fd)
# The kill-window bookkeeping: nothing may linger in the fd table.
assert len(ip.shim.table) == 0, "fd table not empty at exit"
ip.uninstall()
print(len(inj.fired()) if inj else 0)
"""


def test_shim_stress_with_transient_faults(tmp_path, container_path, backend):
    """N writer processes through the installed shim while the injector
    peppers the backing store with EINTR and short writes: the retry
    policy must absorb every one — full data, empty fd tables, no orphan
    droppings, no stale markers."""
    mnt = str(tmp_path / "mnt" / "plfs")
    ranks, block, steps = 3, 64, 8
    env = dict(
        os.environ,
        REPRO_FAULTS=(
            "data_write:eintr:every=5:count=inf;"
            "data_write:short:every=7:count=inf:bytes=3"
        ),
        REPRO_FAULT_SEED="7",
    )
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-c", SHIM_WRITER,
                mnt, backend, str(rank), str(ranks), str(block), str(steps),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for rank in range(ranks)
    ]
    fired = 0
    for p in procs:
        out, _ = p.communicate()
        assert p.returncode == 0
        fired += int(out.strip())
    assert fired > 0  # the run was genuinely faulted, not a clean pass

    container = plfs.Container(container_path)
    assert container.open_writers() == []  # every close reached unregister
    # No dropping orphaned: every data dropping has its index, no WALs.
    for index_path, data_path in container.droppings():
        assert os.path.exists(index_path) and os.path.exists(data_path)
    assert len(container.droppings()) == ranks
    report = plfs.plfs_check(container_path)
    assert report.ok, report.render()

    fd = plfs.plfs_open(container_path, os.O_RDONLY)
    data = plfs.plfs_read(fd, ranks * block * steps, 0)
    plfs.plfs_close(fd)
    expected = b"".join(
        bytes([65 + rank]) * block for _ in range(steps) for rank in range(ranks)
    )
    assert data == expected


def test_concurrent_writers_meta_consistent(container_path):
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, container_path, str(rank), "256"]
        )
        for rank in range(3)
    ]
    for p in procs:
        assert p.wait() == 0
    # All markers released, cached size trustworthy and correct.
    container = plfs.Container(container_path)
    assert container.open_writers() == []
    # Ranks 0..2 of a 4-way interleave: the last written block is rank 2's
    # step-3 stripe, ending at block 15 (stripe 3 of each step is a hole).
    assert container.cached_size() == 15 * 256
    report = plfs.plfs_check(container_path)
    assert report.ok
