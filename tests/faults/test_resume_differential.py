"""The shim's one write loop, differentially: every write entry point
against a flat file while the backing store shortens and interrupts appends.

``tests/faults/test_retry.py`` pins the retry policy case by case.  This
drives seeded streams of ``os.write`` / ``os.pwrite`` / ``os.writev`` /
``os.pwritev`` (iovecs of 1–5 buffers, some empty) and a buffered file
object through a store that, from the same seed, raises ``EINTR``/``EAGAIN``
and cuts appends short — inside a buffer and exactly between two.  The
application must see what a flat file shows (Ching et al.'s list-I/O rule:
one request, many extents, one outcome), and the store's own record of what
it played is the oracle for the shim's counters and backoff sleeps: one
retry and one sleep per transient failure, the schedule restarting with
every attempt, one resume per short return.
"""

from __future__ import annotations

import errno
import os
import random

import pytest

from repro.core import RetryPolicy
from repro.core.interpose import Interposer
from repro.plfs import backing
from repro.plfs.route import posix

SIZES = (0, 1, 2, 7, 64, 300)


class ScriptedStore(backing.BackingStore):
    """Plays seeded faults into data appends and keeps the script."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        #: lengths of the maximal runs of consecutive transient failures
        #: (a run belongs to one attempt: the call after a failure is its retry)
        self.runs: list[int] = []
        self._run = 0
        self.cuts = {"inside": 0, "between": 0}

    def _play(self, fd: int, views: list) -> int | None:
        rng = self.rng
        if self._run < 3 and rng.random() < 0.3:  # never exhausts the policy's 5 attempts
            self._run += 1
            err = rng.choice((errno.EINTR, errno.EAGAIN))
            raise OSError(err, os.strerror(err))
        if self._run:
            self.runs.append(self._run)
            self._run = 0
        total = sum(map(len, views))
        if total < 2 or rng.random() >= 0.4:
            return None  # this one goes through whole
        edges, at = [], 0
        for view in views[:-1]:
            at += len(view)
            if 0 < at < total:
                edges.append(at)
        if edges and rng.random() < 0.5:
            cut = rng.choice(edges)
        else:
            cut = rng.randrange(1, total)
        self.cuts["between" if cut in edges else "inside"] += 1
        return posix.write(fd, b"".join(views)[:cut])

    def write_data(self, fd, buf, path):
        n = self._play(fd, [buf])
        return super().write_data(fd, buf, path) if n is None else n

    def write_datav(self, fd, buffers, path):
        n = self._play(fd, list(buffers))
        return super().write_datav(fd, buffers, path) if n is None else n


@pytest.fixture
def scripted(seed, mnt, backend, fault_seed):
    """(shim, store, recorded sleeps, rng for the stream) under one seed."""
    seed = f"{fault_seed}:{seed}"
    store = ScriptedStore(random.Random(seed + ":faults"))
    slept: list[float] = []
    policy = RetryPolicy(backoff_base=0.001, backoff_factor=2.0)
    policy.sleep = slept.append
    ip = Interposer([(mnt, backend)])
    ip.shim.retry = policy
    ip.install()
    previous = backing.install(store)
    try:
        yield ip.shim, store, slept, random.Random(seed + ":stream")
    finally:
        backing.install(previous)
        ip.drain()
        ip.uninstall()


def check_the_script_was_absorbed(shim, store, slept):
    delays = shim.retry.delays()
    assert store.runs and store.cuts["inside"], (store.runs, store.cuts)
    assert shim.stats["transient_retries"] == sum(store.runs)
    assert slept == [delay for run in store.runs for delay in delays[:run]]
    assert shim.stats["short_write_resumes"] == sum(store.cuts.values())


def payload(rng: random.Random, size: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(size))


@pytest.mark.parametrize("seed", range(1, 7))
def test_descriptor_writes_match_a_flat_file(scripted, seed, mnt, tmp_path):
    shim, store, slept, rng = scripted
    flags = os.O_CREAT | os.O_RDWR
    fds = [os.open(str(tmp_path / "flat"), flags), os.open(f"{mnt}/f", flags)]
    for step in range(80):
        kind = rng.choice(("write", "pwrite", "writev", "pwritev", "lseek"))
        iov = [payload(rng, rng.choice(SIZES)) for _ in range(rng.randint(1, 5))]
        offset = rng.randrange(2000)
        seen = []
        for fd in fds:  # flat first: the store's script is the mount's alone
            if kind == "write":
                got = os.write(fd, iov[0])
            elif kind == "pwrite":
                got = os.pwrite(fd, iov[0], offset)
            elif kind == "writev":
                got = os.writev(fd, iov)
            elif kind == "pwritev":
                got = os.pwritev(fd, iov, offset)
            else:
                got = os.lseek(fd, offset, os.SEEK_SET)
            seen.append((got, os.lseek(fd, 0, os.SEEK_CUR), os.fstat(fd).st_size))
        assert seen[0] == seen[1], (step, kind, offset, [len(b) for b in iov])
    flat, mount = (os.pread(fd, 1 << 16, 0) for fd in fds)
    for fd in fds:
        os.close(fd)
    assert mount == flat
    with open(f"{mnt}/f", "rb") as fh:  # and from the droppings alone
        assert fh.read() == flat
    assert store.cuts["between"], store.cuts
    check_the_script_was_absorbed(shim, store, slept)


@pytest.mark.parametrize("seed", range(1, 4))
def test_buffered_file_object_writes_match_a_flat_file(scripted, seed, mnt, tmp_path):
    shim, store, slept, rng = scripted
    paths = [str(tmp_path / "flat"), f"{mnt}/f"]
    files = [open(path, "w+b", buffering=128) for path in paths]
    for step in range(200):
        data = payload(rng, rng.choice(SIZES))
        seek = rng.randrange(3000) if rng.random() < 0.2 else None
        seen = []
        for fh in files:
            if seek is not None:
                fh.seek(seek)
            seen.append((fh.write(data), fh.tell()))
        assert seen[0] == seen[1], step
    for fh in files:
        fh.close()
    contents = []
    for path in paths:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    assert contents[1] == contents[0]
    check_the_script_was_absorbed(shim, store, slept)
