"""Integration tests for the plfsd daemon: the create hop, shim routing,
fallback (a missing, dying or stopped daemon), multi-client coherence.

Unix socket paths are capped around 107 bytes, so sockets live in a short
``/tmp`` directory rather than under pytest's (deep) tmp_path.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

import pytest

from repro import plfs
from repro.core.interpose import Interposer
from repro.plfs.api import access_mode
from repro.plfs.errors import ContainerExistsError
from repro.plfsd import client as client_mod
from repro.plfsd import stress
from repro.plfsd.client import PlfsdUnavailable, connect


@pytest.fixture
def arena():
    """A short-lived, short-pathed directory holding socket + backend."""
    d = tempfile.mkdtemp(prefix="plfsd-", dir="/tmp")
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


@pytest.fixture
def sock(arena):
    return os.path.join(arena, "plfsd.sock")


@pytest.fixture
def dbackend(arena):
    path = os.path.join(arena, "backend")
    os.makedirs(path)
    return path


@pytest.fixture
def daemon(sock):
    """A running daemon subprocess."""
    proc = stress.start_daemon(sock)
    try:
        yield proc
    finally:
        stress.stop_daemon(proc, sock)


class TestWireOperations:
    def test_write_read_getattr_roundtrip(self, daemon, sock, dbackend):
        """Every access mode opens through the client: the create is the
        daemon's, the handle an ordinary in-process one."""
        path = os.path.join(dbackend, "file")
        with connect(sock, name="t1") as client:
            fd = client.open(path, os.O_CREAT | os.O_RDWR, 0o600)
            assert isinstance(fd, plfs.Plfs_fd)
            assert plfs.plfs_write(fd, b"hello daemon", 12, 0) == 12
            assert plfs.plfs_read(fd, 6, 6) == b"daemon"
            plfs.plfs_sync(fd)
            assert plfs.plfs_getattr(fd).st_size == 12
            assert plfs.plfs_close(fd) == 0
            assert client.stats()["aggregate"]["creates"] == 1
        assert plfs.Container(path).mode() == 0o600  # the create's mode
        rfd = plfs.plfs_open(path, os.O_RDONLY)
        assert plfs.plfs_read(rfd, 12, 0) == b"hello daemon"
        plfs.plfs_close(rfd)

    def test_create_unlink(self, daemon, sock, dbackend):
        """The daemon keeps no memory of what it created: a container
        unlinked behind its back is created again on the next request."""
        path = os.path.join(dbackend, "made")
        with connect(sock) as client:
            client.create(path, 0o644)
            assert plfs.is_container(path)
            plfs.plfs_unlink(path)
            assert not plfs.is_container(path)
            client.create(path, 0o644, exclusive=True)
            assert plfs.is_container(path)

    def test_trunc_through_daemon(self, daemon, sock, dbackend):
        """A truncating create keeps ``O_TRUNC``: only ``O_CREAT``/``O_EXCL``
        stay behind with the daemon."""
        path = os.path.join(dbackend, "t")
        with connect(sock) as client:
            fd = client.open(path, os.O_CREAT | os.O_WRONLY)
            plfs.plfs_write(fd, b"0123456789", 10, 0)
            plfs.plfs_close(fd)
            fd = client.open(path, os.O_CREAT | os.O_TRUNC | os.O_RDWR)
            assert plfs.plfs_getattr(fd).st_size == 0
            plfs.plfs_write(fd, b"abc", 3, 0)
            assert plfs.plfs_read(fd, 10, 0) == b"abc"
            plfs.plfs_close(fd)

    def test_error_envelope_preserves_class_and_errno(self, daemon, sock, dbackend):
        path = os.path.join(dbackend, "twice")
        with connect(sock) as client:
            client.create(path)
            with pytest.raises(ContainerExistsError) as exc_info:
                client.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            assert exc_info.value.errno == errno.EEXIST
            # The connection survives the error: next request works.
            assert client.ping() > 0
            assert client.stats()["aggregate"]["errors"] == 1

    def test_stats_accounting(self, daemon, sock, dbackend):
        with connect(sock, name="counter") as client:
            for i in range(3):
                plfs.plfs_close(
                    client.open(os.path.join(dbackend, f"acct{i}"), os.O_CREAT | os.O_RDWR)
                )
            # an open that creates nothing never reaches the daemon
            plfs.plfs_close(client.open(os.path.join(dbackend, "acct0"), os.O_RDONLY))
            stats = client.stats()
        agg = stats["aggregate"]
        assert agg["creates"] == 3
        assert agg["queue_wait_seconds"] >= 0.0
        assert agg["errors"] == 0
        (named,) = [c for c in stats["per_client"] if c["name"] == "counter"]
        assert named["creates"] == 3 and named["id"] == client.client_id


class TestShimRouting:
    def test_unmodified_script_routes_through_daemon(self, daemon, sock, dbackend, arena):
        mnt = os.path.join(arena, "mnt")
        ip = Interposer([(mnt, dbackend + "?daemon=" + sock)])
        ip.install()
        try:
            with open(os.path.join(mnt, "app.dat"), "wb") as fh:
                fh.write(b"A" * 512)
            with open(os.path.join(mnt, "app.dat"), "rb") as fh:
                assert fh.read() == b"A" * 512
            assert os.stat(os.path.join(mnt, "app.dat")).st_size == 512
            assert ip.shim.stats["daemon_creates"] == 1
            assert ip.shim.stats["daemon_fallbacks"] == 0
        finally:
            ip.uninstall()

    def test_write_only_open_delegates_data_plane(self, daemon, sock, dbackend, arena):
        mnt = os.path.join(arena, "mnt")
        ip = Interposer([(mnt, dbackend + "?daemon=" + sock)])
        ip.install()
        try:
            with open(os.path.join(mnt, "dl.dat"), "wb") as fh:
                fh.write(b"B" * 1024)
                entry = ip.shim.table.lookup(fh.fileno())
                assert isinstance(entry.plfs_fd, plfs.Plfs_fd)
            with open(os.path.join(mnt, "dl.dat"), "rb") as fh:
                assert fh.read() == b"B" * 1024
            # The create was the daemon's; the read open created nothing
            # and never reached it.
            assert ip.shim.stats["daemon_creates"] == 1
            with connect(sock) as probe:
                assert probe.stats()["aggregate"]["creates"] == 1
        finally:
            ip.uninstall()

    def test_fallback_when_no_daemon(self, sock, dbackend, arena):
        mnt = os.path.join(arena, "mnt")
        ip = Interposer([(mnt, dbackend + "?daemon=" + sock)])  # nothing listens
        ip.install()
        try:
            with open(os.path.join(mnt, "fb.dat"), "wb") as fh:
                fh.write(b"still works")
            with open(os.path.join(mnt, "fb.dat"), "rb") as fh:
                assert fh.read() == b"still works"
            assert ip.shim.stats["daemon_creates"] == 0
            assert ip.shim.stats["daemon_fallbacks"] == 1  # the read creates nothing
        finally:
            ip.uninstall()

    def test_daemon_death_mid_session_falls_back(self, sock, dbackend, arena):
        mnt = os.path.join(arena, "mnt")
        proc = stress.start_daemon(sock)
        ip = Interposer([(mnt, dbackend + "?daemon=" + sock)])
        ip.install()
        try:
            with open(os.path.join(mnt, "one.dat"), "wb") as fh:
                fh.write(b"via daemon")
            assert ip.shim.stats["daemon_creates"] == 1
            stress.stop_daemon(proc, sock)
            with open(os.path.join(mnt, "two.dat"), "wb") as fh:
                fh.write(b"via fallback")
            assert ip.shim.stats["daemon_fallbacks"] >= 1
            with open(os.path.join(mnt, "one.dat"), "rb") as fh:
                assert fh.read() == b"via daemon"
            with open(os.path.join(mnt, "two.dat"), "rb") as fh:
                assert fh.read() == b"via fallback"
        finally:
            ip.uninstall()
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.terminate()
                proc.wait(timeout=5)

    def test_stopped_daemon_falls_back_instead_of_hanging(
        self, daemon, sock, dbackend, arena, monkeypatch
    ):
        """A daemon that accepts but never answers (here: ``SIGSTOP``) costs
        a creating open one request timeout, then the in-process open."""
        monkeypatch.setattr(client_mod, "TIMEOUT", 0.5)
        mnt = os.path.join(arena, "mnt")
        ip = Interposer([(mnt, dbackend + "?daemon=" + sock)])
        os.kill(daemon.pid, signal.SIGSTOP)
        try:
            ip.install()
            try:
                def create_and_write():
                    with open(os.path.join(mnt, "late.dat"), "wb") as fh:
                        fh.write(b"not hung")

                worker = threading.Thread(target=create_and_write, daemon=True)
                worker.start()
                worker.join(timeout=30)
                assert not worker.is_alive(), "creating open hung on a stopped daemon"
                assert ip.shim.stats["daemon_fallbacks"] == 1
                assert ip.shim.stats["daemon_creates"] == 0
                with open(os.path.join(mnt, "late.dat"), "rb") as fh:
                    assert fh.read() == b"not hung"
            finally:
                ip.uninstall()
        finally:
            os.kill(daemon.pid, signal.SIGCONT)


DAEMON_WRITER = """
import os, sys
from repro import plfs
from repro.plfsd.client import connect

sock, path, rank, block, steps = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
)
with connect(sock, name=f"writer-{rank}") as client:
    fd = client.open(path, os.O_CREAT | os.O_WRONLY)
    payload = bytes([65 + rank]) * block
    for step in range(steps):
        offset = (step * 4 + rank) * block
        assert plfs.plfs_write(fd, payload, block, offset) == block
    plfs.plfs_close(fd)
print("ok")
"""


class TestCoherence:
    def test_four_daemon_writers_one_direct_reader(self, daemon, sock, dbackend):
        """≥4 concurrent writer processes creating through the daemon plus
        one direct-path reader in this process.  The generation-file
        protocol is the only coherence mechanism between them: every
        writer's flush bumps the container's generation file, and the
        reader's epoch-validated index revalidates with one stat."""
        path = os.path.join(dbackend, "shared")
        block, steps, ranks = 256, 4, 4

        # Open the direct-path reader BEFORE the storm: its cached index
        # must revalidate across the writers' flushes, not just load late.
        seed = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_close(seed)
        reader = plfs.plfs_open(path, os.O_RDONLY)
        assert plfs.plfs_getattr(reader).st_size == 0
        assert plfs.plfs_read(reader, 16, 0) == b""  # instantiate the index now

        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", DAEMON_WRITER,
                    sock, path, str(rank), str(block), str(steps),
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            for rank in range(ranks)
        ]
        for p in procs:
            out, _ = p.communicate(timeout=120)
            assert p.returncode == 0 and out.strip() == "ok"

        # Same process-unmodified handle, post-storm: size and bytes must
        # reflect what the writers flushed in other processes.
        expected = b"".join(
            bytes([65 + rank]) * block
            for _ in range(steps)
            for rank in range(ranks)
        )
        assert plfs.plfs_getattr(reader).st_size == len(expected)
        assert plfs.plfs_read(reader, len(expected), 0) == expected
        assert reader._reader is not None
        assert reader._reader.stats["cross_process_refreshes"] >= 1
        plfs.plfs_close(reader)

        # Each writer process kept its own dropping stream (PLFS's
        # per-writer partitioning; the daemon only made the container).
        assert len(plfs.Container(path).droppings()) >= ranks


class TestClientRobustness:
    def test_connect_refused_raises_unavailable(self, arena):
        with pytest.raises(PlfsdUnavailable):
            connect(os.path.join(arena, "nobody.sock"))

    def test_requests_after_close_raise_unavailable(self, daemon, sock):
        client = connect(sock)
        client.close()
        with pytest.raises(PlfsdUnavailable):
            client.ping()


class TestDelegation:
    def test_daemon_metadata_local_data(self, daemon, sock, dbackend):
        path = os.path.join(dbackend, "delegated")
        with connect(sock, name="delegator") as client:
            fd = client.open(path, os.O_CREAT | os.O_WRONLY)
            # The data plane is in-process: an ordinary local handle.
            assert isinstance(fd, plfs.Plfs_fd)
            assert plfs.plfs_write(fd, b"delegated bytes", 15, 0) == 15
            plfs.plfs_close(fd)
            assert client.stats()["aggregate"]["creates"] == 1  # the MDS hop
        rfd = plfs.plfs_open(path, os.O_RDONLY)
        assert plfs.plfs_read(rfd, 15, 0) == b"delegated bytes"
        plfs.plfs_close(rfd)

    def test_every_access_mode_and_exclusive_create_delegate(self, daemon, sock, dbackend):
        """``O_RDONLY``/``O_RDWR`` creates and ``O_EXCL`` go through the one
        ``open`` too; the exclusive create is atomic in the daemon."""
        with connect(sock) as client:
            for i, acc in enumerate((os.O_RDONLY, os.O_WRONLY, os.O_RDWR)):
                path = os.path.join(dbackend, f"mode{i}")
                fd = client.open(path, os.O_CREAT | os.O_EXCL | acc)
                assert (fd.readable, fd.writable) == access_mode(acc)
                plfs.plfs_close(fd)
                with pytest.raises(ContainerExistsError):
                    client.open(path, os.O_CREAT | os.O_EXCL | acc)
            assert client.stats()["aggregate"]["creates"] == 3
