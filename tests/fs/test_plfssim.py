"""Tests for the simulated PLFS container cost model."""

from __future__ import annotations

import pytest

from repro.cluster import SIERRA, Platform
from repro.fs import CONTAINER_CREATE_OPS, DROPPING_CREATE_OPS, PlfsContainerSim, PosixClient
from repro.sim import Environment
from repro.sim.stats import MB


def setup():
    env = Environment()
    platform = Platform(env, SIERRA)
    return env, platform, PlfsContainerSim(platform, "file")


def run(env, gen):
    return env.run(until=env.process(gen))


class TestOpenWrite:
    def test_first_open_creates_container(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        counts = platform.mds.ops.counts
        assert counts["container_create"] == CONTAINER_CREATE_OPS
        assert counts["hostdir_mkdir"] == 1
        assert counts["openhost_create"] == 1

    def test_second_open_same_node_skips_skeleton(self):
        env, platform, c = setup()
        run(env, c.register_open(PosixClient(platform, 0, 0)))
        run(env, c.register_open(PosixClient(platform, 0, 1)))
        counts = platform.mds.ops.counts
        assert counts["container_create"] == CONTAINER_CREATE_OPS
        assert counts["hostdir_mkdir"] == 1
        assert counts["openhost_create"] == 2

    def test_new_node_adds_hostdir(self):
        env, platform, c = setup()
        run(env, c.register_open(PosixClient(platform, 0, 0)))
        run(env, c.register_open(PosixClient(platform, 1, 0)))
        assert platform.mds.ops.counts["hostdir_mkdir"] == 2


class TestWritePath:
    def test_first_write_creates_dropping_pair(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.write(client, 8 * MB))
        assert platform.mds.ops.counts["dropping_create"] == DROPPING_CREATE_OPS
        assert c.dropping_count == 1
        run(env, c.write(client, 8 * MB))
        assert platform.mds.ops.counts["dropping_create"] == DROPPING_CREATE_OPS

    def test_one_dropping_per_writer(self):
        env, platform, c = setup()
        for proc in range(4):
            client = PosixClient(platform, 0, proc)
            run(env, c.register_open(client))
            run(env, c.write(client, 1 * MB, cache_gate=float("inf")))
        assert c.dropping_count == 4
        assert c.logical_bytes() == 4 * MB

    def test_writes_are_sequential_appends(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.write(client, 8 * MB))
        t1 = env.now
        run(env, c.write(client, 8 * MB))
        # Second write costs the same as the first: no seek accrues.
        assert env.now - t1 == pytest.approx(t1, rel=0.05)


class TestClose:
    def test_close_flushes_index_and_drops_meta(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.write(client, 8 * MB))
        before = c.writers()[0].data.size
        run(env, c.close_write(client))
        assert c.writers()[0].data.size > before  # index records appended
        assert platform.mds.ops.counts["close_meta"] == 2

    def test_close_without_write_is_cheap(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.close_write(client))
        assert platform.mds.ops.counts["close_meta"] == 1

    def test_double_close_single_flush(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.write(client, 8 * MB))
        run(env, c.close_write(client))
        size = c.writers()[0].data.size
        run(env, c.close_write(client))
        assert c.writers()[0].data.size == size


class TestReadPath:
    def test_first_reader_builds_index(self):
        env, platform, c = setup()
        for proc in range(3):
            client = PosixClient(platform, 0, proc)
            run(env, c.register_open(client))
            run(env, c.write(client, 8 * MB))
            run(env, c.close_write(client))
        reader = PosixClient(platform, 0, 0)
        run(env, c.open_read(reader))
        counts = platform.mds.ops.counts
        assert counts["container_readdir"] == 1
        assert counts["hostdir_readdir"] == 1

    def test_second_reader_stats_only(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.write(client, 8 * MB))
        run(env, c.close_write(client))
        run(env, c.open_read(PosixClient(platform, 0, 0)))
        run(env, c.open_read(PosixClient(platform, 0, 1)))
        counts = platform.mds.ops.counts
        assert counts["container_readdir"] == 1
        assert counts["container_stat"] == 1

    def test_read_own_scans_dropping(self):
        env, platform, c = setup()
        client = PosixClient(platform, 0, 0)
        run(env, c.register_open(client))
        run(env, c.write(client, 8 * MB))
        served = c.writers()[0].data.server.bytes_serviced
        run(env, c.read_own(client, 8 * MB))
        assert c.writers()[0].data.server.bytes_serviced == served + 8 * MB


class TestRecordModel:
    def test_record_size_is_the_real_index_record(self):
        from repro.fs.plfssim import RECORD_SIZE
        from repro.plfs.index import RECORD_SIZE as REAL_RECORD_SIZE

        assert RECORD_SIZE == REAL_RECORD_SIZE

    def test_simulator_loads_no_plfs_stack(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.mpiio.file\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.plfs')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"
