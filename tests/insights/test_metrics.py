"""Tests for the unified IORunProfile builders."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.cluster import MINERVA, SIERRA
from repro.core.trace import traced
from repro.insights import IORunProfile, profile_from_run, profile_from_trace
from repro.mpiio import LDPLFS, MPIIO
from repro.workloads import run_bt, run_flashio, run_mpiio_test
from repro.workloads.flashio import HEADER_WRITES, NUM_VARIABLES


class TestProfileFromRun:
    @pytest.fixture(scope="class")
    def flashio_profile(self):
        result = run_flashio(SIERRA, LDPLFS, 2)
        return profile_from_run(result, SIERRA, LDPLFS, workload="flashio")

    def test_identity_and_scale(self, flashio_profile):
        p = flashio_profile
        assert p.source == "simulation"
        assert p.workload == "flashio"
        assert p.machine == "Sierra"
        assert p.method == "LDPLFS"
        assert p.nodes == 2 and p.ppn == 12 and p.ranks == 24

    def test_plfs_writer_count_from_dropping_creates(self, flashio_profile):
        # Every rank creates its own dropping pair: 24 writers, and the
        # opener count equals the rank count (all produce PLFS metadata).
        p = flashio_profile
        assert p.uses_plfs
        assert p.writers == 24
        assert p.openers == 24
        assert p.dropping_creates == 48  # data + index dropping per rank

    def test_write_size_histogram(self, flashio_profile):
        p = flashio_profile
        # 24 ranks x 24 variable slabs of ~8.5 MB, plus 8 x 64 KB headers.
        assert p.write_size_histogram["4M-10M"] == 24 * NUM_VARIABLES
        assert p.write_size_histogram["10K-100K"] == HEADER_WRITES
        assert p.write_calls == 24 * NUM_VARIABLES + HEADER_WRITES
        # Only the headers sit below the 4 MB write-through threshold.
        expected = HEADER_WRITES / p.write_calls
        assert p.small_write_fraction == pytest.approx(expected)

    def test_plfs_stream_is_sequential_log(self, flashio_profile):
        assert flashio_profile.sequentiality == 1.0
        assert not flashio_profile.shared_file

    def test_mds_plane_captured(self, flashio_profile):
        p = flashio_profile
        assert p.mds_dedicated and p.mds_count == 1
        assert p.metadata_ops > 0
        assert p.metadata_op_counts["dropping_create"] == 48
        assert 0.0 < p.mds_utilisation < 1.0
        assert p.metadata_op_rate > 0

    def test_shared_file_route(self):
        result = run_mpiio_test(MINERVA, MPIIO, 2, 1)
        p = profile_from_run(result, MINERVA, MPIIO, workload="mpiio-test")
        assert not p.uses_plfs
        assert p.shared_file and p.write_through_shared
        assert p.writers == 2  # collective: one aggregator per node
        assert p.read_calls > 0 and p.total_bytes_read > 0
        assert 0.0 <= p.lock_wait_share <= 1.0
        assert p.dropping_creates == 0
        assert p.mds_count == 2  # Minerva's MDS is not dedicated

    def test_bt_workload_label_from_details(self):
        result = run_bt(SIERRA, MPIIO, 16, "C")
        p = profile_from_run(result, SIERRA, MPIIO)
        assert p.workload == "bt.C"

    def test_as_dict_is_json_ready(self, flashio_profile):
        d = flashio_profile.as_dict()
        text = json.dumps(d)
        assert json.loads(text)["writers"] == 24
        assert d["write_bandwidth_mbps"] > 0

    def test_as_dict_carries_every_field_but_files(self, flashio_profile):
        d = flashio_profile.as_dict()
        names = {f.name for f in dataclasses.fields(IORunProfile)}
        assert set(d) == (names - {"files"}) | {"write_bandwidth_mbps"}
        # live fields the hand-kept copy used to omit
        assert d["fuse_max_write"] == flashio_profile.fuse_max_write
        assert d["write_through_shared"] is flashio_profile.write_through_shared
        assert d["mds_busy_seconds"] == flashio_profile.mds_busy_seconds > 0
        assert d["server_concurrency"] == SIERRA.perf.server_concurrency
        # evidence fields no detector read and no caller filled are gone
        for gone in ("index_cache_hits", "read_preads", "write_appends",
                     "cb_rounds", "listio_runs",
                     "ds_sieve_hits", "daemon_clients"):
            assert gone not in d


class TestProfileFromTrace:
    def test_aggregates_os_level_trace(self, tmp_path):
        a = str(tmp_path / "a.dat")
        b = str(tmp_path / "b.dat")
        with traced() as tracer:
            fd = os.open(a, os.O_CREAT | os.O_RDWR)
            os.write(fd, b"x" * 10)
            os.write(fd, b"y" * 10)
            os.lseek(fd, 0, os.SEEK_SET)
            os.read(fd, 20)
            os.close(fd)
            fd = os.open(b, os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"z" * 2000)
            os.close(fd)
        p = profile_from_trace(tracer.report())
        assert p.source == "trace"
        assert p.opens == 2 and p.closes == 2
        assert p.seeks == 1
        assert p.write_calls == 3 and p.read_calls == 1
        assert p.total_bytes_written == 2020
        assert p.total_bytes_read == 20
        assert p.write_size_histogram == {"0-100": 2, "1K-10K": 1}
        assert p.small_write_fraction == 1.0  # everything under 4 MB
        assert p.file_count == 2
        assert p.metadata_op_counts == {"open": 2, "close": 2, "seek": 1}
        assert p.metadata_op_rate > 0

    def test_sequentiality_from_offsets(self, tmp_path):
        path = str(tmp_path / "seq")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"a" * 100)   # sequential (offset 0)
            os.write(fd, b"b" * 100)   # sequential (continues)
            os.pwrite(fd, b"c" * 10, 5000)  # jump
            os.close(fd)
        p = profile_from_trace(tracer.report())
        assert p.sequentiality == pytest.approx(2 / 3)

    def test_per_file_skew(self, tmp_path):
        with traced() as tracer:
            for name, size in (("big", 9000), ("s1", 500), ("s2", 500)):
                fd = os.open(str(tmp_path / name), os.O_CREAT | os.O_WRONLY)
                os.write(fd, b"x" * size)
                os.close(fd)
        p = profile_from_trace(tracer.report())
        # busiest file moved 9000 B vs a mean of ~3333 B -> skew 2.7x
        assert p.per_file_skew == pytest.approx(9000 / (10000 / 3))

    def test_buffered_proxy_counts_and_opacity(self, tmp_path):
        counted = str(tmp_path / "counted.txt")
        opaque = str(tmp_path / "opaque.txt")
        with traced() as tracer:
            with open(counted, "w") as fh:
                fh.write("hello")
            with open(opaque, "w"):
                pass  # opened but never written
        p = profile_from_trace(tracer.report())
        # The proxy accounted the buffered write; only the untouched file
        # is opaque.
        assert p.total_bytes_written == 5
        assert p.buffered_opaque_files == 1
        by_path = {f["path"]: f for f in p.files}
        assert by_path[counted]["buffered"]
        assert by_path[counted]["mode"] == "w"

    def test_dropping_paths_counted_as_creates(self, tmp_path):
        d = tmp_path / "container"
        d.mkdir()
        path = str(d / "dropping.data.0")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"log")
            os.close(fd)
        p = profile_from_trace(tracer.report())
        assert p.dropping_creates == 1

    def test_shared_file_context_is_caller_supplied(self, tmp_path):
        with traced() as tracer:
            fd = os.open(str(tmp_path / "shared"), os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"x")
            os.close(fd)
        p = profile_from_trace(tracer.report(), shared_file=True)
        assert p.shared_file and p.write_through_shared


class TestProfileProperties:
    def test_bandwidth_and_totals(self):
        p = IORunProfile(
            source="simulation",
            elapsed_seconds=2.0,
            total_bytes_written=4 * 1024 * 1024,
            total_bytes_read=1024,
        )
        assert p.total_bytes == 4 * 1024 * 1024 + 1024
        assert p.write_bandwidth_mbps == pytest.approx(2.0)

    def test_zero_elapsed_bandwidth(self):
        p = IORunProfile(source="trace")
        assert p.write_bandwidth_mbps == 0.0
