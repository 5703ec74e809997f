"""``CollectiveFile``: hints, phases, counters, and path equivalence."""

from __future__ import annotations

import os

import pytest

from repro.collective import CollectiveFile
from repro.mpiio.hints import MPIHints
from repro.plfs import api as plfs_api

RECORD = 64


def _readback(path: str) -> bytes:
    fd = plfs_api.plfs_open(path, os.O_RDONLY)
    try:
        size = plfs_api.plfs_getattr(fd).st_size
        return plfs_api.plfs_read(fd, size, 0)
    finally:
        plfs_api.plfs_close(fd)


def _rank_payload(rank: int, nbytes: int) -> bytes:
    return bytes([(rank * 31 + i) % 251 for i in range(nbytes)])


def _write_rounds(path: str, rounds: int = 2, **kwargs) -> CollectiveFile:
    f = CollectiveFile(path, **kwargs)
    f.set_interleaved(RECORD)
    for _ in range(rounds):
        f.write_at_all(
            [_rank_payload(r, 3 * RECORD) for r in range(f.ranks)]
        )
    return f


def test_cb_and_independent_paths_produce_identical_containers(tmp_path):
    """Aggregation is a transport optimisation: the container must not be
    able to tell which path the bytes took."""
    cb = str(tmp_path / "cb")
    indep = str(tmp_path / "indep")
    with _write_rounds(cb, nodes=2, ppn=2):
        pass
    with _write_rounds(
        indep,
        nodes=2,
        ppn=2,
        hints=MPIHints(romio_cb_write=False),
    ):
        pass
    blob = _readback(cb)
    assert blob == _readback(indep)
    assert len(blob) == 2 * 4 * 3 * RECORD
    # spot-check the interleaving: record 1 belongs to rank 1
    assert blob[RECORD : 2 * RECORD] == _rank_payload(1, 3 * RECORD)[:RECORD]


def test_cb_nodes_hint_thins_aggregators_and_backend_writes(tmp_path):
    with _write_rounds(
        str(tmp_path / "f"),
        nodes=4,
        ppn=1,
        hints=MPIHints(cb_nodes=2),
    ) as f:
        assert f.aggregator_count == 2
        assert len(f._agg_fds) == 2
        # one flush per aggregator per round, all within cb_buffer_size
        assert f.counters["cb_backend_writes"] == 2 * 2
        assert f.counters["cb_member_extents"] == 2 * 4 * 3


def test_small_cb_buffer_splits_backend_writes(tmp_path):
    with _write_rounds(
        str(tmp_path / "f"),
        nodes=1,
        ppn=2,
        rounds=1,
        hints=MPIHints(cb_buffer_size=2 * RECORD),
    ) as f:
        # 6 records for one aggregator, 2 records per chunk -> 3 writes
        assert f.counters["cb_backend_writes"] == 3


def test_cb_write_off_routes_through_list_io(tmp_path):
    with _write_rounds(
        str(tmp_path / "f"),
        nodes=2,
        ppn=1,
        hints=MPIHints(romio_cb_write=False),
    ) as f:
        assert "cb_backend_writes" not in f.counters
        assert f.counters["listio_backend_calls"] > 0
        assert not f._agg_fds  # aggregators never opened


def test_positions_advance_unless_explicit(tmp_path):
    path = str(tmp_path / "f")
    with CollectiveFile(path, nodes=1, ppn=2) as f:
        f.set_interleaved(4)
        f.write_at_all([b"AAAA", b"aaaa"])
        f.write_at_all([b"BBBB", b"bbbb"])  # appends through the view
        f.write_at_all([b"XXXX"], position=0)  # _at call: overwrites
    assert _readback(path) == b"XXXXaaaaBBBBbbbb"


def test_collective_read_round_trips_per_rank(tmp_path):
    with _write_rounds(
        str(tmp_path / "f"), nodes=2, ppn=2, rounds=1
    ) as f:
        got = f.read_at_all(3 * RECORD, position=0)
        assert set(got) == set(range(4))
        for rank, blob in got.items():
            assert blob == _rank_payload(rank, 3 * RECORD)
        assert f.counters["cb_backend_reads"] >= 1


def test_read_rounds_share_one_index_per_container(tmp_path):
    """Every worker handle is ``O_RDWR`` (the default flags): its reader is
    a reader like any other, so a round's handles build the container's
    index once between them and the next round finds it."""
    from repro.plfs.cache import shared_cache

    with _write_rounds(str(tmp_path / "f"), nodes=2, ppn=2, rounds=1) as f:
        stats = shared_cache().stats
        first = f.read_at_all(3 * RECORD, position=0)
        built = stats["merged_builds"] + stats["compacted_loads"]
        assert built >= 1
        hits = stats["hits"]
        assert f.read_at_all(3 * RECORD, position=0) == first
        assert stats["hits"] > hits
        assert stats["merged_builds"] + stats["compacted_loads"] == built


def test_read_with_cb_off_round_trips_too(tmp_path):
    with _write_rounds(
        str(tmp_path / "f"),
        nodes=2,
        ppn=1,
        rounds=1,
        hints=MPIHints(romio_cb_read=False),
    ) as f:
        # the CB write landed through the aggregator handles; the read
        # barrier must publish it to the independent per-rank handles
        got = f.read_at_all(3 * RECORD, position=0)
        for rank, blob in got.items():
            assert blob == _rank_payload(rank, 3 * RECORD)


def test_inline_workers_match_thread_workers(tmp_path):
    a = str(tmp_path / "thread")
    b = str(tmp_path / "inline")
    with _write_rounds(a, nodes=2, ppn=2) as fa:
        counters_a = dict(fa.counters)
    with _write_rounds(
        b, nodes=2, ppn=2, workers="inline"
    ) as fb:
        counters_b = dict(fb.counters)
    assert _readback(a) == _readback(b)
    assert counters_a == counters_b


def test_writer_stats_harvested_across_worker_handles(tmp_path):
    f = _write_rounds(str(tmp_path / "f"), nodes=2, ppn=2)
    live = f.writer_stats
    assert live.get("bytes_appended", 0) == 2 * 4 * 3 * RECORD
    f.close()
    assert f.writer_stats == live  # totals survive close

    f.close()  # idempotent


def test_empty_round_and_bad_rank_guard(tmp_path):
    with CollectiveFile(str(tmp_path / "f")) as f:
        f.set_interleaved(8)
        assert f.write_at_all([b""]) == 0
        with pytest.raises(ValueError):
            f.set_view(5, None)
    with pytest.raises(ValueError):
        CollectiveFile(str(tmp_path / "g"), nodes=0)
