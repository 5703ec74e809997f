"""The runner end to end: every scenario/config produces a schema-valid
record whose deterministic counters reproduce exactly under a fixed seed.

Scaled-down params keep this fast; the committed short-profile baselines
are replayed whole in ``test_baselines.py``.
"""

from __future__ import annotations

import os

import pytest

from repro import plfs
from repro.bench import record as record_mod
from repro.bench import runner
from repro.bench.scenarios import SCENARIOS, Op

TINY = {
    "metadata_storm": {"clients": 2, "files_per_client": 4},
    "hot_cold_mix": {"hot_files": 2, "cold_files": 4, "ops": 48},
    "multi_tenant": {"storm_files": 6, "stream_chunks": 8, "stream_chunk_bytes": 4096},
    "crash_soak": {"cycles": 2, "ops_per_cycle": 8},
    "collective_io": {
        "nodes": 2,
        "ppn": 2,
        "rounds": 1,
        "per_rank_bytes": 8192,
        "record_bytes": 1024,
        "read_rounds": 1,
    },
}


def _run(name, config="direct", seed=42):
    return runner.run_scenario(
        name, profile="short", config=config, seed=seed, params=TINY[name]
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_direct_run_produces_valid_record(name):
    rec = _run(name)
    assert record_mod.validate(rec) == []
    assert rec["counters"]["ops_total"] == rec["op_stream"]["ops"]
    assert "derived" not in rec  # only the objectstore config has one


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_counters_reproduce_exactly(name):
    a, b = _run(name), _run(name)
    assert a["counters"] == b["counters"]
    assert a["op_stream"] == b["op_stream"]
    assert a["params"] == b["params"]


def test_metadata_storm_counts_every_create():
    rec = _run("metadata_storm")
    assert rec["counters"]["ops_create"] == 8
    assert rec["counters"]["write_appends"] == 8


def test_hot_cold_reads_return_written_bytes():
    rec = _run("hot_cold_mix")
    assert rec["counters"]["bytes_read_back"] == rec["op_stream"]["bytes_read"]
    assert rec["counters"]["read_preads"] > 0


def test_wal_batched_config_engages_wal():
    rec = runner.run_scenario(
        "hot_cold_mix",
        profile="short",
        config="wal_batched",
        seed=42,
        params=TINY["hot_cold_mix"],
    )
    assert rec["counters"]["wal_records"] > 0
    assert rec["counters"]["wal_batches"] > 0


def test_multi_tenant_reports_both_tenants():
    rec = _run("multi_tenant")
    assert rec["op_stream"]["tenants"] == 2
    # the storm's creates and the stream's appends both reached the writer
    assert rec["counters"]["ops_create"] == TINY["multi_tenant"]["storm_files"]
    assert rec["counters"]["write_appends"] == rec["op_stream"]["ops"]


def test_crash_soak_recovers_every_cycle():
    rec = _run("crash_soak")
    c = rec["counters"]
    assert c["cycles"] == 2
    assert c["crashes"] >= 1  # the tiny arms include hard crashes
    assert c["full_recoveries"] + c["cycles"] >= c["cycles"]  # sanity
    assert c["verified_bytes"] > 0


def test_objectstore_counters_do_not_depend_on_the_hostname(monkeypatch):
    """`repro-bench guard` compares counters exactly, so nothing in them
    may move with the host: the access file's ``host=<hostname>`` body is
    payload the object tiers count bytes of."""
    from repro.plfs import util

    records = []
    for host in ("n1", "a-much-longer-node-name_example_org"):
        monkeypatch.setattr(util, "hostname", lambda host=host: host)
        records.append(
            runner.run_scenario("crash_soak", profile="short", config="objectstore")
        )
    short, long_ = records
    assert short["counters"] == long_["counters"]
    assert short["counters"]["object_puts"] > 0  # counts stay exact
    assert not set(runner.HOST_SIZED_BYTES) & set(short["counters"])
    # the byte totals moved to the ratio-compared section, and do differ
    assert set(short["derived"]["bytes"]) <= set(runner.HOST_SIZED_BYTES)
    assert (
        short["derived"]["bytes"]["object_put_bytes"]
        < long_["derived"]["bytes"]["object_put_bytes"]
    )


def test_crash_soak_rejects_non_direct_configs():
    with pytest.raises(ValueError, match="does not support"):
        runner.run_scenario("crash_soak", config="daemon")


def test_unknown_config_raises():
    with pytest.raises(ValueError, match="does not support"):
        runner.run_scenario("metadata_storm", config="quantum")


def test_sim_config_only_where_registered():
    with pytest.raises(ValueError, match="does not support"):
        runner.run_scenario("metadata_storm", config="sim")


def test_execute_stream_daemon_requires_socket(tmp_path):
    ops = SCENARIOS["metadata_storm"].ops(1, "short", TINY["metadata_storm"])
    with pytest.raises(ValueError, match="socket_path"):
        runner.execute_stream(ops, str(tmp_path), "daemon", 1)


def test_direct_stream_writes_real_bytes(tmp_path):
    """The storm's payload bytes must actually land in containers."""
    from repro.bench.scenarios import payload

    ops = [Op("t", "create", "a/x", 0, 300), Op("t", "write", "a/y", 0, 128)]
    runner.execute_stream(ops, str(tmp_path), "direct", 5)
    fd = plfs.plfs_open(str(tmp_path / "a" / "x"), os.O_RDONLY)
    assert plfs.plfs_read(fd, 1024, 0) == payload(5, "a/x", 0, 300)
    plfs.plfs_close(fd)
