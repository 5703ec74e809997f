"""Property-based differential test: the same seeded op stream replayed
through the direct in-process path and through a live ``repro-plfsd``
daemon must leave byte-identical logical file contents and sizes, and —
the ``daemon`` config being ``direct`` plus one hop — identical counters
but for ``daemon_creates``, which counts the hop itself.

This is the correctness contract behind the bench suite's config axis:
if the two backends ever diverge, comparing their trajectories would be
meaningless.  Unix socket paths cap around 107 bytes, so the daemon
arena lives under a short /tmp path rather than tmp_path.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import plfs
from repro.bench.runner import execute_stream
from repro.bench.scenarios import SCENARIOS
from repro.plfs.cache import shared_cache

TINY = {
    "metadata_storm": {"clients": 2, "files_per_client": 3, "payload_bytes": 200},
    "hot_cold_mix": {"hot_files": 2, "cold_files": 3, "ops": 40},
    "multi_tenant": {"storm_files": 4, "stream_chunks": 6, "stream_chunk_bytes": 2048},
}

_example = itertools.count()


@pytest.fixture(scope="module")
def arena():
    d = tempfile.mkdtemp(prefix="bench-diff-", dir="/tmp")
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


@pytest.fixture(scope="module")
def daemon_sock(arena):
    from repro.plfsd import stress

    sock = os.path.join(arena, "d.sock")
    proc = stress.start_daemon(sock)
    try:
        yield sock
    finally:
        stress.stop_daemon(proc, sock)


def _logical(root: str, file: str) -> bytes:
    fd = plfs.plfs_open(os.path.join(root, file), os.O_RDONLY)
    try:
        return plfs.plfs_read(fd, 1 << 22, 0)
    finally:
        plfs.plfs_close(fd)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(sorted(TINY)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_direct_and_daemon_agree_byte_for_byte(arena, daemon_sock, name, seed):
    ops = SCENARIOS[name].ops(seed, "short", TINY[name])
    n = next(_example)
    direct_root = os.path.join(arena, f"ex{n}", "direct")
    daemon_root = os.path.join(arena, f"ex{n}", "daemon")
    counters = {}
    for config, root in (("direct", direct_root), ("daemon", daemon_root)):
        shared_cache().clear()
        shared_cache().reset_stats()
        counters[config] = execute_stream(
            ops, root, config, seed, socket_path=daemon_sock
        ).counters

    # every op the executor runs opens with O_CREAT: a ``create`` once,
    # a handle's first ``read``/``write``/``fsync`` once per file
    creating_opens = sum(op.kind == "create" for op in ops) + len(
        {op.file for op in ops if op.kind != "create"}
    )
    assert counters["daemon"].pop("daemon_creates") == creating_opens
    assert counters["daemon"] == counters["direct"]

    for file in sorted({op.file for op in ops}):
        via_direct = _logical(direct_root, file)
        via_daemon = _logical(daemon_root, file)
        assert len(via_direct) == len(via_daemon), (
            f"{name}[seed={seed}] {file}: logical size diverged "
            f"({len(via_direct)} direct vs {len(via_daemon)} daemon)"
        )
        assert via_direct == via_daemon, (
            f"{name}[seed={seed}] {file}: contents diverged"
        )
    shutil.rmtree(os.path.join(arena, f"ex{n}"), ignore_errors=True)
