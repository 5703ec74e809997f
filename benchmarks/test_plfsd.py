"""plfsd daemon benchmarks: the create-storm meltdown and multi-tenant
append throughput.

Not a paper figure — evidence for the daemon subsystem.  The create storm
reproduces §V.C's dedicated-MDS meltdown *in the real path*: every create
from every client serializes on the daemon's one metadata lock, so the
per-create queue wait inflects upward as clients are added — the same
curve that melted FLASH-IO at 3,072 cores, measured here with real
containers and real droppings.

The append workload answers the daemon's cost question: multi-client
aggregate append throughput must stay within 2x of the single-process
direct path, or the service model is a regression rather than a
deployment convenience.  The daemon's architecture is the paper's own:
PLFS never streams bytes through its metadata service, so an open
*delegates* — the daemon serializes the container create (its MDS role)
and each tenant writes droppings straight to the backend.

Results land in ``benchmarks/out/BENCH_plfsd.json`` as plain canonical
JSON (the numbers this test asserts on, as an evidence artefact).

Smoke scale by default; ``LDPLFS_BENCH_FULL=1`` widens the sweep.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from .conftest import FULL_SCALE, OUT_DIR
from repro.analysis.export import canonical_json
from repro.bench import guard as bench_guard
from repro.plfsd import stress

CLIENT_SWEEP = (1, 2, 4, 8) if not FULL_SCALE else (1, 2, 4, 8, 16)
CREATES_PER_CLIENT = 40 if FULL_SCALE else 12
APPEND_CLIENTS = 4
APPEND_CHUNK = 4 << 20
APPENDS_PER_CLIENT = 48 if FULL_SCALE else 24
#: daemon/direct runs are interleaved this many times and compared
#: pairwise: the shared-host CPU gets stolen in bursts that swing even
#: tmpfs throughput several-fold, and pairing bounds how much of that
#: noise lands between the two sides of one ratio.
APPEND_PAIRS = 3


@pytest.fixture
def arena():
    """Short-pathed scratch dir: unix socket paths cap at ~107 chars.

    Prefers tmpfs: there both paths are CPU-bound and repeatable, so the
    throughput ratio measures the daemon's real overhead instead of the
    shared disk's scheduling noise (which swings 5x run to run).
    """
    base = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    d = tempfile.mkdtemp(prefix="plfsd-bench-", dir=base)
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _fresh_daemon_run(arena: str, tag: str, fn):
    """Run *fn(socket, backend)* against a daemon started just for it, so
    sweep points don't inherit each other's accounting or page cache."""
    sock = os.path.join(arena, f"{tag}.sock")
    backend = os.path.join(arena, f"backend-{tag}")
    os.makedirs(backend)
    proc = stress.start_daemon(sock)
    try:
        return fn(sock, backend)
    finally:
        stress.stop_daemon(proc, sock)


def _direct_append_baseline(arena: str, tag: str) -> dict:
    """Single-process direct-path writer: the throughput yardstick, run
    as a subprocess so it meets the same interpreter and scheduling
    conditions as the daemon tenants."""
    backend = os.path.join(arena, f"backend-direct-{tag}")
    os.makedirs(backend)
    return stress.run_direct_baseline(
        backend, APPENDS_PER_CLIENT * APPEND_CLIENTS, APPEND_CHUNK
    )


def test_plfsd_create_storm_and_throughput(arena):
    # ---- the meltdown curve -------------------------------------------- #
    storm = []
    for clients in CLIENT_SWEEP:
        point = _fresh_daemon_run(
            arena,
            f"storm{clients}",
            lambda sock, backend: stress.run_create_storm(
                sock, backend, clients, CREATES_PER_CLIENT
            ),
        )
        point.pop("server", None)
        point.pop("workers", None)
        storm.append(point)

    qw = {p["clients"]: p["queue_wait_per_create_seconds"] for p in storm}
    lo, hi = min(CLIENT_SWEEP), max(CLIENT_SWEEP)
    # The meltdown signal: per-create queue wait inflects upward as client
    # processes are added — creates serialize on the one metadata lock.
    bench_guard.assert_inflection(
        qw[lo], qw[hi], 2, f"queue wait per create over {lo}->{hi} clients"
    )
    assert qw[hi] > 1e-4, f"contention at {hi} clients implausibly small: {qw}"

    # ---- multi-tenant append throughput (delegated data plane) --------- #
    pairs = []
    for i in range(APPEND_PAIRS):
        os.sync()  # drain prior writeback before each timed pair

        def _daemon_side():
            run = _fresh_daemon_run(
                arena,
                f"append{i}",
                lambda sock, backend: stress.run_append_workload(
                    sock,
                    backend,
                    APPEND_CLIENTS,
                    APPENDS_PER_CLIENT,
                    APPEND_CHUNK,
                ),
            )
            run.pop("server", None)
            return run

        # Alternate which side runs first: the host throttles CPU in
        # bursts, and a fixed order would hand one side the fresher
        # budget every time.
        if i % 2 == 0:
            daemon_run = _daemon_side()
            direct = _direct_append_baseline(arena, str(i))
        else:
            direct = _direct_append_baseline(arena, str(i))
            daemon_run = _daemon_side()
        pairs.append(
            {
                "daemon": daemon_run,
                "direct_single_process": direct,
                "ratio": daemon_run["aggregate_mib_per_second"]
                / direct["mib_per_second"],
            }
        )
        # Bound tmpfs usage: each pair leaves ~2x the workload behind.
        shutil.rmtree(os.path.join(arena, f"backend-append{i}"), ignore_errors=True)
        shutil.rmtree(os.path.join(arena, f"backend-direct-{i}"), ignore_errors=True)

    ratios = [p["ratio"] for p in pairs]
    best_ratio = bench_guard.best_ratio(ratios)
    # Acceptance: aggregate daemon throughput within 2x of the direct path.
    # Best-of-pairs, because a stolen-CPU burst landing on one side of one
    # pair says nothing about the daemon; the architecture still has to
    # clear the bar in a cleanly-scheduled window.
    assert best_ratio >= 0.5, (
        f"daemon aggregate never within 2x of direct: ratios {ratios}"
    )

    # Everything wall-clock lands in ``timings``; the sweep shape itself is
    # deterministic and lands in ``counters``; the two meltdown/throughput
    # signals this test asserts on are within-run ratios.
    rec = dict(
        scenario="plfsd",
        profile="full" if FULL_SCALE else "short",
        config="daemon",
        seed=0,
        params={
            "client_sweep": list(CLIENT_SWEEP),
            "creates_per_client": CREATES_PER_CLIENT,
            "append_clients": APPEND_CLIENTS,
            "appends_per_client": APPENDS_PER_CLIENT,
            "append_chunk_bytes": APPEND_CHUNK,
            "append_pairs": APPEND_PAIRS,
        },
        counters={
            "storm_points": len(storm),
            "creates_total": sum(CLIENT_SWEEP) * CREATES_PER_CLIENT,
            "appends_per_side": APPEND_CLIENTS * APPENDS_PER_CLIENT,
            "append_bytes_per_side": APPEND_CLIENTS
            * APPENDS_PER_CLIENT
            * APPEND_CHUNK,
        },
        timings={
            "create_storm": storm,
            "queue_wait_per_create_seconds": {str(k): v for k, v in qw.items()},
            "append_pairs": pairs,
            "append_ratios": ratios,
        },
        ratios={
            "queue_wait_inflection": qw[hi] / qw[lo] if qw[lo] > 0 else 0.0,
            "append_best_ratio": best_ratio,
        },
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_plfsd.json")
    with open(path, "w") as fh:
        fh.write(canonical_json(rec) + "\n")
    print(f"\nplfsd numbers -> {path}")
