"""Create-storm and multi-tenant stress harness for the plfsd daemon.

The paper's §V.C result: on a Lustre deployment with a *dedicated*
metadata server, a 3,072-core FLASH-IO create storm melts down — every
rank's dropping creation serializes on the one MDS and PLFS flips from
accelerator to bottleneck.  The daemon reproduces that topology honestly:
every container create queues on one global lock, so driving N client
processes into simultaneous creates makes per-client queue wait grow with
N — the meltdown curve, measured with real containers and real bytes.

Pieces:

- :func:`start_daemon` / :func:`stop_daemon` — subprocess lifecycle with
  ping-until-ready;
- a ``--worker`` mode (``python -m repro.plfsd.stress --worker ...``) that
  runs one client's workload and prints a JSON result line;
- :func:`run_create_storm` / :func:`run_append_workload` — fan out worker
  processes, gather their timings plus the server's own accounting.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from . import client as plfsd_client


# ---------------------------------------------------------------------- #
# daemon lifecycle
# ---------------------------------------------------------------------- #


def wait_ready(socket_path: str, timeout: float = 10.0) -> None:
    """Block until a daemon answers a ping at *socket_path*."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with plfsd_client.PlfsdClient(socket_path) as probe:
                probe.ping()
            return
        except (OSError, plfsd_client.PlfsdUnavailable):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no daemon answering at {socket_path!r} after {timeout:g}s"
                ) from None
            time.sleep(0.02)


def start_daemon(socket_path: str, *, timeout: float = 10.0) -> subprocess.Popen:
    """Launch ``repro-plfsd`` as a subprocess and wait until it serves."""
    cmd = [sys.executable, "-m", "repro.plfsd.cli", "--socket", socket_path]
    proc = subprocess.Popen(cmd)
    try:
        wait_ready(socket_path, timeout)
    except Exception:
        proc.terminate()
        proc.wait(timeout=5)
        raise
    return proc


def stop_daemon(proc: subprocess.Popen, socket_path: str, timeout: float = 10.0) -> None:
    """Ask the daemon to shut down over the wire; escalate if it lingers."""
    try:
        with plfsd_client.PlfsdClient(socket_path) as ctl:
            ctl.shutdown_server()
    except (OSError, plfsd_client.PlfsdUnavailable):
        pass
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - hung daemon
        proc.terminate()
        proc.wait(timeout=5)


def daemon_stats(socket_path: str) -> dict:
    with plfsd_client.connect(socket_path, name="stats-probe") as ctl:
        return ctl.stats()


# ---------------------------------------------------------------------- #
# worker payloads (run in their own processes)
# ---------------------------------------------------------------------- #


def _await_peers(
    client: plfsd_client.PlfsdClient,
    prefix: str,
    expect: int,
    timeout: float = 30.0,
) -> None:
    """Start-line barrier: block until *expect* clients whose names carry
    *prefix* are connected.  Worker processes pay interpreter startup at
    wildly skewed times (on a one-core box, serially!); without a barrier
    the first worker's timed region absorbs the others' startup and the
    aggregate measures the scheduler, not the daemon."""
    if expect <= 1:
        return
    deadline = time.monotonic() + timeout
    while True:
        present = sum(
            1
            for c in client.stats()["per_client"]
            if c["name"].startswith(prefix)
        )
        if present >= expect:
            return
        if time.monotonic() >= deadline:  # pragma: no cover - hung peers
            raise TimeoutError(
                f"only {present}/{expect} {prefix}* clients arrived"
            )
        time.sleep(0.005)


def _worker_create_storm(args) -> dict:
    """One client of the storm: create *count* fresh logical files as fast
    as possible, timing every create round-trip."""
    client = plfsd_client.connect(args.socket, name=f"storm-{args.client_id}")
    latencies: list[float] = []
    _await_peers(client, "storm-", args.expect)
    t0 = time.monotonic()
    with client:
        for i in range(args.count):
            path = os.path.join(args.dir, f"storm.{args.client_id}.{i}")
            t1 = time.monotonic()
            client.create(path, 0o644)
            latencies.append(time.monotonic() - t1)
    elapsed = time.monotonic() - t0
    latencies.sort()
    return {
        "client_id": args.client_id,
        "creates": args.count,
        "elapsed_seconds": elapsed,
        "mean_create_seconds": sum(latencies) / max(1, len(latencies)),
        "p99_create_seconds": latencies[int(0.99 * (len(latencies) - 1))]
        if latencies
        else 0.0,
    }


def _worker_append(args) -> dict:
    """One tenant: stream *count* chunks of *size* bytes into its own
    logical file.  Through the daemon the create is the one hop and the
    droppings go from this process straight to the backend — the paper's
    data/metadata split; with ``--socket -`` it is the direct-path
    yardstick, touching no daemon at all, run through the same worker
    machinery so it meets identical interpreter and scheduling conditions."""
    from repro.plfs import api as plfs_api

    chunk = bytes((args.client_id + j) % 256 for j in range(args.size))
    path = os.path.join(args.dir, f"tenant.{args.client_id}")
    flags = os.O_CREAT | os.O_WRONLY
    client = None
    if args.socket != "-":
        client = plfsd_client.connect(args.socket, name=f"tenant-{args.client_id}")
    try:
        if client is not None:
            _await_peers(client, "tenant-", args.expect)
        t0 = time.monotonic()
        fd = plfs_api.plfs_open(path, flags) if client is None else client.open(path, flags)
        for j in range(args.count):
            plfs_api.plfs_write(fd, chunk, args.size, j * args.size)
        plfs_api.plfs_close(fd)
        elapsed = time.monotonic() - t0
    finally:
        if client is not None:
            client.close()
    total = args.count * args.size
    return {
        "client_id": args.client_id,
        "bytes": total,
        "elapsed_seconds": elapsed,
        "mib_per_second": (total / (1024 * 1024)) / elapsed if elapsed else 0.0,
    }


_WORKERS = {
    "create-storm": _worker_create_storm,
    "append": _worker_append,
}


# ---------------------------------------------------------------------- #
# fan-out drivers (run in the coordinating process)
# ---------------------------------------------------------------------- #


def _spawn_workers(
    workload: str,
    socket_path: str,
    backend_dir: str,
    clients: int,
    count: int,
    size: int = 0,
) -> list[dict]:
    procs = []
    for client_id in range(clients):
        cmd = [
            sys.executable,
            "-m",
            "repro.plfsd.stress",
            "--worker",
            workload,
            "--socket",
            socket_path,
            "--dir",
            backend_dir,
            "--client-id",
            str(client_id),
            "--count",
            str(count),
            "--size",
            str(size),
            "--expect",
            str(clients),
        ]
        procs.append(
            subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        )
    results = []
    failures = []
    for proc in procs:
        out, _ = proc.communicate(timeout=600)
        if proc.returncode != 0:
            failures.append(proc.returncode)
            continue
        results.append(json.loads(out.strip().splitlines()[-1]))
    if failures:
        raise RuntimeError(f"{len(failures)} stress workers failed: {failures}")
    return results


def run_create_storm(
    socket_path: str, backend_dir: str, clients: int, creates_per_client: int
) -> dict:
    """N processes hammering creates at once; returns client timings plus
    the server's queue-wait accounting (the meltdown signal)."""
    t0 = time.monotonic()
    workers = _spawn_workers(
        "create-storm", socket_path, backend_dir, clients, creates_per_client
    )
    elapsed = time.monotonic() - t0
    stats = daemon_stats(socket_path)
    agg = stats["aggregate"]
    total_creates = clients * creates_per_client
    return {
        "clients": clients,
        "creates_per_client": creates_per_client,
        "elapsed_seconds": elapsed,
        "creates_per_second": total_creates / elapsed if elapsed else 0.0,
        "mean_create_seconds": sum(w["mean_create_seconds"] for w in workers)
        / clients,
        "p99_create_seconds": max(w["p99_create_seconds"] for w in workers),
        "queue_wait_per_create_seconds": agg["queue_wait_seconds"]
        / max(1, agg["creates"]),
        "max_queue_wait_seconds": agg["max_queue_wait_seconds"],
        "workers": workers,
        "server": stats,
    }


def run_append_workload(
    socket_path: str,
    backend_dir: str,
    clients: int,
    appends_per_client: int,
    chunk_bytes: int,
) -> dict:
    """N tenants streaming appends concurrently, each create through the
    daemon; returns the aggregate throughput across all of them.  The
    aggregate is total bytes over the *slowest worker's own elapsed
    time*: workers rendezvous on a start barrier and time only their I/O
    region, so interpreter startup of the worker processes (which dwarfs
    a smoke-scale workload) never counts as transfer time."""
    t0 = time.monotonic()
    workers = _spawn_workers(
        "append", socket_path, backend_dir, clients, appends_per_client, chunk_bytes
    )
    wall = time.monotonic() - t0
    stats = daemon_stats(socket_path)
    total = clients * appends_per_client * chunk_bytes
    elapsed = max(w["elapsed_seconds"] for w in workers)
    return {
        "clients": clients,
        "server": stats,
        "appends_per_client": appends_per_client,
        "chunk_bytes": chunk_bytes,
        "total_bytes": total,
        "elapsed_seconds": elapsed,
        "wall_seconds": wall,
        "aggregate_mib_per_second": (total / (1024 * 1024)) / elapsed
        if elapsed
        else 0.0,
        "workers": workers,
    }


def run_direct_baseline(
    backend_dir: str, appends: int, chunk_bytes: int
) -> dict:
    """Single-process direct-path writer (no daemon), timed in a worker
    subprocess under the same conditions as the daemon tenants."""
    worker = _spawn_workers("append", "-", backend_dir, 1, appends, chunk_bytes)[0]
    return {
        "total_bytes": worker["bytes"],
        "elapsed_seconds": worker["elapsed_seconds"],
        "mib_per_second": worker["mib_per_second"],
    }


# ---------------------------------------------------------------------- #
# worker entry point
# ---------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.plfsd.stress")
    parser.add_argument("--worker", required=True, choices=sorted(_WORKERS))
    parser.add_argument("--socket", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--client-id", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--size", type=int, default=0)
    parser.add_argument("--expect", type=int, default=1)
    args = parser.parse_args(argv)
    result = _WORKERS[args.worker](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
