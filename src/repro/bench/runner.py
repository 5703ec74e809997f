"""Execute a scenario's op stream against a real PLFS configuration and
assemble the :mod:`~repro.bench.record` for it.

Configurations (the ``config`` axis of a BenchRecord):

``direct``
    In-process :mod:`repro.plfs` API — the LDPLFS fast path.
``daemon``
    ``direct`` plus one hop: every ``O_CREAT`` open makes its create in a
    ``repro-plfsd`` daemon subprocess (one
    :class:`~repro.plfsd.client.PlfsdClient` per tenant, every create
    serializing on the daemon's meta lock — the paper's dedicated MDS),
    and the data path is the in-process one.

Execution is deliberately *sequential and deterministic*: the generator
already interleaves tenants, so every counter in the record reproduces
exactly under a fixed seed (the determinism tests assert this).
``coll_write``/``coll_read`` ops replay whole collective rounds through
:class:`repro.collective.CollectiveFile`; the engine's aggregator
threads do run concurrently inside one op, but domain partitioning and
the post-barrier counter merge are deterministic, so the guarded
counters still reproduce exactly.  True
multi-process contention is the daemon stress benchmark's job
(``benchmarks/test_plfsd.py``); the scenario suite pins what the op
streams themselves do.

Nothing here reads a clock: the record is the op-stream digest and the
exact counters, and what a call costs is the ledger's to say
(``benchmarks/ledger``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro import plfs
from repro.insights.metrics import export_runtime_counters
from repro.plfs.cache import shared_cache
from repro.plfs.util import accumulate

from . import record as record_mod
from .scenarios import (
    DEFAULT_SEED,
    SCENARIOS,
    SOAK_ARMS,
    Op,
    payload,
    stream_summary,
)

@dataclass(frozen=True)
class BenchConfig:
    name: str
    daemon: bool = False


CONFIGS: dict[str, BenchConfig] = {
    "direct": BenchConfig("direct"),
    "daemon": BenchConfig("daemon", daemon=True),
}


@dataclass
class ExecutionResult:
    """Raw outcome of one op-stream replay."""

    counters: dict = field(default_factory=dict)



# ---------------------------------------------------------------------- #
# executors
# ---------------------------------------------------------------------- #


class _Executor:
    """Replays ops through the plfs API, keeping one O_RDWR handle per
    logical file and harvesting fast-lane counters on close.  Given a
    *socket_path* every open goes through a running plfsd daemon's client
    (one connection per tenant), whose create serializes on the daemon's
    meta lock; the run then adds ``daemon_creates``, the creates the
    daemon counted on this executor's connections."""

    def __init__(
        self, root: str, config: BenchConfig, seed: int, params: dict | None = None,
        socket_path: str | None = None,
    ):
        self.root = root
        self.config = config
        self.seed = seed
        self.params = params or {}
        self.socket_path = socket_path
        self.clients: dict[str, object] = {}
        self.handles: dict[str, object] = {}
        #: collective engines (coll_* ops), one per logical shared file
        self.engines: dict[str, object] = {}
        self.writer_totals: dict = {}
        self.reader_totals: dict = {}
        self.collective_totals: dict = {}

    def _path(self, file: str) -> str:
        path = os.path.join(self.root, file)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def _open(self, op: Op, flags: int):
        path = self._path(op.file)
        if self.socket_path is None:
            return plfs.plfs_open(path, flags, mode=0o644)
        cli = self.clients.get(op.tenant)
        if cli is None:
            from repro.plfsd import client as plfsd_client

            cli = plfsd_client.connect(self.socket_path, name=f"bench-{op.tenant}")
            self.clients[op.tenant] = cli
        return cli.open(path, flags, 0o644)

    def _handle(self, op: Op):
        fd = self.handles.get(op.file)
        if fd is None:
            fd = self.handles[op.file] = self._open(op, os.O_CREAT | os.O_RDWR)
        return fd

    def _harvest(self, fd) -> None:
        if fd.writer is not None:
            accumulate(self.writer_totals, fd.writer.stats)
        if fd._reader is not None:
            accumulate(self.reader_totals, fd._reader.stats)

    # -- op surface ----------------------------------------------------- #

    def create(self, op: Op) -> None:
        fd = self._open(op, os.O_CREAT | os.O_WRONLY)
        try:
            if op.size:
                data = payload(self.seed, op.file, 0, op.size)
                plfs.plfs_write(fd, data, op.size, 0)
        finally:
            self._harvest(fd)
            plfs.plfs_close(fd)

    def write(self, op: Op) -> int:
        data = payload(self.seed, op.file, op.offset, op.size)
        return plfs.plfs_write(self._handle(op), data, op.size, op.offset)

    def read(self, op: Op) -> int:
        return len(plfs.plfs_read(self._handle(op), op.size, op.offset))

    def fsync(self, op: Op) -> None:
        plfs.plfs_sync(self._handle(op))

    # -- collective ops (repro.collective engine, one per shared file) -- #

    def _engine(self, op: Op):
        eng = self.engines.get(op.file)
        if eng is None:
            from repro.collective import CollectiveFile
            from repro.mpiio.hints import MPIHints

            # tenant name selects the path under test
            cb = op.tenant != "indep"
            eng = CollectiveFile(
                self._path(op.file),
                nodes=int(self.params.get("nodes", 4)),
                ppn=int(self.params.get("ppn", 4)),
                hints=MPIHints(romio_cb_write=cb, romio_cb_read=cb),
            )
            eng.set_interleaved(int(self.params.get("record_bytes", 4096)))
            self.engines[op.file] = eng
        return eng

    def coll_write(self, op: Op) -> int:
        eng = self._engine(op)
        ranks = eng.ranks
        contribs = {
            r: payload(
                self.seed, op.file, (op.offset * ranks + r) * op.size, op.size
            )
            for r in range(ranks)
        }
        return eng.write_at_all(contribs)

    def coll_read(self, op: Op) -> int:
        eng = self._engine(op)
        got = eng.read_at_all(op.size, position=op.offset * op.size)
        return sum(len(v) for v in got.values())

    def finish(self) -> dict:
        for fd in self.handles.values():
            self._harvest(fd)
            plfs.plfs_close(fd)
        self.handles.clear()
        for eng in self.engines.values():
            eng.close()
            accumulate(self.writer_totals, eng.writer_stats)
            accumulate(self.collective_totals, eng.counters)
        self.engines.clear()
        counters = export_runtime_counters(
            cache_stats=shared_cache().stats,
            writer_stats=self.writer_totals,
            reader_stats=self.reader_totals,
            collective_stats=self.collective_totals or None,
        )
        if self.socket_path is not None:
            from repro.plfsd import stress

            mine = {cli.client_id for cli in self.clients.values()}
            per_client = stress.daemon_stats(self.socket_path)["per_client"]
            counters["daemon_creates"] = sum(
                c["creates"] for c in per_client if c["id"] in mine
            )
            for cli in self.clients.values():
                cli.close()
            self.clients.clear()
        return counters


# ---------------------------------------------------------------------- #
# crash-soak cycles (direct only: faults inject in-process)
# ---------------------------------------------------------------------- #


def _run_crash_cycle(root: str, op: Op, ops_per_cycle: int) -> dict:
    """One seeded crash/recovery cycle: faulted schedule -> fsck ->
    reread -> verify against the recovery invariant.  Returns the cycle's
    deterministic counter deltas.
    """
    from repro.faults import harness
    from repro.plfs.fsck import fsck
    from repro.faults.injector import FaultInjector, FaultSpec

    point, behavior = SOAK_ARMS[op.size % len(SOAK_ARMS)]
    schedule = harness.random_schedule(op.offset, ops=ops_per_cycle)
    sync_every = max(1, len(schedule) // 2)
    if point == "index_flush":
        fire = 2
    elif point == "fsync":
        fire = 1
    else:
        fire = max(1, (2 * len(schedule)) // 3)
    injector = FaultInjector([FaultSpec(point, behavior, op=fire)], seed=op.offset)

    path = os.path.join(root, op.file)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    outcome = harness.run_schedule(
        path, schedule, injector=injector, sync_every=sync_every
    )
    report = fsck(path)
    content = harness.read_back(path)
    acceptable = outcome.acceptable_states()
    if content not in acceptable:
        raise AssertionError(
            f"crash_soak cycle {op.file} ({point}:{behavior}) "
            f"recovered {len(content)} bytes outside the acceptable states "
            f"({len(acceptable)} candidates; fsck: {len(report.actions)} "
            f"actions, unrecoverable={report.unrecoverable})"
        )
    return {
        "cycles": 1,
        "crashes": int(outcome.crashed),
        "full_recoveries": int(content == outcome.expected_full()),
        "acknowledged_writes": len(outcome.applied),
        "fsck_actions": len(report.actions),
        "fsck_unrecoverable": len(report.unrecoverable),
        "verified_bytes": len(content),
    }



# ---------------------------------------------------------------------- #
# stream execution
# ---------------------------------------------------------------------- #


def execute_stream(
    ops: list[Op],
    root: str,
    config: str | BenchConfig,
    seed: int,
    *,
    params: dict | None = None,
    socket_path: str | None = None,
) -> ExecutionResult:
    """Replay *ops* against *root* under *config*.

    For the ``daemon`` config the caller owns the daemon lifecycle and
    passes its *socket_path* (so differential tests can replay several
    streams against one daemon).
    """
    cfg = CONFIGS[config] if isinstance(config, str) else config
    params = params or {}
    if cfg.daemon and socket_path is None:
        raise ValueError("daemon config requires socket_path")
    executor = _Executor(root, cfg, seed, params, socket_path if cfg.daemon else None)

    result = ExecutionResult()
    dispatch = {
        "create": executor.create,
        "write": executor.write,
        "read": executor.read,
        "fsync": executor.fsync,
    }
    if not cfg.daemon:  # the collective engine opens its own, in-process
        dispatch.update(coll_write=executor.coll_write, coll_read=executor.coll_read)
    by_kind: dict[str, int] = {}
    bytes_read = 0
    for op in ops:
        by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
        if op.kind == "crash_cycle":
            if cfg.daemon:
                raise ValueError(
                    f"crash_cycle ops only run on the direct config, not {cfg.name}"
                )
            deltas = _run_crash_cycle(root, op, int(params.get("ops_per_cycle", 18)))
            accumulate(result.counters, deltas)
        else:
            fn = dispatch.get(op.kind)
            if fn is None:
                raise ValueError(
                    f"op kind {op.kind!r} is not supported by the "
                    f"{cfg.name} config"
                )
            if op.kind in ("read", "coll_read"):
                bytes_read += fn(op)
            else:
                fn(op)
    result.counters.update(executor.finish())
    result.counters["ops_total"] = len(ops)
    for kind, n in sorted(by_kind.items()):
        result.counters[f"ops_{kind}"] = n
    result.counters["bytes_read_back"] = bytes_read
    return result


# ---------------------------------------------------------------------- #
# the top-level entry point
# ---------------------------------------------------------------------- #


def _scratch_root(tag: str) -> str:
    """Short-pathed scratch dir (unix sockets cap at ~107 chars)."""
    base = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    return tempfile.mkdtemp(prefix=f"bench-{tag}-", dir=base)


def run_scenario(
    scenario_name: str,
    *,
    profile: str = "short",
    config: str = "direct",
    seed: int = DEFAULT_SEED,
    params: dict | None = None,
) -> dict:
    """Run one scenario end to end and return its validated BenchRecord."""
    scenario = SCENARIOS[scenario_name]
    if config not in scenario.configs:
        raise ValueError(
            f"scenario {scenario_name!r} does not support config {config!r} "
            f"(supported: {scenario.configs})"
        )
    cfg = CONFIGS[config]
    ops = scenario.ops(seed, profile, params)
    merged_params = scenario.profile_params(profile, params)

    root = _scratch_root(scenario_name)
    daemon_proc = None
    socket_path = None
    try:
        shared_cache().clear()
        shared_cache().reset_stats()
        if cfg.daemon:
            from repro.plfsd import stress

            socket_path = os.path.join(root, "bench.sock")
            daemon_proc = stress.start_daemon(socket_path)
        result = execute_stream(
            ops,
            os.path.join(root, "backend"),
            cfg,
            seed,
            params=merged_params,
            socket_path=socket_path,
        )
    finally:
        if daemon_proc is not None:
            from repro.plfsd import stress

            stress.stop_daemon(daemon_proc, socket_path)
        shutil.rmtree(root, ignore_errors=True)

    return record_mod.assert_valid(
        record_mod.make_record(
            scenario=scenario_name,
            profile=profile,
            config=cfg.name,
            seed=seed,
            params={k: merged_params[k] for k in sorted(merged_params)},
            op_stream=stream_summary(ops),
            counters=result.counters,
        )
    )
