"""Execute a scenario's op stream against a real PLFS configuration and
assemble the :mod:`~repro.bench.record` for it.

Configurations (the ``config`` axis of a BenchRecord):

``direct``
    In-process :mod:`repro.plfs` API — the LDPLFS fast path.
``wal_batched``
    Same, with the PR-5 group-commit write-ahead index
    (``OpenOptions(write_ahead_index=True, wal_batch_records=N)``).
``daemon``
    Through a ``repro-plfsd`` daemon subprocess: one
    :class:`~repro.plfsd.client.PlfsdClient` per tenant, all metadata
    serializing on the daemon's global meta lock (the paper's dedicated
    MDS).
``sim``
    The CAWL cache-aware write-back model in :mod:`repro.sim.cawl` —
    same op stream, simulated clock, so the simulated and real
    trajectories are directly comparable.
``objectstore``
    The tiered object backend (:mod:`repro.plfs.objectstore`) installed
    behind ``plfs.backing``: writes land on the local tier and drain to
    the content-addressed store under the CAWL write-back policy — the
    real-path twin of the ``sim`` configuration.

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
from repro.plfs.api import OpenOptions
from repro.plfs.cache import shared_cache

from . import record as record_mod
from .scenarios import (
    DEFAULT_SEED,
    SCENARIOS,
    SOAK_ARMS,
    Op,
    payload,
    stream_summary,
)

#: WAL group-commit window for the ``wal_batched`` configuration
WAL_BATCH_RECORDS = 16


@dataclass(frozen=True)
class BenchConfig:
    name: str
    daemon: bool = False
    sim: bool = False
    wal: bool = False
    wal_batch: int = 1
    objectstore: bool = False

    def open_options(self) -> OpenOptions:
        return OpenOptions(
            write_ahead_index=self.wal, wal_batch_records=self.wal_batch
        )


CONFIGS: dict[str, BenchConfig] = {
    "direct": BenchConfig("direct"),
    "wal_batched": BenchConfig(
        "wal_batched", wal=True, wal_batch=WAL_BATCH_RECORDS
    ),
    "daemon": BenchConfig("daemon", daemon=True),
    "sim": BenchConfig("sim", sim=True),
    "objectstore": BenchConfig("objectstore", objectstore=True),
}


@dataclass
class ExecutionResult:
    """Raw outcome of one op-stream replay."""

    counters: dict = field(default_factory=dict)
    #: object-store byte totals (see :data:`HOST_SIZED_BYTES`)
    host_sized_bytes: dict = field(default_factory=dict)


#: Byte totals of the object-store backend.  Their payloads include the
#: access file (``host=<hostname>\npid=<pid>``), so they move with
#: hostname length and pid width: they travel in the ratio-compared
#: ``derived.bytes`` section; the matching *counts* stay exact counters.
HOST_SIZED_BYTES = (
    "object_put_bytes",
    "object_get_bytes",
    "tier_writeback_bytes",
    "tier_evicted_bytes",
    "tier_cycle_evicted_bytes",
    "tier_restored_bytes",
)


def _accumulate(totals: dict, stats: dict) -> None:
    for key, value in stats.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        totals[key] = totals.get(key, 0) + value


# ---------------------------------------------------------------------- #
# executors
# ---------------------------------------------------------------------- #


class _Executor:
    """Replays ops through the plfs API — ``plfs_*`` dispatch on the handle,
    local or daemon-held — keeping one O_RDWR handle per logical file and
    harvesting fast-lane counters on close.  Given a *socket_path* the
    handles come from a running plfsd daemon: one client connection per
    tenant, handles held daemon-side, every create serializing on the
    daemon's global meta lock; the run then exports the daemon's counters."""

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
            return plfs.plfs_open(path, flags, mode=0o644, open_opt=self.config.open_options())
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
        if getattr(fd, "writer", None) is not None:
            _accumulate(self.writer_totals, fd.writer.stats)
        reader = getattr(fd, "_reader", None)
        if reader is not None:
            _accumulate(self.reader_totals, reader.stats)

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
                open_opt=self.config.open_options(),
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
            _accumulate(self.writer_totals, eng.writer_stats)
            _accumulate(self.collective_totals, eng.counters)
        self.engines.clear()
        if self.socket_path is None:
            return export_runtime_counters(
                cache_stats=shared_cache().stats,
                writer_stats=self.writer_totals,
                reader_stats=self.reader_totals,
                collective_stats=self.collective_totals or None,
            )
        from repro.plfsd import stress

        stats = stress.daemon_stats(self.socket_path)
        for cli in self.clients.values():
            cli.close()
        self.clients.clear()
        return export_runtime_counters(server_stats=stats)


# ---------------------------------------------------------------------- #
# crash-soak cycles (direct/objectstore only: faults inject in-process)
# ---------------------------------------------------------------------- #


def _run_crash_cycle(root: str, op: Op, ops_per_cycle: int, backend=None) -> dict:
    """One seeded crash/recovery cycle: faulted schedule -> fsck ->
    reread -> verify against the recovery invariant.  Returns the cycle's
    deterministic counter deltas.

    Under the objectstore config (*backend* given) the cycle additionally
    drains the tier, hands the store to fsck's reconcile passes, then
    round-trips the container through a prefix-scoped evict + restore —
    proving the recovered content survives losing every local copy.
    """
    from repro.faults import harness
    from repro.faults.fsck import fsck
    from repro.faults.injector import FaultInjector, FaultSpec

    point, behavior, wal = SOAK_ARMS[op.size % len(SOAK_ARMS)]
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
        path,
        schedule,
        wal=wal,
        wal_batch=4 if wal else 1,
        injector=injector,
        sync_every=sync_every,
    )
    if backend is not None:
        backend.tier.drain()
        report = fsck(
            path, objectstore=backend.store, objectstore_root=backend.tier.root
        )
    else:
        report = fsck(path)
    content = harness.read_back(path)
    acceptable = outcome.acceptable_states()
    if content not in acceptable:
        raise AssertionError(
            f"crash_soak cycle {op.file} ({point}:{behavior}, wal={wal}) "
            f"recovered {len(content)} bytes outside the acceptable states "
            f"({len(acceptable)} candidates; fsck: {len(report.actions)} "
            f"actions, unrecoverable={report.unrecoverable})"
        )
    deltas = {
        "cycles": 1,
        "crashes": int(outcome.crashed),
        "full_recoveries": int(content == outcome.expected_full()),
        "acknowledged_writes": len(outcome.applied),
        "fsck_actions": len(report.actions),
        "fsck_rebuilt_indexes": report.rebuilt_indexes,
        "fsck_unrecoverable": len(report.unrecoverable),
        "verified_bytes": len(content),
    }
    if backend is not None:
        # The store is the authority: evict every local copy of this
        # container and fault it back, demanding identical logical reads.
        prefix = (
            os.path.relpath(path, backend.tier.root).replace(os.sep, "/") + "/"
        )
        deltas["tier_cycle_evicted_bytes"] = backend.tier.evict(prefix)
        deltas["tier_cycle_restores"] = len(backend.tier.restore_missing(prefix))
        roundtrip = harness.read_back(path)
        if roundtrip != content:
            raise AssertionError(
                f"crash_soak cycle {op.file}: evict/restore round trip "
                f"changed the recovered content "
                f"({len(roundtrip)} vs {len(content)} bytes)"
            )
    return deltas


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
    object_store_dir: str | None = None,
) -> ExecutionResult:
    """Replay *ops* against *root* under *config*.

    For the ``daemon`` config the caller owns the daemon lifecycle and
    passes its *socket_path* (so differential tests can replay several
    streams against one daemon).  ``sim`` streams never touch *root*.
    The ``objectstore`` config installs the tiered object backend for
    the duration of the replay (*object_store_dir* defaults to a sibling
    of *root*) and drains the tier at the end — the sync barrier the
    CAWL sim charges for.
    """
    cfg = CONFIGS[config] if isinstance(config, str) else config
    params = params or {}
    if cfg.sim:
        from repro.sim.cawl import execute_sim_stream

        return ExecutionResult(execute_sim_stream(ops, seed, params=params).counters)
    if cfg.daemon and socket_path is None:
        raise ValueError("daemon config requires socket_path")
    executor = _Executor(root, cfg, seed, params, socket_path if cfg.daemon else None)

    backend = None
    previous = None
    if cfg.objectstore:
        from repro.plfs import backing
        from repro.plfs.objectstore import make_backend

        backend = make_backend(root, object_store_dir)
        previous = backing.install(backend)

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
    try:
        for op in ops:
            by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
            if op.kind == "crash_cycle":
                if cfg.daemon or cfg.wal:
                    raise ValueError(
                        "crash_cycle ops only run on the direct or "
                        f"objectstore configs, not {cfg.name}"
                    )
                deltas = _run_crash_cycle(
                    root, op, int(params.get("ops_per_cycle", 18)), backend=backend
                )
                _accumulate(result.counters, deltas)
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
        if backend is not None:
            backend.tier.drain()
    finally:
        if backend is not None:
            backing.install(previous)
    if backend is not None:
        result.counters.update(backend.counters())
        for key in HOST_SIZED_BYTES:
            if key in result.counters:
                result.host_sized_bytes[key] = result.counters.pop(key)
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
            host_sized_bytes=result.host_sized_bytes,
        )
    )
