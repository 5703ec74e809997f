"""Deterministic, composable workload generators for the bench suite.

Each scenario is a pure function from ``(seed, params)`` to a flat list
of :class:`Op` — no wall-clock, no host state, no randomness outside one
``random.Random(seed)`` stream — so the same seed always yields the same
op stream on every machine and Python version (the Mersenne Twister is
part of the language spec).  The runner replays the stream against any
backend (direct, daemon) and the differential
tests replay it against two backends and demand identical bytes.

The four production shapes (ROADMAP item 4):

``metadata_storm``
    N clients x M tiny-file create+write+close — the paper's §V.C
    FLASH-IO create storm with real bytes.  Every create is one op, so
    the counters say what one tiny file costs in containers and flushes.
``hot_cold_mix``
    Zipf-skewed mixed read/write over a small hot set and a large cold
    set of containers (CAWL's cache-aware regime: hot overwrites should
    be absorbed by any write-back layer, cold reads should miss).
``multi_tenant``
    A metadata-storm tenant and a streaming-append tenant interleaved
    over one store — the interference workload.
``crash_soak``
    Seeded crash/recovery cycles: each cycle runs a faulted write
    schedule (reusing :mod:`repro.faults`), fscks the container, rereads
    it and verifies the recovery invariant.
``collective_io``
    The §II optimisation comparison with real bytes: the same strided
    shared-file rounds replayed by a ``cb`` tenant (two-phase collective
    buffering) and an ``indep`` tenant (per-rank list I/O), so the
    engine counters (``cb_backend_writes``, ``cb_aggregation_ratio``)
    record the aggregation; its timed guard is
    ``benchmarks/test_collective.py``.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

#: default seed for committed baselines and CI runs
DEFAULT_SEED = 1337

#: op kinds the runner understands
KINDS = (
    "create",
    "write",
    "read",
    "fsync",
    "crash_cycle",
    "coll_write",
    "coll_read",
)

#: fault arms a crash_soak cycle rotates through: (point, behavior)
SOAK_ARMS: tuple[tuple[str, str], ...] = (
    ("data_write", "torn"),
    ("data_write", "crash"),
    ("index_flush", "crash"),
    ("fsync", "crash"),
)


@dataclass(frozen=True)
class Op:
    """One operation of a workload stream.

    ``create`` — open O_CREAT|O_WRONLY, write ``size`` payload bytes at 0,
    close (one timed metadata-heavy op).  ``write``/``read`` — positioned
    I/O on a handle the runner keeps open.  ``fsync`` — plfs_sync on the
    open handle.  ``crash_cycle`` — one faulted write schedule + fsck +
    verify; ``offset`` carries the cycle seed and ``size`` the arm index
    into :data:`SOAK_ARMS`.
    """

    tenant: str
    kind: str
    file: str
    offset: int = 0
    size: int = 0


_BLOCK = bytes(range(256)) * 2


def payload(seed: int, file: str, offset: int, size: int) -> bytes:
    """Deterministic payload bytes for a write: a phase-shifted repeating
    block keyed by (seed, file, offset).  Cheap to build at any size and
    identical on every backend — the differential tests depend on it."""
    phase = (zlib.crc32(f"{seed}:{file}".encode()) + offset) % 256
    need = (phase + size + len(_BLOCK) - 1) // len(_BLOCK)
    return (_BLOCK * max(1, need))[phase : phase + size]


def op_stream_digest(ops: list[Op]) -> str:
    """Stable hex digest of an op stream (the determinism fingerprint)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(
            f"{op.tenant}|{op.kind}|{op.file}|{op.offset}|{op.size}\n".encode()
        )
    return h.hexdigest()


def stream_summary(ops: list[Op]) -> dict:
    """Deterministic shape of a stream, embedded in every BenchRecord."""
    by_kind: dict[str, int] = {}
    files: set[str] = set()
    tenants: set[str] = set()
    written = 0
    read = 0
    for op in ops:
        by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
        files.add(op.file)
        tenants.add(op.tenant)
        if op.kind in ("create", "write", "coll_write"):
            written += op.size
        elif op.kind in ("read", "coll_read"):
            read += op.size
    return {
        "ops": len(ops),
        "digest": op_stream_digest(ops),
        "by_kind": dict(sorted(by_kind.items())),
        "bytes_written": written,
        "bytes_read": read,
        "files": len(files),
        "tenants": len(tenants),
    }


def zipf_rank(rng: random.Random, n: int, s: float) -> int:
    """A rank in [0, n) drawn from a Zipf(s) distribution via inverse CDF
    over the finite harmonic weights (exact and deterministic)."""
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if x <= acc:
            return k
    return n - 1


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #


def gen_metadata_storm(
    seed: int,
    *,
    clients: int = 4,
    files_per_client: int = 12,
    payload_bytes: int = 256,
) -> list[Op]:
    """N clients x M tiny-file creates, interleaved round-robin with a
    seeded jitter so creates from different clients collide the way a
    real storm's do."""
    rng = random.Random(seed)
    pending = {
        c: [
            Op(f"client{c}", "create", f"storm/c{c}.f{i}", 0, payload_bytes)
            for i in range(files_per_client)
        ]
        for c in range(clients)
    }
    ops: list[Op] = []
    live = [c for c in pending if pending[c]]
    while live:
        c = live[rng.randrange(len(live))]
        ops.append(pending[c].pop(0))
        if not pending[c]:
            live.remove(c)
    return ops


def gen_hot_cold_mix(
    seed: int,
    *,
    hot_files: int = 4,
    cold_files: int = 16,
    ops: int = 320,
    zipf_s: float = 1.2,
    read_fraction: float = 0.45,
    hot_fraction: float = 0.8,
    max_chunk: int = 4096,
    file_bytes: int = 65536,
) -> list[Op]:
    """Zipf-skewed mixed read/write over warm and cold containers.

    A warm-up phase seeds every file with one chunk (so reads always have
    bytes to hit); the mixed phase then sends ``hot_fraction`` of ops to
    the Zipf-ranked hot set and the rest uniformly over the cold set.
    Reads stay within each file's written high-water mark; every 32nd op
    is an fsync on the hottest file (the write-back flush pressure CAWL
    models).
    """
    rng = random.Random(seed)
    names = [f"hot/h{i}" for i in range(hot_files)] + [
        f"cold/c{i}" for i in range(cold_files)
    ]
    size: dict[str, int] = {}
    out: list[Op] = []
    for name in names:
        n = rng.randint(max_chunk // 2, max_chunk)
        out.append(Op("mixer", "write", name, 0, n))
        size[name] = n
    for i in range(ops):
        if i % 32 == 31:
            out.append(Op("mixer", "fsync", names[0], 0, 0))
            continue
        if rng.random() < hot_fraction:
            name = names[zipf_rank(rng, hot_files, zipf_s)]
        else:
            name = names[hot_files + rng.randrange(cold_files)]
        n = rng.randint(64, max_chunk)
        if rng.random() < read_fraction:
            off = rng.randrange(max(1, size[name]))
            n = min(n, size[name] - off)
            if n <= 0:
                n = 1
                off = 0
            out.append(Op("mixer", "read", name, off, n))
        else:
            off = rng.randrange(max(1, min(size[name], file_bytes - n)))
            out.append(Op("mixer", "write", name, off, n))
            size[name] = max(size[name], off + n)
    return out


def gen_multi_tenant(
    seed: int,
    *,
    storm_files: int = 24,
    storm_payload: int = 256,
    stream_chunks: int = 32,
    stream_chunk_bytes: int = 32768,
    storm_weight: float = 0.5,
) -> list[Op]:
    """A storm tenant and a streaming tenant sharing one store: tiny-file
    creates interleaved into a large sequential append stream."""
    rng = random.Random(seed)
    storm = [
        Op("storm", "create", f"mt/storm.{i}", 0, storm_payload)
        for i in range(storm_files)
    ]
    stream = [
        Op(
            "stream",
            "write",
            "mt/stream",
            j * stream_chunk_bytes,
            stream_chunk_bytes,
        )
        for j in range(stream_chunks)
    ]
    ops: list[Op] = []
    while storm or stream:
        take_storm = storm and (not stream or rng.random() < storm_weight)
        ops.append(storm.pop(0) if take_storm else stream.pop(0))
    return ops


def gen_collective_io(
    seed: int,
    *,
    nodes: int = 4,
    ppn: int = 4,
    rounds: int = 3,
    per_rank_bytes: int = 262144,
    record_bytes: int = 4096,
    read_rounds: int = 1,
) -> list[Op]:
    """Two tenants replay the *same* strided shared-file workload:
    every rank contributes ``per_rank_bytes`` per round through an
    interleaved ``record_bytes`` file view — the ``cb`` tenant down the
    two-phase collective engine, the ``indep`` tenant down per-rank
    list I/O (``romio_cb_write=false``).  One ``coll_write`` op is one
    whole collective round (``offset`` carries the round index, ``size``
    the per-rank contribution); ``nodes``/``ppn``/``record_bytes`` ride
    into the runner's engine parameters.  Each round's contribution
    is jittered by a seeded whole-record amount — identically for both
    tenants, so the pairing stays a fair comparison while the stream
    (and its digest) is a function of the seed like every scenario."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for rnd in range(rounds):
        size = per_rank_bytes + rng.randrange(0, 8) * record_bytes
        for tenant in ("cb", "indep"):
            ops.append(Op(tenant, "coll_write", f"coll/{tenant}", rnd, size))
    for rnd in range(read_rounds):
        size = per_rank_bytes + rng.randrange(0, 8) * record_bytes
        for tenant in ("cb", "indep"):
            ops.append(Op(tenant, "coll_read", f"coll/{tenant}", rnd, size))
    return ops


def gen_crash_soak(
    seed: int,
    *,
    cycles: int = 6,
    ops_per_cycle: int = 18,
) -> list[Op]:
    """Seeded crash/recovery cycles rotating through :data:`SOAK_ARMS`.

    Each op's ``offset`` is the cycle's schedule seed and ``size`` the
    arm index; ``ops_per_cycle`` rides along in the runner params."""
    rng = random.Random(seed)
    return [
        Op(
            "soaker",
            "crash_cycle",
            f"soak/cycle.{i}",
            rng.randrange(2**31),
            i % len(SOAK_ARMS),
        )
        for i in range(cycles)
    ]


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Scenario:
    """One declarative workload: generator + per-profile parameters."""

    name: str
    description: str
    generate: Callable[..., list[Op]]
    profiles: dict[str, dict] = field(default_factory=dict)
    #: runner configurations this scenario supports
    configs: tuple[str, ...] = ("direct", "daemon")

    def ops(self, seed: int, profile: str = "short", params: dict | None = None) -> list[Op]:
        if profile not in self.profiles:
            raise KeyError(
                f"scenario {self.name!r} has no profile {profile!r} "
                f"(have: {sorted(self.profiles)})"
            )
        merged = dict(self.profiles[profile])
        if params:
            merged.update(params)
        return self.generate(seed, **merged)

    def profile_params(self, profile: str, params: dict | None = None) -> dict:
        merged = dict(self.profiles[profile])
        if params:
            merged.update(params)
        return merged


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "metadata_storm",
            "N clients x M tiny-file creates (the §V.C storm, real bytes)",
            gen_metadata_storm,
            profiles={
                "short": dict(clients=4, files_per_client=12, payload_bytes=256),
                "full": dict(clients=8, files_per_client=200, payload_bytes=256),
            },
        ),
        Scenario(
            "hot_cold_mix",
            "Zipf-skewed mixed read/write over hot and cold containers",
            gen_hot_cold_mix,
            profiles={
                "short": dict(hot_files=4, cold_files=16, ops=320),
                "full": dict(hot_files=8, cold_files=64, ops=4096),
            },
            configs=("direct", "daemon"),
        ),
        Scenario(
            "multi_tenant",
            "a create-storm tenant interfering with a streaming tenant",
            gen_multi_tenant,
            profiles={
                "short": dict(storm_files=24, stream_chunks=32),
                "full": dict(
                    storm_files=256, stream_chunks=256, stream_chunk_bytes=262144
                ),
            },
        ),
        Scenario(
            "collective_io",
            "two-phase collective buffering vs independent strided list I/O",
            gen_collective_io,
            profiles={
                "short": dict(
                    nodes=4,
                    ppn=4,
                    rounds=3,
                    per_rank_bytes=262144,
                    record_bytes=4096,
                    read_rounds=1,
                ),
                "full": dict(
                    nodes=4,
                    ppn=4,
                    rounds=8,
                    per_rank_bytes=262144,
                    record_bytes=4096,
                    read_rounds=2,
                ),
            },
            configs=("direct",),
        ),
        Scenario(
            "crash_soak",
            "fault-injected writers + fsck + reread (recovery under churn)",
            gen_crash_soak,
            profiles={
                "short": dict(cycles=6, ops_per_cycle=18),
                "full": dict(cycles=48, ops_per_cycle=32),
            },
            configs=("direct",),
        ),
    )
}
