"""Seeded POSIX call streams, one generator per workload.

A stream is a flat list of op tuples over *symbolic* descriptors (slots)
and *symbolic* roots (``T`` — the target tree: the mount under the shim,
a raw directory on the floor; ``F`` — a raw directory on both sides), so
the very same list is replayed against both.  The seed changes offsets,
names and payload bytes only: call counts, byte counts and the shape the
program's index takes (which writes can merge, how many slices a read
plans) are the same for every seed, so counts compare exactly across
seeds.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

# op kinds, most frequent first (replay dispatches on them in this order)
(
    PWRITE, PREAD, WRITE, READ, OPEN, CLOSE, STAT, FSTAT, FSYNC, UNLINK,
    RENAME, LISTDIR, MKDIR, RMDIR, SCAN, CP, CAT, MD5, MARK,
) = range(19)

#: payload records come from a pool this big (a prime, so a multiplicative
#: walk visits every record and neighbouring blocks never share content)
POOL = 1021

KIB = 1024
MIB = 1024 * 1024

T, F = "T", "F"


@dataclass
class Stream:
    """One workload's call stream plus the facts derived from its sizes."""

    name: str
    ops: list
    pool: list  # payload records, indexed by PWRITE/WRITE ops
    slots: int
    #: application POSIX calls in the stream (file-object reads/writes of
    #: SCAN/CP/CAT/MD5 never pass through ``os.*``; they are counted here
    #: from the sizes)
    calls: int
    bytes_written: int
    bytes_read: int
    #: logical files the stream creates (denominator of files_per_create)
    creates: int
    #: logical bytes living in ``T`` at the MARK (denominator of space_amp)
    stored: int
    #: stream that must have been replayed into ``T`` first (set-up)
    fixture: "Stream | None" = None
    #: files the set-up writes into ``F``: (relative name, size); their
    #: bytes come from ``flat_input_tiles(seed, name, size)``
    flat_inputs: list = field(default_factory=list)
    seed: int = 0
    #: block ``b`` of the file holds payload record ``(b * step) % POOL``
    step: int = 0
    #: read expectations that straddle two records, built once by ``bind``
    straddles: dict = field(default_factory=dict, repr=False, compare=False)

    def digest(self) -> str:
        """sha256 of the whole stream: payload pool, then every op."""
        h = hashlib.sha256()
        for rec in self.pool:
            h.update(rec)
        for op in self.ops:
            h.update(repr(op).encode())
        if self.fixture is not None:
            h.update(self.fixture.digest().encode())
        for name, size in self.flat_inputs:
            h.update(f"{name}:{size}:{self.seed}".encode())
        return h.hexdigest()


def _pool(rng: random.Random, block: int) -> list:
    return [rng.randbytes(block) for _ in range(POOL)]


def _tool_calls(size: int, block: int) -> int:
    """POSIX calls one sequential pass makes: open, reads to EOF, close."""
    return 1 + (size // block + 1) + 1


def n1_checkpoint(seed: int, *, ranks: int = 16, rounds: int = 2048, block: int = 4 * KIB) -> Stream:
    rng = random.Random(f"n1:{seed}")
    pool = _pool(rng, block)
    # which stride slot each descriptor owns, and where its payload walk starts
    perm = list(range(ranks))
    rng.shuffle(perm)
    step = rng.randrange(1, POOL)
    path = (T, "ckpt")
    ops: list = [(OPEN, i, path, os.O_WRONLY | os.O_CREAT) for i in range(ranks)]
    for r in range(rounds):
        base = r * ranks
        for i in range(ranks):
            blk = base + perm[i]
            ops.append((PWRITE, i, (blk * step) % POOL, blk * block))
    ops += [(CLOSE, i) for i in range(ranks)]
    ops.append((MARK,))
    total = ranks * rounds * block
    return Stream(
        "n1_checkpoint", ops, pool, ranks,
        calls=2 * ranks + ranks * rounds, bytes_written=total, bytes_read=0, creates=1,
        stored=total, step=step,
    )


def restart_read(
    seed: int, *, ranks: int = 16, rounds: int = 2048, block: int = 4 * KIB,
    preads: int = 40_000, scan_block: int = MIB,
) -> Stream:
    fixture = n1_checkpoint(seed, ranks=ranks, rounds=rounds, block=block)
    rng = random.Random(f"restart:{seed}")
    blocks = ranks * rounds
    size = blocks * block
    path = (T, "ckpt")
    ops: list = [(OPEN, 0, path, os.O_RDONLY)]
    step = fixture.step
    for i in range(preads):
        if i % 2:
            # straddles two neighbouring blocks (two droppings under PLFS)
            blk, intra = rng.randrange(blocks - 1), rng.randrange(1, block)
            expect = ((blk * step) % POOL, ((blk + 1) * step) % POOL, intra)
        else:
            blk, intra = rng.randrange(blocks), 0
            expect = (blk * step) % POOL
        ops.append((PREAD, 0, block, blk * block + intra, expect))
    ops.append((SCAN, path, scan_block))
    ops.append((CLOSE, 0))
    ops.append((MARK,))
    return Stream(
        "restart_read", ops, fixture.pool, 1,
        calls=2 + preads + _tool_calls(size, scan_block),
        bytes_written=0, bytes_read=preads * block + size, creates=1, stored=size,
        fixture=fixture,
    )


def metadata_storm(seed: int, *, files: int = 1000, size: int = 512) -> Stream:
    rng = random.Random(f"storm:{seed}")
    pool = _pool(rng, size)
    tag = f"{rng.getrandbits(32):08x}"
    names = [f"f{tag}-{i:05d}" for i in range(files)]
    rng.shuffle(names)
    d = "storm"
    p = lambda name: (T, f"{d}/{name}")  # noqa: E731
    ops: list = [(MKDIR, (T, d))]
    written = {name: i % POOL for i, name in enumerate(names)}
    for name in names:
        ops.append((OPEN, 0, p(name), os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        ops.append((WRITE, 0, written[name]))
        ops.append((CLOSE, 0))
    ops.append((LISTDIR, (T, d)))
    ops.append((MARK,))
    ops += [(STAT, p(name)) for name in names]
    for name in names:
        ops.append((OPEN, 0, p(name), os.O_RDONLY))
        ops.append((READ, 0, size, written[name]))
        ops.append((CLOSE, 0))
    final = list(names)
    for i in range(0, files, 2):
        final[i] = "r" + names[i][1:]
        ops.append((RENAME, p(names[i]), p(final[i])))
    ops.append((LISTDIR, (T, d)))
    ops += [(UNLINK, p(name)) for name in final]
    ops.append((RMDIR, (T, d)))
    return Stream(
        "metadata_storm", ops, pool, 1,
        calls=sum(1 for op in ops if op[0] != MARK),
        bytes_written=files * size, bytes_read=files * size, creates=files,
        stored=files * size,
    )


def unixtools_stream(seed: int, *, size: int = 128 * MIB, block: int = 128 * KIB) -> Stream:
    # The tools copy in their own fixed 128 KiB blocks; *block* only sizes
    # the call count.  The seed decides the source's bytes (see
    # ``flat_input_tiles``), nothing else.
    ops = [
        (CP, (F, "source"), (T, "target")),
        (MARK,),
        (CAT, (T, "target")),
        (MD5, (T, "target")),
        (CP, (T, "target"), (F, "copy")),
    ]
    per_pass = _tool_calls(size, block)
    writes = size // block + 2  # open, writes, close of a copy's destination
    return Stream(
        "unixtools_stream", ops, [], 0,
        calls=4 * per_pass + 2 * writes,
        bytes_written=2 * size, bytes_read=4 * size, creates=1, stored=size,
        flat_inputs=[("source", size)], seed=seed,
    )


def rw_interleave(
    seed: int, *, rounds: int = 256, per_round: int = 32, block: int = 4 * KIB
) -> Stream:
    rng = random.Random(f"rw:{seed}")
    pool = _pool(rng, block)
    step = rng.randrange(1, POOL)
    path = (T, "shared")
    w, r = 0, 1
    ops: list = [(OPEN, w, path, os.O_WRONLY | os.O_CREAT), (OPEN, r, path, os.O_RDONLY)]
    for rnd in range(rounds):
        base = rnd * per_round
        # Descending from a seeded rotation: no write ever continues the
        # previous one, so no seed lets the writer merge index records.
        k = rng.randrange(per_round)
        for j in range(per_round):
            blk = base + (k - 1 - j) % per_round
            ops.append((PWRITE, w, (blk * step) % POOL, blk * block))
        ops.append((FSYNC, w))
        ops.append((FSTAT, r))
        written = base + per_round
        for _ in range(per_round):
            blk = rng.randrange(written)
            ops.append((PREAD, r, block, blk * block, (blk * step) % POOL))
    ops += [(CLOSE, r), (CLOSE, w), (MARK,)]
    total = rounds * per_round * block
    return Stream(
        "rw_interleave", ops, pool, 2,
        calls=4 + rounds * (2 * per_round + 2),
        bytes_written=total, bytes_read=total, creates=1, stored=total,
    )


def flat_input_tiles(seed: int, name: str, size: int):
    """Contents of a set-up file in ``F``, a tile at a time: a seeded
    1 MiB tile, repeated with a counter in front so no two are equal."""
    rng = random.Random(f"input:{seed}:{name}")
    tile = rng.randbytes(min(size, MIB))
    for n, start in enumerate(range(0, size, MIB)):
        yield (n.to_bytes(8, "little") + tile[8:])[: size - start]


GENERATORS = {
    "n1_checkpoint": n1_checkpoint,
    "restart_read": restart_read,
    "metadata_storm": metadata_storm,
    "unixtools_stream": unixtools_stream,
    "rw_interleave": rw_interleave,
}

#: sizes small enough for a unit test (same shapes, seconds -> milliseconds)
TINY = {
    "n1_checkpoint": dict(ranks=4, rounds=32),
    "restart_read": dict(ranks=4, rounds=32, preads=200, scan_block=16 * KIB),
    "metadata_storm": dict(files=24),
    "unixtools_stream": dict(size=MIB),
    "rw_interleave": dict(rounds=12, per_round=8),
}


def generate(name: str, seed: int, sizes: dict | None = None) -> Stream:
    """The workload's stream at its fixed sizes, or at *sizes* (tests)."""
    return GENERATORS[name](seed, **(sizes or {}))
