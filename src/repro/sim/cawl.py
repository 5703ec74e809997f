"""CAWL-style cache-aware write-back model over the DES core.

Executes a :mod:`repro.bench` op stream on a *simulated* storage stack:
a block-granular write-back cache (absorbing hot overwrites, the CAWL
regime) in front of a slow backing store, with metadata creates
serializing on a single-capacity MDS resource — the same dedicated-MDS
topology the real daemon reproduces.  Because the clock is simulated,
every latency and counter is exactly deterministic; the ``sim`` config
of :mod:`repro.bench` records the counters, and the simulated times are
this model's own output.

Model (all parameters overridable through the scenario params dict):

- writes land in the cache at cache speed; bytes newly dirtied fill a
  :class:`~repro.sim.resources.Tank`, whose capacity is the natural
  backpressure — a full cache stalls the writer until the flusher drains;
- a background flusher wakes above the high-watermark and drains down to
  the low-watermark at backing bandwidth;
- a write to an already-dirty block is *absorbed* (no new dirty bytes:
  the write-back win the hot/cold scenario is shaped to expose);
- reads hit resident blocks at cache speed and miss to the backing store,
  promoting what they fetch; clean blocks evict LRU under the residency
  cap, dirty blocks are pinned until flushed;
- fsync drains every dirty byte synchronously;
- creates pay the MDS metadata cost under a capacity-1 resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Environment, Event
from .resources import Resource, Tank

#: default model parameters (keys the scenario params dict may override)
DEFAULTS = {
    "sim_cache_bytes": 128 * 1024,
    "sim_block_bytes": 4096,
    "sim_cache_bw": 2e9,  # bytes/s
    "sim_backing_bw": 100e6,  # bytes/s
    "sim_cache_op_seconds": 2e-6,
    "sim_backing_op_seconds": 1e-4,
    "sim_meta_op_seconds": 1e-3,
    "sim_hiwater": 0.75,  # fraction of cache
    "sim_lowater": 0.25,
    "sim_flush_chunk_bytes": 64 * 1024,
}


@dataclass
class _ModelParams:
    cache_bytes: int
    block_bytes: int
    cache_bw: float
    backing_bw: float
    cache_op_seconds: float
    backing_op_seconds: float
    meta_op_seconds: float
    hiwater_bytes: float
    lowater_bytes: float
    flush_chunk_bytes: int

    @classmethod
    def from_params(cls, params: dict | None) -> "_ModelParams":
        merged = dict(DEFAULTS)
        for key in DEFAULTS:
            if params and key in params:
                merged[key] = params[key]
        cache = int(merged["sim_cache_bytes"])
        return cls(
            cache_bytes=cache,
            block_bytes=int(merged["sim_block_bytes"]),
            cache_bw=float(merged["sim_cache_bw"]),
            backing_bw=float(merged["sim_backing_bw"]),
            cache_op_seconds=float(merged["sim_cache_op_seconds"]),
            backing_op_seconds=float(merged["sim_backing_op_seconds"]),
            meta_op_seconds=float(merged["sim_meta_op_seconds"]),
            hiwater_bytes=float(merged["sim_hiwater"]) * cache,
            lowater_bytes=float(merged["sim_lowater"]) * cache,
            flush_chunk_bytes=int(merged["sim_flush_chunk_bytes"]),
        )


class _CawlModel:
    """The simulated stack: cache state + the flusher process."""

    def __init__(self, env: Environment, p: _ModelParams):
        self.env = env
        self.p = p
        self.dirty = Tank(env, capacity=float(p.cache_bytes))
        self.mds = Resource(env, capacity=1)
        #: (file, block) -> True while resident; insertion order is LRU
        self.resident: dict[tuple[str, int], bool] = {}
        #: (file, block) -> dirty bytes awaiting write-back (FIFO)
        self.dirty_blocks: dict[tuple[str, int], int] = {}
        self.counters: dict[str, int] = {
            "sim_cache_hits": 0,
            "sim_cache_misses": 0,
            "sim_absorbed_overwrites": 0,
            "sim_writeback_flushes": 0,
            "sim_writeback_bytes": 0,
            "sim_sync_flushes": 0,
            "sim_meta_ops": 0,
            "sim_evictions": 0,
            "sim_backpressure_stalls": 0,
        }
        self._flush_wanted = Event(env)
        self._done = False
        env.process(self._flusher())

    # -- residency ------------------------------------------------------ #

    def _blocks(self, file: str, offset: int, size: int):
        b = self.p.block_bytes
        last = max(offset, offset + size - 1)
        return [(file, k) for k in range(offset // b, last // b + 1)]

    def _touch(self, key: tuple[str, int]) -> None:
        self.resident.pop(key, None)
        self.resident[key] = True
        cap = max(1, self.p.cache_bytes // self.p.block_bytes)
        while len(self.resident) > cap:
            victim = next(
                (k for k in self.resident if k not in self.dirty_blocks), None
            )
            if victim is None:
                break  # every block dirty: overcommit until the flusher runs
            del self.resident[victim]
            self.counters["sim_evictions"] += 1

    def _mark_clean(self, nbytes: float) -> None:
        """Retire the oldest dirty blocks covering ~nbytes (FIFO, matching
        the flusher's drain order)."""
        remaining = nbytes
        for key in list(self.dirty_blocks):
            if remaining <= 0:
                break
            remaining -= self.dirty_blocks.pop(key)

    # -- flusher -------------------------------------------------------- #

    def wake_flusher(self) -> None:
        if not self._flush_wanted.triggered:
            self._flush_wanted.succeed()

    def _flusher(self):
        p = self.p
        while True:
            yield self._flush_wanted
            if self._done:
                return
            self._flush_wanted = Event(self.env)
            while self.dirty.level > p.lowater_bytes:
                chunk = min(
                    self.dirty.level - p.lowater_bytes, p.flush_chunk_bytes
                )
                yield self.env.timeout(
                    p.backing_op_seconds + chunk / p.backing_bw
                )
                drained = self.dirty.get_up_to(chunk)
                self._mark_clean(drained)
                self.counters["sim_writeback_flushes"] += 1
                self.counters["sim_writeback_bytes"] += int(drained)

    def shutdown(self) -> None:
        self._done = True
        self.wake_flusher()

    # -- op implementations (generator processes) ----------------------- #

    def op_create(self, file: str, size: int):
        p = self.p
        req = self.mds.request()
        yield req
        yield self.env.timeout(p.meta_op_seconds)
        self.mds.release()
        self.counters["sim_meta_ops"] += 1
        if size:
            yield from self.op_write(file, 0, size)

    def op_write(self, file: str, offset: int, size: int):
        p = self.p
        new_bytes = 0
        for key in self._blocks(file, offset, size):
            if key in self.dirty_blocks:
                self.counters["sim_absorbed_overwrites"] += 1
            else:
                self.dirty_blocks[key] = p.block_bytes
                new_bytes += p.block_bytes
            self._touch(key)
        remaining = float(new_bytes)
        while remaining > 0:
            # chunk at half the cache so a put can always eventually fit
            # once the flusher drains to the low-watermark
            amount = min(remaining, self.dirty.capacity / 2)
            if self.dirty.level + amount > self.dirty.capacity:
                self.counters["sim_backpressure_stalls"] += 1
                self.wake_flusher()
            yield self.dirty.put(amount)
            remaining -= amount
        yield self.env.timeout(p.cache_op_seconds + size / p.cache_bw)
        if self.dirty.level >= p.hiwater_bytes:
            self.wake_flusher()

    def op_read(self, file: str, offset: int, size: int):
        p = self.p
        miss_bytes = 0
        for key in self._blocks(file, offset, size):
            if key in self.resident:
                self.counters["sim_cache_hits"] += 1
            else:
                self.counters["sim_cache_misses"] += 1
                miss_bytes += p.block_bytes
            self._touch(key)
        if miss_bytes:
            yield self.env.timeout(
                p.backing_op_seconds + miss_bytes / p.backing_bw
            )
        yield self.env.timeout(p.cache_op_seconds + size / p.cache_bw)

    def op_fsync(self):
        p = self.p
        amount = self.dirty.level
        self.counters["sim_sync_flushes"] += 1
        if amount > 0:
            yield self.env.timeout(p.backing_op_seconds + amount / p.backing_bw)
            drained = self.dirty.get_up_to(amount)
            self._mark_clean(drained)
            self.counters["sim_writeback_bytes"] += int(drained)
        else:
            yield self.env.timeout(p.backing_op_seconds)


@dataclass
class SimResult:
    """What the model says of one op stream, in *simulated* seconds."""

    counters: dict = field(default_factory=dict)
    #: (tenant, kind) -> per-op latencies
    latencies: dict = field(default_factory=dict)
    wall_seconds: float = 0.0


def execute_sim_stream(ops, seed: int, *, params: dict | None = None) -> SimResult:
    """Replay a bench op stream through the CAWL model."""
    env = Environment()
    model = _CawlModel(env, _ModelParams.from_params(params))
    result = SimResult()
    by_kind: dict[str, int] = {}

    def client():
        for op in ops:
            by_kind[op.kind] = by_kind.get(op.kind, 0) + 1
            t0 = env.now
            if op.kind == "create":
                yield from model.op_create(op.file, op.size)
            elif op.kind == "write":
                yield from model.op_write(op.file, op.offset, op.size)
            elif op.kind == "read":
                yield from model.op_read(op.file, op.offset, op.size)
            elif op.kind == "fsync":
                yield from model.op_fsync()
            else:
                raise ValueError(
                    f"sim config cannot execute op kind {op.kind!r}"
                )
            result.latencies.setdefault((op.tenant, op.kind), []).append(
                env.now - t0
            )
        model.shutdown()

    done = env.process(client())
    env.run(until=done)
    result.wall_seconds = env.now
    result.counters.update(model.counters)
    result.counters["ops_total"] = len(ops)
    for kind, n in sorted(by_kind.items()):
        result.counters[f"ops_{kind}"] = n
    result.counters["sim_residual_dirty_bytes"] = int(model.dirty.level)
    return result
