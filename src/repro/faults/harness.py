"""Crash-consistency test driver.

Runs a write schedule against a real container while keeping a *shadow*
model — the flat-file content the schedule's acknowledged writes imply —
with one fault from the matrix armed.  After the fault (and ``repro-fsck``)
the container is compared against the shadow:

- for **recoverable** arms the recovered content must be *byte-identical*
  to :meth:`RunOutcome.expected_full` (every acknowledged byte, plus the
  physically-landed prefix of a torn write);
- for **unrecoverable** arms the content must be one of
  :meth:`RunOutcome.acceptable_states`: a write-order-consistent prefix of
  the acknowledged writes that is *at least* the last synced state —
  recovery may lose unflushed tail writes (and must say so), but may never
  lose synced data or invent bytes.

The harness talks to the bare :mod:`repro.plfs` API (no shim) so each
fault lands at a known operation; the multiprocess stress test covers the
shim path.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import plfs

from .injector import FaultEvent, FaultInjector, FaultSpec, InjectedCrash
from .matrix import FaultCase


@dataclass(frozen=True)
class WriteOp:
    offset: int
    data: bytes


def random_schedule(
    seed: int,
    ops: int = 24,
    max_offset: int = 4096,
    max_len: int = 512,
) -> list[WriteOp]:
    """A seeded schedule mixing sequential runs (which exercise index-record
    merging) with random-offset writes (which exercise overwrite
    resolution)."""
    rng = random.Random(seed)
    out: list[WriteOp] = []
    for _ in range(ops):
        length = rng.randint(1, max_len)
        if out and rng.random() < 0.5:
            prev = out[-1]
            offset = prev.offset + len(prev.data)
        else:
            offset = rng.randint(0, max_offset)
        out.append(WriteOp(offset, rng.randbytes(length)))
    return out


def replay(ops: list[tuple[int, bytes]]) -> bytes:
    """The flat-file content a sequence of (offset, data) writes implies
    (holes read back as zeros, later writes shadow earlier ones)."""
    buf = bytearray()
    for off, data in ops:
        end = off + len(data)
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[off:end] = data
    return bytes(buf)


@dataclass
class RunOutcome:
    """What one faulted run actually did, from the application's view."""

    schedule: list[WriteOp]
    #: acknowledged effective writes, in order (short writes store the
    #: acknowledged prefix only)
    applied: list[tuple[int, bytes]] = field(default_factory=list)
    #: len(applied) at the last successful plfs_sync
    synced_applied: int = 0
    #: physically-landed prefix of the op that crashed mid-data-append
    partial: tuple[int, bytes] | None = None
    crashed: bool = False
    close_error: OSError | None = None
    #: OSErrors the "application" saw mid-schedule (EINTR/ENOSPC faults)
    errors: list[OSError] = field(default_factory=list)
    events: list[FaultEvent] = field(default_factory=list)

    def expected_full(self) -> bytes:
        """The maximal recoverable content: every acknowledged write plus
        the torn write's physically-landed prefix."""
        ops = list(self.applied)
        if self.partial is not None:
            ops.append(self.partial)
        return replay(ops)

    def acceptable_states(self) -> list[bytes]:
        """Contents a lossy-but-sound recovery may produce: replay of the
        first *m* acknowledged writes for any ``m >= synced_applied``
        (synced data must never be lost), plus the maximal state."""
        states = [
            replay(self.applied[:m])
            for m in range(self.synced_applied, len(self.applied) + 1)
        ]
        states.append(self.expected_full())
        return states


def crash_handle(fd: plfs.Plfs_fd) -> None:
    """Model the process dying while holding *fd*: descriptors released,
    nothing flushed, no unregister, no metadata — exactly what SIGKILL
    leaves behind."""
    if fd._reader is not None:
        fd._reader.close()
        fd._reader = None
    if fd.writer is not None:
        fd.writer.abandon()
        fd.writer = None


def run_schedule(
    path: str,
    schedule: list[WriteOp],
    *,
    injector: FaultInjector | None = None,
    sync_every: int | None = None,
) -> RunOutcome:
    """Apply *schedule* to the container at *path* with *injector* armed,
    tracking the shadow bookkeeping a later comparison needs.  An
    :class:`InjectedCrash` ends the run the way SIGKILL would."""
    out = RunOutcome(schedule=schedule)
    fd = plfs.plfs_open(path, os.O_CREAT | os.O_RDWR, mode=0o644)
    ctx = injector.armed() if injector is not None else nullcontext()
    current: WriteOp | None = None
    with ctx:
        try:
            for i, op in enumerate(schedule):
                current = op
                try:
                    n = plfs.plfs_write(fd, op.data, len(op.data), op.offset)
                except OSError as exc:
                    out.errors.append(exc)
                    continue
                if n:
                    out.applied.append((op.offset, bytes(op.data[:n])))
                if sync_every and (i + 1) % sync_every == 0:
                    plfs.plfs_sync(fd)
                    out.synced_applied = len(out.applied)
            current = None
            try:
                plfs.plfs_close(fd)
            except OSError as exc:
                out.close_error = exc
        except InjectedCrash:
            out.crashed = True
            crash_handle(fd)
    if injector is not None:
        out.events = injector.fired()
        if out.crashed and current is not None:
            last = out.events[-1]
            if last.point == "data_write" and last.actual:
                out.partial = (current.offset, bytes(current.data[: last.actual]))
    return out


def arm_for_case(case: FaultCase, schedule: list[WriteOp], seed: int = 0) -> FaultInjector | None:
    """Build the injector for one matrix case, targeting an operation
    deep enough into the schedule to be interesting: data faults fire
    two-thirds of the way through, index-flush faults on the second flush
    (i.e. after one successful sync), meta faults on the close-time meta
    drop.  A case's ``companions`` are armed alongside."""
    if case.mode != "inject":
        return None
    if case.point == "meta_create":
        # create_meta op 1 is the writer's index-dropping touch at the
        # first write; op 2 is the cached-size meta drop at close time.
        op = 2
    elif case.point == "index_flush":
        op = 2
    else:
        op = max(1, (2 * len(schedule)) // 3)
    specs = [case.spec(op)]
    for comp in case.companions:
        if "op" in comp:
            comp_op = comp["op"]
        else:
            comp_op = max(1, int(comp["op_frac"] * len(schedule)))
        specs.append(
            FaultSpec(
                comp["point"],
                comp["behavior"],
                op=comp_op,
                **comp.get("params", {}),
            )
        )
    return FaultInjector(specs, seed=seed)


def default_sync_every(case: FaultCase, schedule: list[WriteOp]) -> int | None:
    """Index-flush faults target the *second* flush, so the schedule needs
    one successful mid-run sync; other cases run unsynced by default."""
    if case.mode == "inject" and case.point == "index_flush":
        return max(1, len(schedule) // 2)
    return None


def run_case(
    path: str,
    case: FaultCase,
    schedule: list[WriteOp],
    *,
    seed: int = 0,
    sync_every: int | None = None,
) -> RunOutcome:
    """Run one matrix case end to end (fault armed or damage applied);
    fsck and the comparison are the caller's job."""
    injector = arm_for_case(case, schedule, seed=seed)
    if sync_every is None:
        sync_every = default_sync_every(case, schedule)
    out = run_schedule(path, schedule, injector=injector, sync_every=sync_every)
    if case.mode == "damage":
        case.damage(path)
    return out


def read_back(path: str) -> bytes:
    """The container's full logical content through the PLFS API."""
    fd = plfs.plfs_open(path, os.O_RDONLY)
    try:
        size = plfs.plfs_getattr(fd).st_size
        return plfs.plfs_read(fd, size, 0) if size else b""
    finally:
        plfs.plfs_close(fd)
