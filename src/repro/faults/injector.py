"""Deterministic, seedable fault injection for the PLFS backing store.

The injector interposes on :mod:`repro.plfs.backing` — the narrow surface
every crash-relevant persistence operation flows through — so faults land
at exactly the instruction boundaries a real crash would: after some bytes
of a data append, between a data append and its index flush, mid-way
through an index flush, and so on.  Nothing in the PLFS library is patched
or subclassed; tests arm the injector, run a workload, and the workload
crashes (or limps) on schedule.

Determinism: firing decisions depend only on the spec parameters and a
``random.Random(seed)`` stream, so a failing seed reproduces exactly.

Injection points (the ``point`` of a :class:`FaultSpec`):

========= ==============================================================
point      operation
========= ==============================================================
data_write  append to a data dropping (``BackingStore.write_data`` and
            the vectored ``write_datav`` share one operation counter:
            either way it is one data append)
index_flush append packed records to an index dropping (``append_index``)
meta_create create an empty dropping file (``create_meta``: cached-meta
            droppings *and* the writer's index-dropping touch at open)
fsync       fsync a data dropping (``fsync``)
global_index write the compacted global index (``write_global_index``)
========= ==============================================================

Behaviours (the ``behavior``):

- ``short``  — persist only ``short_bytes`` of the payload and return the
  short count to the caller (a classic POSIX short write).
- ``eintr``  — persist nothing, raise ``OSError(EINTR)``.
- ``eagain`` — persist nothing, raise ``OSError(EAGAIN)``.
- ``enospc`` — persist nothing, raise ``OSError(ENOSPC)``.
- ``crash``  — persist nothing, raise :class:`InjectedCrash` (the process
  died *before* the operation took effect).
- ``torn``   — persist a partial payload, then raise
  :class:`InjectedCrash` (the process died *mid*-operation).
"""

from __future__ import annotations

import errno
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.plfs import backing
from repro.plfs.index import RECORD_SIZE

#: environment variables that arm an injector in a subprocess (see
#: :func:`injector_from_env`); value format documented on ``parse_specs``.
ENV_SPECS = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"

POINTS = (
    "data_write",
    "index_flush",
    "meta_create",
    "fsync",
    "global_index",
)
BEHAVIORS = ("short", "eintr", "eagain", "enospc", "crash", "torn")


class InjectedCrash(BaseException):
    """The injected process-kill.

    Deliberately a ``BaseException``: library code catching ``Exception``
    (or ``OSError``) for error-path cleanup must *not* swallow it, because
    a SIGKILL gives no such opportunity — whatever the library would have
    done in an ``except`` block did not happen in the real failure either.
    """


@dataclass
class FaultSpec:
    """One armed fault: where, how, and when to fire.

    Firing predicates (combinable; all must pass):

    - ``op``    — fire on the Nth operation at this point (1-based);
    - ``every`` — fire on every Nth operation;
    - ``prob``  — fire with this probability (seeded rng);
    - ``count`` — stop after firing this many times (default 1;
      ``None`` = unlimited).
    """

    point: str
    behavior: str
    op: int | None = None
    every: int | None = None
    prob: float | None = None
    count: int | None = 1
    #: bytes actually persisted for ``short``/``torn`` on data writes; for
    #: index payloads the default tears mid-record
    short_bytes: int | None = None
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise ValueError(f"unknown fault point: {self.point!r}")
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown fault behavior: {self.behavior!r}")

    def spent(self) -> bool:
        return self.count is not None and self.fired >= self.count


@dataclass(frozen=True)
class FaultEvent:
    """One fault that fired: the evidence trail.

    ``requested``/``actual`` are payload byte counts — for torn writes the
    crash-consistency harness uses ``actual`` to compute the exact bytes
    that reached the backend before the "kill"."""

    point: str
    behavior: str
    op: int
    path: str
    requested: int
    actual: int


def parse_specs(text: str) -> list[FaultSpec]:
    """Parse a spec string: ``point:behavior[:key=value]...`` joined by
    ``;``.  Keys: ``op``, ``every``, ``count`` (ints; ``count=inf`` for
    unlimited), ``prob`` (float), ``bytes`` (``short_bytes``).

    Example: ``"data_write:eintr:every=5;data_write:short:every=7:bytes=3"``
    """
    specs: list[FaultSpec] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 2:
            raise ValueError(f"bad fault spec (need point:behavior): {part!r}")
        kwargs: dict = {}
        for kv in fields[2:]:
            key, _, value = kv.partition("=")
            if key == "op":
                kwargs["op"] = int(value)
            elif key == "every":
                kwargs["every"] = int(value)
            elif key == "count":
                kwargs["count"] = None if value == "inf" else int(value)
            elif key == "prob":
                kwargs["prob"] = float(value)
            elif key == "bytes":
                kwargs["short_bytes"] = int(value)
            else:
                raise ValueError(f"unknown fault spec key: {key!r}")
        specs.append(FaultSpec(fields[0], fields[1], **kwargs))
    return specs


class FaultInjector:
    """Decides, deterministically, which operations fail and how.

    Use :meth:`armed` to install the wrapping store for a block of code::

        inj = FaultInjector([FaultSpec("data_write", "torn", op=3)], seed=7)
        with inj.armed():
            run_workload()          # third data append tears, then "dies"
        assert inj.events[0].actual < inj.events[0].requested
    """

    def __init__(self, specs: list[FaultSpec] | str, seed: int = 0):
        if isinstance(specs, str):
            specs = parse_specs(specs)
        self.specs = list(specs)
        self.seed = seed
        self.rng = random.Random(seed)
        self.events: list[FaultEvent] = []
        self.op_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def decide(self, point: str) -> tuple[FaultSpec | None, int]:
        """Count one operation at *point*; return the spec that fires (if
        any) and the 1-based operation number."""
        n = self.op_counts.get(point, 0) + 1
        self.op_counts[point] = n
        for spec in self.specs:
            if spec.point != point or spec.spent():
                continue
            if spec.op is not None and n != spec.op:
                continue
            if spec.every is not None and n % spec.every != 0:
                continue
            if spec.prob is not None and self.rng.random() >= spec.prob:
                continue
            spec.fired += 1
            return spec, n
        return None, n

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def fired(self, point: str | None = None) -> list[FaultEvent]:
        if point is None:
            return list(self.events)
        return [e for e in self.events if e.point == point]

    @contextmanager
    def armed(self):
        """Install a :class:`FaultyBackingStore` around this injector for
        the duration of the ``with`` block (always restores the previous
        store, even when an :class:`InjectedCrash` escapes).

        The wrapper delegates to the store installed *at arming time*, not
        a fresh default — arming over another interposer must inject
        faults into its operations, not silently route around it (the
        same routing-gap class the vectored-append audit caught on
        ``write_datav``).
        """
        previous = backing.install(FaultyBackingStore(self, inner=backing.installed))
        try:
            yield self
        finally:
            backing.install(previous)


class FaultyBackingStore(backing.BackingStore):
    """A backing store that consults a :class:`FaultInjector` before every
    persistence operation and fails the chosen ones."""

    def __init__(self, injector: FaultInjector, inner: backing.BackingStore | None = None):
        self.injector = injector
        self.inner = inner or backing.BackingStore()

    # ------------------------------------------------------------------ #

    def _errno_for(self, behavior: str) -> int:
        return {
            "eintr": errno.EINTR,
            "eagain": errno.EAGAIN,
            "enospc": errno.ENOSPC,
        }[behavior]

    def _torn_cut(self, spec: FaultSpec, size: int, *, record_payload: bool) -> int:
        """How many bytes a short/torn operation persists."""
        if spec.short_bytes is not None:
            return max(0, min(spec.short_bytes, size - 1)) if size else 0
        if record_payload and size >= RECORD_SIZE:
            # Tear mid-record so the dropping ends on a partial record.
            return size - RECORD_SIZE // 2
        return size // 2

    def _fail(
        self,
        spec: FaultSpec,
        op: int,
        path: str,
        payload,
        fd: int | None,
        *,
        record_payload: bool = False,
    ) -> int:
        """Apply *spec* to an append of *payload*; returns the short count
        for ``short``, raises for everything else."""
        size = len(payload)
        actual = 0
        if spec.behavior in ("short", "torn"):
            actual = self._torn_cut(spec, size, record_payload=record_payload)
            if actual and fd is not None:
                os.write(fd, bytes(payload[:actual]))
            elif actual:
                with open(path, "ab") as fh:
                    fh.write(bytes(payload[:actual]))
        self.injector.record(
            FaultEvent(spec.point, spec.behavior, op, path, size, actual)
        )
        if spec.behavior == "short":
            return actual
        if spec.behavior in ("crash", "torn"):
            raise InjectedCrash(
                f"{spec.point} op {op} on {os.path.basename(path)}: "
                f"{actual}/{size} bytes persisted before the kill"
            )
        err = self._errno_for(spec.behavior)
        raise OSError(err, os.strerror(err), path)

    # ------------------------------------------------------------------ #
    # BackingStore surface
    # ------------------------------------------------------------------ #

    def write_data(self, fd: int, buf, path: str) -> int:
        spec, op = self.injector.decide("data_write")
        if spec is not None:
            return self._fail(spec, op, path, buf, fd)
        return self.inner.write_data(fd, buf, path)

    def write_datav(self, fd: int, buffers, path: str) -> int:
        spec, op = self.injector.decide("data_write")
        if spec is not None:
            # A vectored append is one data_write operation; flatten the
            # iovec so short/torn cuts land at exact byte positions.
            joined = b"".join(bytes(b) for b in buffers)
            return self._fail(spec, op, path, joined, fd)
        return self.inner.write_datav(fd, buffers, path)

    def append_index(self, path: str, payload: bytes) -> int:
        spec, op = self.injector.decide("index_flush")
        if spec is not None:
            return self._fail(spec, op, path, payload, None, record_payload=True)
        return self.inner.append_index(path, payload)

    def create_meta(self, path: str) -> None:
        spec, op = self.injector.decide("meta_create")
        if spec is not None:
            self._fail(spec, op, path, b"", None)
            return
        self.inner.create_meta(path)

    def write_global_index(self, path: str, payload: bytes) -> None:
        spec, op = self.injector.decide("global_index")
        if spec is not None:
            # Short/torn payloads land in the *temporary* — exactly what a
            # real crash leaves: the visible compacted index (if any) is
            # untouched and readers fall back to the merge path.
            tmp = f"{path}.tmp.{os.getpid()}"
            self._fail(spec, op, tmp, payload, None, record_payload=True)
            return
        self.inner.write_global_index(path, payload)

    def fsync(self, fd: int) -> None:
        spec, op = self.injector.decide("fsync")
        if spec is not None:
            self._fail(spec, op, "<fsync>", b"", None)
            return
        self.inner.fsync(fd)

def injector_from_env(environ=None) -> FaultInjector | None:
    """Build (but do not arm) an injector from ``REPRO_FAULTS`` /
    ``REPRO_FAULT_SEED``, or ``None`` when unset.

    Lets a *subprocess* — e.g. a writer child in the multiprocess stress
    test — arm faults its parent configured::

        inj = injector_from_env()
        ctx = inj.armed() if inj else contextlib.nullcontext()
        with ctx:
            ...
    """
    environ = os.environ if environ is None else environ
    text = environ.get(ENV_SPECS, "").strip()
    if not text:
        return None
    seed = int(environ.get(ENV_SEED, "0"))
    return FaultInjector(text, seed=seed)
