"""plfs-san: the runtime lockset race detector.

Static analysis proves what it can resolve; everything else — executor
threads touching writer state, the daemon's lock-free read path, shim
threads hammering one FdTable — needs a witness at runtime.  This module
is that witness: an Eraser-style lockset checker over the shared state
the production classes register via ``_SANITIZE_SHARED``.

How it attaches (all reversible, nothing imported by production code):

- **Fields** become data-descriptor properties whose storage key is the
  field name itself, so ``disable()`` simply deletes the property and the
  plain instance attribute is found again.  Container values (dict /
  OrderedDict / list) are lazily adopted into tracked subclasses that
  report reads and writes; rebinding the attribute is itself a write
  (``MountTable.remove`` replaces the whole list).
- **Locks** (the guard attributes, plus anything in ``_SANITIZE_LOCKS``)
  are wrapped in :class:`TrackedLock` / :class:`TrackedAsyncLock`, which
  maintain the per-thread (per-task for asyncio) held set.
- **Executor inheritance**: the daemon runs blocking PLFS calls in a
  thread pool while holding asyncio locks.  A patched
  ``BaseEventLoop.run_in_executor`` pushes the submitting task's held
  asyncio locks into the worker thread's lockset for the duration of the
  call, restoring the happens-before the pool hop erased.
- **Handle-domain virtual locks**: ``plfs_*`` calls taking an open handle
  push ``plfs-handle#<id>`` for the call's duration.  Per-handle
  serialization (the daemon's per-container writer locks, a client's own
  fd) is a real happens-before that no lock object represents; the
  virtual lock stands in for it.  The cost is honesty about scope: races
  *within* one handle's operations are masked, exactly like a TSan
  suppression, and the static passes stay authoritative there.

The lockset algorithm is Eraser's state machine per variable: virgin →
exclusive(first thread) → shared / shared-modified on the first foreign
access (candidate set re-initialized to that access's held set, which
forgives initialization writes) → every later access intersects the
candidate set with the locks actually held → a modified variable whose
candidate set hits empty is a violation, reported once with the first
access stack from every participating thread as evidence.

Subprocesses (the plfsd daemon under the stress tests) activate via
``REPRO_SANITIZE=1`` and write a JSON report to ``REPRO_SANITIZE_DIR`` at
exit; the pytest plugin sweeps those reports after the session.
"""

from __future__ import annotations

import asyncio
import asyncio.base_events
import atexit
import functools
import itertools
import json
import os
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.lint.findings import RULES, Finding

from .registry import runtime_classes

__all__ = [
    "RaceViolation",
    "RaceChecker",
    "TrackedLock",
    "TrackedAsyncLock",
    "enable",
    "disable",
    "enabled",
    "reset",
    "violations",
    "current_lockset",
    "enable_from_env",
    "write_report",
    "load_reports",
    "ENV_FLAG",
    "ENV_DIR",
]

ENV_FLAG = "REPRO_SANITIZE"
ENV_DIR = "REPRO_SANITIZE_DIR"

_enabled = False
_checker: "RaceChecker | None" = None
#: (owner object, attribute, original value, attribute existed) for undo
_patches: list[tuple[Any, str, Any, bool]] = []
_instance_seq = itertools.count()


# ---------------------------------------------------------------------- #
# the per-thread / per-task lockset
# ---------------------------------------------------------------------- #


class _Tracker(threading.local):
    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.busy = False


_tracker = _Tracker()
#: id(task) -> {asyncio lock label: hold count}; touched only from the
#: loop thread (acquire/release and executor submission all run there)
_task_held: dict[int, dict[str, int]] = {}


def _current_task() -> Any:
    try:
        return asyncio.current_task()
    except RuntimeError:
        return None


def _push(label: str) -> None:
    _tracker.counts[label] = _tracker.counts.get(label, 0) + 1


def _pop(label: str) -> None:
    count = _tracker.counts.get(label, 0) - 1
    if count <= 0:
        _tracker.counts.pop(label, None)
    else:
        _tracker.counts[label] = count


def current_lockset() -> frozenset[str]:
    """Labels this thread (and, on a loop thread, this task) holds now."""
    labels = {label for label, count in _tracker.counts.items() if count > 0}
    task = _current_task()
    if task is not None:
        held = _task_held.get(id(task))
        if held:
            labels.update(label for label, count in held.items() if count > 0)
    return frozenset(labels)


def _capture_stack() -> list[str]:
    frames: list[str] = []
    for fr in traceback.extract_stack(limit=24):
        if fr.filename.endswith(os.path.join("sanitize", "runtime.py")):
            continue
        frames.append(f"{os.path.basename(fr.filename)}:{fr.lineno}:{fr.name}")
    return frames[-8:]


# ---------------------------------------------------------------------- #
# tracked locks
# ---------------------------------------------------------------------- #


class TrackedLock:
    """A threading.Lock/RLock proxy that mirrors held state per thread."""

    def __init__(self, inner: Any, label: str) -> None:
        self._inner = inner
        self.label = label

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = bool(self._inner.acquire(blocking, timeout))
        if ok:
            _push(self.label)
        return ok

    def release(self) -> None:
        self._inner.release()
        _pop(self.label)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if callable(probe) else False


class TrackedAsyncLock:
    """An asyncio.Lock proxy that mirrors held state per task."""

    def __init__(self, inner: asyncio.Lock, label: str) -> None:
        self._inner = inner
        self.label = label

    async def acquire(self) -> bool:
        await self._inner.acquire()
        task = _current_task()
        if task is not None:
            held = _task_held.setdefault(id(task), {})
            held[self.label] = held.get(self.label, 0) + 1
        return True

    def release(self) -> None:
        self._inner.release()
        task = _current_task()
        if task is not None:
            held = _task_held.get(id(task))
            if held is not None:
                count = held.get(self.label, 0) - 1
                if count <= 0:
                    held.pop(self.label, None)
                else:
                    held[self.label] = count
                if not held:
                    _task_held.pop(id(task), None)

    async def __aenter__(self) -> "TrackedAsyncLock":
        await self.acquire()
        return self

    async def __aexit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()


# ---------------------------------------------------------------------- #
# the Eraser state machine
# ---------------------------------------------------------------------- #


@dataclass
class RaceViolation:
    """One shared-state access whose candidate lockset hit empty."""

    var: str
    kind: str
    thread: int
    lockset: list[str]
    stack: list[str]
    history: list[dict]

    def as_dict(self) -> dict:
        return {
            "var": self.var,
            "kind": self.kind,
            "thread": self.thread,
            "lockset": list(self.lockset),
            "stack": list(self.stack),
            "history": [dict(h) for h in self.history],
        }

    def render(self) -> str:
        lines = [
            f"lockset violation on {self.var}: {self.kind} from thread "
            f"{self.thread} with no common lock",
            "  at: " + " <- ".join(self.stack),
        ]
        for entry in self.history:
            locks = ", ".join(entry["lockset"]) or "(none)"
            lines.append(
                f"  first {entry['kind']} from thread {entry['thread']} "
                f"held [{locks}] at: " + " <- ".join(entry["stack"])
            )
        return "\n".join(lines)

    def to_finding(self) -> Finding:
        return RULES["LDP204"].finding(
            f"{self.kind} access to {self.var} with no lock consistently "
            "held across the threads touching it",
            file=self.var,
            lockset=",".join(self.lockset) or "(none)",
            stack=" <- ".join(self.stack),
            threads=",".join(str(h["thread"]) for h in self.history),
        )


@dataclass
class _VarState:
    label: str
    state: str = "virgin"  # virgin|exclusive|shared|shared_modified|reported
    owner: int = -1
    candidates: frozenset = frozenset()
    threads_seen: set = field(default_factory=set)
    history: list = field(default_factory=list)


class RaceChecker:
    """Per-variable Eraser lockset states, violation collection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # a plain lock: never itself tracked
        self._vars: dict[str, _VarState] = {}
        self.violations: list[RaceViolation] = []

    def record(self, label: str, kind: str) -> None:
        tid = threading.get_ident()
        held = current_lockset()
        with self._lock:
            st = self._vars.get(label)
            if st is None:
                st = self._vars[label] = _VarState(label)
            if tid not in st.threads_seen:
                st.threads_seen.add(tid)
                st.history.append(
                    {
                        "thread": tid,
                        "kind": kind,
                        "lockset": sorted(held),
                        "stack": _capture_stack(),
                    }
                )
            if st.state == "reported":
                return
            if st.state == "virgin":
                st.state = "exclusive"
                st.owner = tid
                return
            if st.state == "exclusive":
                if tid == st.owner:
                    return
                # first foreign access: re-initialize the candidate set,
                # forgiving unsynchronized initialization by the creator
                st.candidates = held
                st.state = "shared_modified" if kind == "write" else "shared"
            else:
                st.candidates = st.candidates & held
                if kind == "write" and st.state == "shared":
                    st.state = "shared_modified"
            if st.state == "shared_modified" and not st.candidates:
                st.state = "reported"
                self.violations.append(
                    RaceViolation(
                        var=label,
                        kind=kind,
                        thread=tid,
                        lockset=sorted(held),
                        stack=_capture_stack(),
                        history=[dict(h) for h in st.history],
                    )
                )


def _record_event(label: str, kind: str) -> None:
    if not _enabled or _checker is None or _tracker.busy:
        return
    _tracker.busy = True
    try:
        _checker.record(label, kind)
    finally:
        _tracker.busy = False


# ---------------------------------------------------------------------- #
# tracked containers
# ---------------------------------------------------------------------- #


class _DictOps:
    _san_label = "?"

    def _ev(self, kind: str) -> None:
        _record_event(self._san_label, kind)

    def __getitem__(self, key: Any) -> Any:
        self._ev("read")
        return super().__getitem__(key)  # type: ignore[misc]

    def get(self, key: Any, default: Any = None) -> Any:
        self._ev("read")
        return super().get(key, default)  # type: ignore[misc]

    def __contains__(self, key: Any) -> bool:
        self._ev("read")
        return super().__contains__(key)  # type: ignore[misc]

    def __iter__(self) -> Iterator:
        self._ev("read")
        return super().__iter__()  # type: ignore[misc]

    def __len__(self) -> int:
        self._ev("read")
        return super().__len__()  # type: ignore[misc]

    def keys(self) -> Any:
        self._ev("read")
        return super().keys()  # type: ignore[misc]

    def values(self) -> Any:
        self._ev("read")
        return super().values()  # type: ignore[misc]

    def items(self) -> Any:
        self._ev("read")
        return super().items()  # type: ignore[misc]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._ev("write")
        super().__setitem__(key, value)  # type: ignore[misc]

    def __delitem__(self, key: Any) -> None:
        self._ev("write")
        super().__delitem__(key)  # type: ignore[misc]

    def pop(self, *args: Any) -> Any:
        self._ev("write")
        return super().pop(*args)  # type: ignore[misc]

    def popitem(self, *args: Any, **kwargs: Any) -> Any:
        self._ev("write")
        return super().popitem(*args, **kwargs)  # type: ignore[misc]

    def clear(self) -> None:
        self._ev("write")
        super().clear()  # type: ignore[misc]

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._ev("write")
        super().update(*args, **kwargs)  # type: ignore[misc]

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._ev("write")
        return super().setdefault(key, default)  # type: ignore[misc]


class _TrackedDict(_DictOps, dict):
    pass


class _TrackedOrderedDict(_DictOps, OrderedDict):
    def move_to_end(self, key: Any, last: bool = True) -> None:
        self._ev("write")
        OrderedDict.move_to_end(self, key, last)


class _TrackedList(list):
    _san_label = "?"

    def _ev(self, kind: str) -> None:
        _record_event(self._san_label, kind)

    def __getitem__(self, index: Any) -> Any:
        self._ev("read")
        return list.__getitem__(self, index)

    def __iter__(self) -> Iterator:
        self._ev("read")
        return list.__iter__(self)

    def __len__(self) -> int:
        self._ev("read")
        return list.__len__(self)

    def __contains__(self, item: Any) -> bool:
        self._ev("read")
        return list.__contains__(self, item)

    def index(self, *args: Any) -> int:
        self._ev("read")
        return list.index(self, *args)

    def append(self, item: Any) -> None:
        self._ev("write")
        list.append(self, item)

    def extend(self, items: Iterable) -> None:
        self._ev("write")
        list.extend(self, items)

    def insert(self, index: int, item: Any) -> None:
        self._ev("write")
        list.insert(self, index, item)

    def remove(self, item: Any) -> None:
        self._ev("write")
        list.remove(self, item)

    def pop(self, *args: Any) -> Any:
        self._ev("write")
        return list.pop(self, *args)

    def clear(self) -> None:
        self._ev("write")
        list.clear(self)

    def __setitem__(self, index: Any, value: Any) -> None:
        self._ev("write")
        list.__setitem__(self, index, value)

    def __delitem__(self, index: Any) -> None:
        self._ev("write")
        list.__delitem__(self, index)

    def __iadd__(self, other: Iterable) -> "_TrackedList":
        self._ev("write")
        list.extend(self, other)
        return self

    def sort(self, **kwargs: Any) -> None:
        self._ev("write")
        list.sort(self, **kwargs)


def _owner_seq(instance: Any) -> int:
    seq = instance.__dict__.get("_san_seq")
    if seq is None:
        seq = next(_instance_seq)
        instance.__dict__["_san_seq"] = seq
    return int(seq)


def _adopt(value: Any, label: str) -> Any:
    """Wrap a container in its tracked twin; idempotent, order-preserving.

    Population goes through the base-class methods so adoption itself
    never records events.
    """
    if isinstance(value, (_TrackedDict, _TrackedOrderedDict, _TrackedList)):
        return value
    tracked: Any
    if type(value) is OrderedDict:
        tracked = _TrackedOrderedDict()
        for key, item in value.items():
            OrderedDict.__setitem__(tracked, key, item)
    elif type(value) is dict:
        tracked = _TrackedDict()
        dict.update(tracked, value)
    elif type(value) is list:
        tracked = _TrackedList()
        list.extend(tracked, value)
    else:
        return value
    tracked._san_label = label
    return tracked


# ---------------------------------------------------------------------- #
# instrumentation plumbing
# ---------------------------------------------------------------------- #


def _patch(obj: Any, attr: str, replacement: Any) -> None:
    existed = attr in vars(obj)
    _patches.append((obj, attr, vars(obj).get(attr), existed))
    setattr(obj, attr, replacement)


def _unpatch_all() -> None:
    while _patches:
        obj, attr, original, existed = _patches.pop()
        if existed:
            setattr(obj, attr, original)
        else:
            try:
                delattr(obj, attr)
            except AttributeError:
                pass


def _install_field(cls: type, name: str) -> None:
    """Shadow *name* with a property storing under the same key, so a
    later ``disable()`` leaves instances untouched and readable."""

    def fget(self: Any) -> Any:
        try:
            value = self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None
        if _enabled:
            label = f"{cls.__name__}.{name}#{_owner_seq(self)}"
            adopted = _adopt(value, label)
            if adopted is not value:
                self.__dict__[name] = adopted
            return adopted
        return value

    def fset(self: Any, value: Any) -> None:
        if _enabled:
            label = f"{cls.__name__}.{name}#{_owner_seq(self)}"
            _record_event(label, "write")
            value = _adopt(value, label)
        self.__dict__[name] = value

    _patch(cls, name, property(fget, fset))


def _install_lock(cls: type, name: str) -> None:
    def fget(self: Any) -> Any:
        try:
            value = self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None
        if _enabled and not isinstance(value, (TrackedLock, TrackedAsyncLock)):
            label = f"{cls.__name__}.{name}#{_owner_seq(self)}"
            if isinstance(value, asyncio.Lock):
                value = TrackedAsyncLock(value, label)
            else:
                value = TrackedLock(value, label)
            self.__dict__[name] = value
        return value

    def fset(self: Any, value: Any) -> None:
        self.__dict__[name] = value

    _patch(cls, name, property(fget, fset))


def _patch_run_in_executor() -> None:
    """Inherit the submitting task's asyncio locks into the pool thread.

    The daemon's happens-before for blocking PLFS calls is 'this task
    holds the writer/meta lock while the call runs in the executor'; the
    thread hop would otherwise erase that edge from the lockset.
    """
    original = asyncio.base_events.BaseEventLoop.run_in_executor

    def patched(self: Any, executor: Any, func: Callable, *args: Any) -> Any:
        labels: tuple[str, ...] = ()
        task = _current_task()
        if task is not None:
            held = _task_held.get(id(task))
            if held:
                labels = tuple(
                    label for label, count in held.items() if count > 0
                )
        if not labels:
            return original(self, executor, func, *args)

        def inherit(*call_args: Any) -> Any:
            for label in labels:
                _push(label)
            try:
                return func(*call_args)
            finally:
                for label in labels:
                    _pop(label)

        return original(self, executor, inherit, *args)

    _patch(asyncio.base_events.BaseEventLoop, "run_in_executor", patched)


#: api functions whose first argument is an open PLFS handle (or, for the
#: *_or_path pair, possibly a path — the wrapper skips those calls)
_FD_FUNCTIONS = (
    "plfs_close",
    "plfs_getattr",
    "plfs_read",
    "plfs_read_into",
    "plfs_ref",
    "plfs_sync",
    "plfs_trunc",
    "plfs_write",
    "plfs_writev",
)


def _fd_wrapper(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(fd: Any, *args: Any, **kwargs: Any) -> Any:
        if not _enabled or isinstance(fd, (str, bytes, os.PathLike)):
            return fn(fd, *args, **kwargs)
        label = f"plfs-handle#{id(fd)}"
        _push(label)
        try:
            return fn(fd, *args, **kwargs)
        finally:
            _pop(label)

    return wrapper


def _patch_api() -> None:
    import repro.plfs as plfs_pkg
    from repro.plfs import api as plfs_api

    for name in _FD_FUNCTIONS:
        original = getattr(plfs_api, name)
        wrapper = _fd_wrapper(original)
        _patch(plfs_api, name, wrapper)
        # the package re-exports these as separate bindings; keep both
        # views pointing at the same wrapper (and restore both)
        if getattr(plfs_pkg, name, None) is original:
            _patch(plfs_pkg, name, wrapper)


def _patch_writer_lock(server_cls: type) -> None:
    original = server_cls._writer_lock  # type: ignore[attr-defined]

    def patched(self: Any, path: str) -> Any:
        lock = original(self, path)
        if _enabled and not isinstance(lock, TrackedAsyncLock):
            lock = TrackedAsyncLock(
                lock, f"PlfsdServer._writer_locks[{path}]"
            )
            self._writer_locks[path] = lock
        return lock

    _patch(server_cls, "_writer_lock", patched)


# ---------------------------------------------------------------------- #
# lifecycle
# ---------------------------------------------------------------------- #


def _instrument_class(cls: type) -> None:
    shared = getattr(cls, "_SANITIZE_SHARED", None)
    if not shared:
        return
    lock_attrs = sorted({guard for guard in shared.values() if guard})
    for extra in getattr(cls, "_SANITIZE_LOCKS", ()):
        if extra not in lock_attrs:
            lock_attrs.append(extra)
    for attr in sorted(shared):
        _install_field(cls, attr)
    for attr in lock_attrs:
        _install_lock(cls, attr)
    if cls.__name__ == "PlfsdServer":
        _patch_writer_lock(cls)


def enable(classes: Iterable[type] | None = None) -> None:
    """Instrument *classes* (default: the registry) and start checking."""
    global _enabled, _checker
    if _enabled:
        return
    target_classes = list(runtime_classes() if classes is None else classes)
    _checker = RaceChecker()
    for cls in target_classes:
        _instrument_class(cls)
    _patch_run_in_executor()
    _patch_api()
    _enabled = True


def instrument(classes: Iterable[type]) -> None:
    """Instrument extra classes on an already-enabled detector.

    Lets test fixtures register their own ``_SANITIZE_SHARED`` classes
    even when a ``--sanitize`` session armed the detector first.
    """
    if not _enabled:
        raise RuntimeError("plfs-san is not enabled")
    for cls in classes:
        _instrument_class(cls)


def disable() -> None:
    """Remove every patch; already-adopted containers go quiet."""
    global _enabled
    _enabled = False
    _unpatch_all()


def enabled() -> bool:
    return _enabled


def reset() -> None:
    """Forget all variable states and violations (keeps instrumentation)."""
    global _checker
    _checker = RaceChecker() if _enabled else None


def violations() -> list[RaceViolation]:
    return list(_checker.violations) if _checker is not None else []


# ---------------------------------------------------------------------- #
# subprocess activation and reports
# ---------------------------------------------------------------------- #


def enable_from_env() -> bool:
    """Arm the detector when ``REPRO_SANITIZE`` asks for it.

    Called by daemon entry points, mirroring how ``REPRO_FAULTS`` arms
    the fault injector in child processes.  When ``REPRO_SANITIZE_DIR``
    is set, a JSON report is written there at interpreter exit — always,
    so a missing file distinguishes a killed process from a clean one.
    """
    if os.environ.get(ENV_FLAG, "") not in ("1", "true", "yes", "on"):
        return False
    if not _enabled:
        enable()
        report_dir = os.environ.get(ENV_DIR, "")
        if report_dir:
            atexit.register(_dump_report, report_dir)
    return True


def _dump_report(report_dir: str) -> None:
    try:
        write_report(os.path.join(report_dir, f"sanitize-{os.getpid()}.json"))
    except OSError:  # pragma: no cover - report dir vanished at exit
        pass


def write_report(path: str) -> None:
    from repro.analysis.export import canonical_json

    payload = {
        "pid": os.getpid(),
        "violations": [v.as_dict() for v in violations()],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
    os.replace(tmp, path)


def load_reports(report_dir: str) -> list[dict]:
    """Every subprocess report in *report_dir*, sorted by filename."""
    reports: list[dict] = []
    try:
        names = sorted(os.listdir(report_dir))
    except OSError:
        return reports
    for name in names:
        if not (name.startswith("sanitize-") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(report_dir, name), encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError):  # pragma: no cover
            continue
    return reports
