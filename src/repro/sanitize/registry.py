"""The shared-state and lock registry the sanitizer passes consume.

Production classes declare what the sanitizer should watch through a
lightweight ``_SANITIZE_SHARED`` class attribute — a mapping of
``field name -> guarding lock attribute`` (``None`` when the field is
protected by something other than a lock: single-owner discipline,
event-loop confinement, per-handle serialization).  Production code never
imports this package; the hooks are plain data, and this module is the one
place that enumerates them, so the runtime detector
(:mod:`repro.sanitize.runtime`) and the static lock analysis
(:mod:`repro.lint.static`) agree on the registry.

The static side is a list of :class:`GuardSpec` contracts (the three
``repro.core`` structures, the shared index cache, the backing-store
global, the openhost-marker claims) plus :class:`LockSpec` entries for
the plfsd daemon's asyncio locks so the lock-order graph sees the
meta/writer nesting.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GuardSpec",
    "LockSpec",
    "EXTENDED_GUARDS",
    "DEFAULT_LOCKS",
    "DEFAULT_TARGETS",
    "runtime_classes",
    "lock_from_guard",
]

#: the packages the whole-system static passes walk
DEFAULT_TARGETS: tuple[str, ...] = ("repro.core", "repro.plfs", "repro.plfsd")


@dataclass(frozen=True)
class GuardSpec:
    """One guarded-field contract: *field* of *owner* is written only
    under *guard* (``owner=""`` means a module-level global)."""

    module: str  # import path, for default source loading
    owner: str  # class name, or "" for module level
    field: str
    guard: str  # lock expression as written, e.g. "self._lock"


@dataclass(frozen=True)
class LockSpec:
    """One known lock: where it lives and how it is acquired.

    ``factory`` names a method whose *return value* is a member of this
    lock family (``PlfsdServer._writer_lock(path)`` hands out one asyncio
    lock per container) — acquiring the factory's result acquires the
    family node in the lock-order graph.
    """

    module: str
    owner: str  # class name, "" for a module-level global
    attr: str  # attribute / global name holding the lock
    kind: str = "threading"  # "threading" | "asyncio"
    factory: str = ""  # method returning a member of this family

    @property
    def label(self) -> str:
        scope = self.owner or self.module.rsplit(".", 1)[-1]
        return f"{scope}.{self.attr}"


def lock_from_guard(guard: GuardSpec) -> LockSpec:
    """The :class:`LockSpec` implied by a guarded-field contract."""
    if guard.guard.startswith("self."):
        return LockSpec(guard.module, guard.owner, guard.guard[len("self."):])
    return LockSpec(guard.module, "", guard.guard)


#: the interposition core's three structures plus the shared index cache,
#: the backing global and the per-process openhost-marker claims
EXTENDED_GUARDS: list[GuardSpec] = [
    GuardSpec("repro.core.fdtable", "FdTable", "_entries", "self._lock"),
    GuardSpec("repro.core.mounts", "MountTable", "_mounts", "self._lock"),
    GuardSpec("repro.core.interpose", "", "_installed", "_install_lock"),
    GuardSpec("repro.core.interpose", "", "_layers", "_install_lock"),
    GuardSpec("repro.plfs.cache", "IndexCache", "_entries", "self._lock"),
    GuardSpec("repro.plfs.cache", "IndexCache", "_generations", "self._lock"),
    GuardSpec("repro.plfs.backing", "", "_current", "_lock"),
    GuardSpec("repro.plfs.container", "", "_marker_refs", "_marker_lock"),
]


def _default_locks() -> list[LockSpec]:
    locks: dict[tuple[str, str, str], LockSpec] = {}
    for guard in EXTENDED_GUARDS:
        spec = lock_from_guard(guard)
        locks[(spec.module, spec.owner, spec.attr)] = spec
    for spec in (
        LockSpec("repro.plfsd.server", "PlfsdServer", "_meta_lock", kind="asyncio"),
        LockSpec(
            "repro.plfsd.server",
            "PlfsdServer",
            "_writer_locks",
            kind="asyncio",
            factory="_writer_lock",
        ),
    ):
        locks[(spec.module, spec.owner, spec.attr)] = spec
    return [locks[key] for key in sorted(locks)]


#: every lock the static lock-order pass recognizes
DEFAULT_LOCKS: list[LockSpec] = _default_locks()


def runtime_classes() -> list[type]:
    """The production classes carrying ``_SANITIZE_SHARED`` hooks.

    Imported lazily: the registry must be importable without dragging in
    the daemon (or numpy) — only the runtime detector pays this cost.
    """
    from repro.core.fdtable import FdTable
    from repro.core.mounts import MountTable
    from repro.plfs.cache import IndexCache
    from repro.plfs.writer import WriteFile
    from repro.plfsd.server import PlfsdServer

    return [FdTable, MountTable, IndexCache, WriteFile, PlfsdServer]
