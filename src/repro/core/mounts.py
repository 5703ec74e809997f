"""The LDPLFS mount table: logical path → PLFS backend resolution.

Every interposed POSIX call starts with the same question the C shim asks:
*does this path live under a PLFS mount point?*  If yes, the call is
retargeted at the backend container; if no, it passes through to the real
libc (here: the saved original ``os`` functions).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class Mount:
    """One ``mount_point → backend`` mapping.

    *daemon*, when set, is the unix-socket path of a ``repro-plfsd``
    instance that should own this mount's containers: opens under the
    mount route through the daemon when it is reachable and silently fall
    back to the in-process path when it is not.
    """

    mount_point: str
    backend: str
    daemon: str | None = None

    def translate(self, logical_path: str) -> str:
        """Backend physical path for *logical_path* (normalised and under
        us): the mount-point prefix is swapped for the backend."""
        return self.backend + logical_path[len(self.mount_point):]


def _normalise(path) -> str:
    """Absolutise + normalise without resolving symlinks (matching how the
    C shim compares string prefixes against plfsrc mount points)."""
    fspath = os.fspath(path)
    if isinstance(fspath, bytes):
        fspath = os.fsdecode(fspath)
    if not fspath.startswith(os.sep):
        # Only a relative path needs the cwd (which may have been removed).
        fspath = os.path.join(os.getcwd(), fspath)
    return os.path.normpath(fspath)


class MountTable:
    """Thread-safe longest-prefix-match table of PLFS mounts."""

    #: plfs-san registration (see repro.sanitize): field -> guarding lock
    _SANITIZE_SHARED = {"_mounts": "_lock"}

    def __init__(self, pairs: list[tuple[str, str]] | None = None):
        self._lock = threading.RLock()
        self._mounts: list[Mount] = []
        for mount_point, backend in pairs or []:
            self.add(mount_point, backend)

    def add(self, mount_point: str, backend: str) -> Mount:
        mount_point = _normalise(mount_point)
        # Mount options ride on the backend spec (plfsrc-style):
        # ``/backend/dir?daemon=/run/plfsd.sock``.
        daemon: str | None = None
        raw_backend = os.fspath(backend)
        if isinstance(raw_backend, bytes):
            raw_backend = os.fsdecode(raw_backend)
        if "?" in raw_backend:
            raw_backend, _, query = raw_backend.partition("?")
            for option in query.split("&"):
                key, _, value = option.partition("=")
                if key == "daemon" and value:
                    daemon = value
                elif key:
                    raise ValueError(f"unknown mount option {key!r}")
        backend = _normalise(raw_backend)
        if mount_point == "/":
            raise ValueError("refusing to mount PLFS over '/'")
        if backend == mount_point or backend.startswith(mount_point + os.sep):
            raise ValueError(
                f"backend {backend!r} may not live under its own mount "
                f"point {mount_point!r} (infinite recursion)"
            )
        mount = Mount(mount_point, backend, daemon)
        with self._lock:
            if any(m.mount_point == mount_point for m in self._mounts):
                raise ValueError(f"duplicate mount point: {mount_point}")
            self._mounts.append(mount)
            # Longest mount point first so resolve() prefix-matches most
            # specific mounts before their parents.
            self._mounts.sort(key=lambda m: len(m.mount_point), reverse=True)
        os.makedirs(backend, exist_ok=True)
        return mount

    def remove(self, mount_point: str) -> None:
        mount_point = _normalise(mount_point)
        with self._lock:
            before = len(self._mounts)
            self._mounts = [m for m in self._mounts if m.mount_point != mount_point]
            if len(self._mounts) == before:
                raise KeyError(f"not mounted: {mount_point}")

    def clear(self) -> None:
        with self._lock:
            self._mounts.clear()

    def mounts(self) -> list[Mount]:
        with self._lock:
            return list(self._mounts)

    def find(self, path) -> Mount | None:
        """The mount containing *path*, or None."""
        resolved = self.resolve(path)
        return resolved[0] if resolved else None

    def resolve(self, path) -> tuple[Mount, str] | None:
        """(mount, backend_path) for *path* if it is under a mount."""
        p = _normalise(path)
        with self._lock:
            for mount in self._mounts:
                if p == mount.mount_point or p.startswith(mount.mount_point + os.sep):
                    return mount, mount.translate(p)
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._mounts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MountTable({[(m.mount_point, m.backend) for m in self.mounts()]})"
