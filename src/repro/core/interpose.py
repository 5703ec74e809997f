"""Installing and removing the interposition — the ``LD_PRELOAD`` moment.

For a C binary the loader rebinds libc symbols once, before ``main``.  The
Python analogue is rebinding the interpreter's POSIX entry points — the
functions in :mod:`os` plus ``builtins.open`` — which unmodified Python
application code calls exactly like C code calls libc.  ``install()`` swaps
them for the :class:`~repro.core.shim.Shim` methods; ``uninstall()``
restores the originals.  Use :func:`interposed` as a scoped context
manager, or set ``LDPLFS_PRELOAD=1`` and import :mod:`repro.core.preload`
for whole-process activation with zero application changes.
"""

from __future__ import annotations

import builtins
import os
import threading
from contextlib import contextmanager

from repro.plfs.route import RealOS, posix

from . import config
from .mounts import MountTable
from .shim import Shim

#: os attributes patched to same-named Shim methods.
_OS_PATCHES = [
    "open",
    "close",
    "read",
    "write",
    "readv",
    "writev",
    "pread",
    "pwrite",
    "preadv",
    "pwritev",
    "lseek",
    "dup",
    "dup2",
    "stat",
    "lstat",
    "fstat",
    "access",
    "unlink",
    "remove",
    "rename",
    "replace",
    "truncate",
    "ftruncate",
    "fsync",
    "fdatasync",
    "mkdir",
    "rmdir",
    "listdir",
    "scandir",
    "chmod",
    "utime",
    "sendfile",
    "copy_file_range",
    "splice",
    "statvfs",
    "fstatvfs",
    "link",
    "symlink",
    "readlink",
]

_install_lock = threading.RLock()
_installed: "Interposer | None" = None


class Interposer:
    """One interposition instance: a mount table plus its shim.

    Only one interposer can be installed at a time (like only one symbol
    can win the preload); installs nest via a depth counter.
    """

    def __init__(self, mounts: list[tuple[str, str]] | None = None):
        self.real = RealOS.snapshot()
        self.mount_table = MountTable(mounts)
        self.shim = Shim(self.mount_table, self.real)
        self._depth = 0
        self._saved: dict[str, object] = {}
        self._wrapped: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #

    def add_mount(self, mount_point: str, backend: str):
        return self.mount_table.add(mount_point, backend)

    @property
    def installed(self) -> bool:
        return self._depth > 0

    def install(self) -> "Interposer":
        global _installed
        with _install_lock:
            if _installed is not None and _installed is not self:
                raise RuntimeError(
                    "another LDPLFS interposer is already installed"
                )
            if self._depth == 0:
                self._patch()
                _installed = self
            self._depth += 1
        return self

    def uninstall(self) -> None:
        global _installed
        with _install_lock:
            if self._depth == 0:
                raise RuntimeError("interposer is not installed")
            self._depth -= 1
            if self._depth == 0:
                self._unwrap_modules()
                self._unpatch()
                self.shim.close_daemon_clients()
                _installed = None

    def __enter__(self) -> "Interposer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #

    def _patch(self) -> None:
        import io

        shim = self.shim
        # Looked up first: a Shim lacking one fails with nothing patched.
        targets = {
            name: getattr(shim, "unlink" if name == "remove" else name)
            for name in _OS_PATCHES
            if hasattr(os, name)  # platform dependent
        }
        # ``io.open`` is the same entry point as ``builtins.open`` but is
        # referenced directly by pathlib and parts of the stdlib; both
        # names must be rebound (they are two dynamic symbols for one
        # libc function, in ELF terms).
        self._saved = {"builtins.open": builtins.open, "io.open": io.open}
        self._saved.update((f"os.{name}", getattr(os, name)) for name in targets)
        # From the first rebound symbol on, PLFS goes around the shim.
        posix.bind(self.real)
        for name, target in targets.items():
            setattr(os, name, target)
        builtins.open = io.open = shim.builtin_open

    def _unpatch(self) -> None:
        import io

        for key, original in self._saved.items():
            namespace, attr = key.split(".", 1)
            if namespace == "os":
                setattr(os, attr, original)
            elif namespace == "io":
                io.open = original
            else:
                builtins.open = original
        self._saved = {}
        posix.unbind()

    # ------------------------------------------------------------------ #

    def wrap_module(self, module) -> int:
        """Rebind *module*'s direct references to POSIX functions.

        Runtime patching of ``os`` cannot reach code that captured the
        functions at import time (``from os import open``) — the same
        blind spot ``LD_PRELOAD`` has for statically linked binaries,
        which the paper solves with the linker's ``-wrap`` option
        (§III.A).  This is the equivalent: scan the module's globals for
        objects identical to the saved originals and swap in the shims.
        Undone automatically at uninstall.  Returns the number of names
        rebound.
        """
        if not self.installed:
            raise RuntimeError("install() before wrap_module()")
        original_to_shim = {}
        for key, original in self._saved.items():
            namespace, attr = key.split(".", 1)
            if namespace == "os":
                target = "unlink" if attr == "remove" else attr
                original_to_shim[original] = getattr(self.shim, target)
            else:
                original_to_shim[original] = self.shim.builtin_open
        rebound = 0
        for name, value in list(vars(module).items()):
            try:
                shimmed = original_to_shim.get(value)
            except TypeError:  # unhashable values
                continue
            if shimmed is not None:
                setattr(module, name, shimmed)
                self._wrapped.append((module, name, value))
                rebound += 1
        return rebound

    def _unwrap_modules(self) -> None:
        for module, name, original in reversed(self._wrapped):
            setattr(module, name, original)
        self._wrapped.clear()

    def drain(self) -> None:
        """Close any PLFS descriptors the application leaked (used by the
        atexit hook of the preload path so indexes always reach disk)."""
        for fd in self.shim.table.fds():
            try:
                self.shim.close(fd)
            except OSError:  # pragma: no cover - best effort
                pass


def current() -> Interposer | None:
    """The currently installed interposer, if any."""
    return _installed


def install(mounts: list[tuple[str, str]] | None = None) -> Interposer:
    """Install a new interposer (or push a nesting level on the current
    one when *mounts* is None and one is already installed)."""
    with _install_lock:
        if _installed is not None and mounts is None:
            return _installed.install()
        interposer = Interposer(mounts)
        return interposer.install()


def uninstall() -> None:
    with _install_lock:
        if _installed is None:
            raise RuntimeError("no interposer installed")
        _installed.uninstall()


@contextmanager
def interposed(mounts: list[tuple[str, str]] | None = None):
    """Scoped interposition::

        with interposed([("/mnt/plfs", "/tmp/backend")]):
            with open("/mnt/plfs/out", "wb") as fh:   # hits PLFS
                fh.write(b"data")
    """
    interposer = install(mounts)
    try:
        yield interposer
    finally:
        interposer.uninstall()


def activate_from_environ(environ: dict[str, str] | None = None) -> Interposer | None:
    """Whole-process activation driven by the environment (the
    ``LD_PRELOAD`` equivalent).  Returns the interposer when activated."""
    environ = os.environ if environ is None else environ
    if not config.preload_requested(environ):
        return None
    mounts = config.discover_mounts(environ)
    if not mounts:
        raise RuntimeError(
            f"{config.ENV_PRELOAD} is set but no mounts are configured; "
            f"set {config.ENV_MOUNTS} or {config.ENV_PLFSRC}"
        )
    interposer = install(mounts)
    import atexit

    atexit.register(interposer.drain)
    return interposer
