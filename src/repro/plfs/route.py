"""The one route from PLFS and the shim to the operating system.

The C shim hands whatever it does not retarget to ``dlsym(RTLD_NEXT)``,
and the PLFS library underneath it reaches libc directly: neither ever
re-enters the interposed symbols.  Here the interposed symbols are the
``os`` module's own attributes, so library code that spells ``os.stat``
*would* re-enter — every internal probe paying a shim dispatch and a
mount lookup just to be recognised as pass-through.  :data:`posix` is the
Python spelling of ``RTLD_NEXT``: the only way ``repro.plfs`` and the
shim touch files.

* While an :class:`~repro.core.interpose.Interposer` is installed,
  :data:`posix` is bound to that interposer's :class:`RealOS` snapshot —
  the functions that were in ``os`` when the interposer was built.  A
  tracer installed *before* the interposer is therefore still underneath
  PLFS and sees the physical dropping I/O.
* Otherwise every attribute late-binds to ``os`` (or ``builtins.open``)
  *by name, at call time* — never captured at import — so whatever a test
  or an outer tool has put there is what runs.

Callers write ``posix.stat(p)``, never ``from ... import``: the lookup at
the call is the binding.
"""

from __future__ import annotations

import builtins
import os
import stat as stat_module
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class RealOS:
    """Snapshot of the original functions taken before patching."""

    open: callable
    close: callable
    read: callable
    write: callable
    pread: callable
    pwrite: callable
    lseek: callable
    dup: callable
    dup2: callable
    stat: callable
    lstat: callable
    fstat: callable
    access: callable
    unlink: callable
    rename: callable
    replace: callable
    truncate: callable
    ftruncate: callable
    fsync: callable
    mkdir: callable
    rmdir: callable
    listdir: callable
    scandir: callable
    chmod: callable
    utime: callable
    builtins_open: callable
    sendfile: callable | None = None
    fdatasync: callable | None = None
    statvfs: callable | None = None
    fstatvfs: callable | None = None
    link: callable | None = None
    symlink: callable | None = None
    readlink: callable | None = None
    copy_file_range: callable | None = None
    readv: callable | None = None
    writev: callable | None = None
    preadv: callable | None = None
    pwritev: callable | None = None
    splice: callable | None = None

    @classmethod
    def snapshot(cls) -> "RealOS":
        """Whatever the ``os`` names (and ``builtins.open``) hold now."""
        calls = {f.name: getattr(os, f.name, None) for f in fields(cls)}
        calls["builtins_open"] = builtins.open
        return cls(**calls)


class Route:
    """Attribute-for-attribute stand-in for a :class:`RealOS`, plus the
    few path helpers the library builds on those calls (so they, too,
    never re-enter the shim)."""

    def bind(self, real: RealOS) -> None:
        """Send every call to *real* until :meth:`unbind`."""
        vars(self).update((name, fn) for name, fn in vars(real).items() if fn is not None)

    def unbind(self) -> None:
        vars(self).clear()

    def __getattr__(self, name: str):
        # Reached only for what is not bound: the process's own ``os``,
        # looked up now, like a lazily resolved dynamic symbol.
        if name == "builtins_open":
            return builtins.open
        return getattr(os, name)

    # ------------------------------------------------------------------ #
    # os.path / shutil equivalents built on the routed calls
    # ------------------------------------------------------------------ #

    def _mode(self, path: str) -> int:
        try:
            return self.stat(path).st_mode
        except (OSError, ValueError):
            return 0

    def exists(self, path: str) -> bool:
        return self._mode(path) != 0

    def isfile(self, path: str) -> bool:
        return stat_module.S_ISREG(self._mode(path))

    def isdir(self, path: str) -> bool:
        return stat_module.S_ISDIR(self._mode(path))

    def getsize(self, path: str) -> int:
        return self.stat(path).st_size

    def ensure_dir(self, path: str) -> None:
        """``makedirs(path, exist_ok=True)``, trying the leaf first: one
        ``mkdir`` when the parent is there, which is the common case."""
        try:
            self.mkdir(path)
        except FileExistsError:
            if not self.isdir(path):
                raise
        except FileNotFoundError:
            parent = os.path.dirname(path)
            if parent == path:
                raise
            self.ensure_dir(parent)
            self.ensure_dir(path)  # a racing creator may have won: not an error

    def rmtree(self, path: str, ignore_errors: bool = False) -> None:
        """Remove a directory tree.  Like ``shutil.rmtree``: a symlinked
        root is refused before anything is touched, and symlinks inside
        the tree are unlinked, never followed."""
        try:
            if stat_module.S_ISLNK(self.lstat(path).st_mode):
                raise OSError("Cannot call rmtree on a symbolic link", path)
            self._rmtree(path, ignore_errors)
        except OSError:
            if not ignore_errors:
                raise

    def _rmtree(self, path: str, ignore_errors: bool) -> None:
        with self.scandir(path) as it:
            entries = list(it)
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    self._rmtree(entry.path, ignore_errors)
                else:
                    self.unlink(entry.path)
            except OSError:
                if not ignore_errors:
                    raise
        self.rmdir(path)


#: the process-wide route (bound and unbound by ``Interposer`` only)
posix = Route()
