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

The interposed symbols are written once, here (:data:`INTERPOSED`): the
snapshot's attributes, the interposer's patch list and dispatch, and the
tracer's calls are read off it, so there is no second copy to drift.
"""

from __future__ import annotations

import builtins
import os
import stat as stat_module
from types import SimpleNamespace
from typing import NamedTuple


class Row(NamedTuple):
    """One interposed symbol: what a tracer must know about the call, and
    which of its arguments the dispatcher decides on."""

    #: ``opens`` / ``closes`` a descriptor, ``seeks`` (moves the cursor),
    #: moves bytes (``r`` or ``w``; ``@``: at an explicit offset, otherwise
    #: at the cursor, which it moves; ``v``: over an iovec), or ``""``: none
    tag: str
    #: the key kind, which arguments decide: ``fd``, ``fd, fd``, ``path``,
    #: ``path, path``, ``text, path`` (the first is stored, not touched), or
    #: ``none`` (the whole call is the ``Shim`` method's)
    key: str


def _rows(key: str, names: str) -> dict[str, Row]:
    return {name: Row("", key) for name in names.split()}


#: The interposed-symbol table: every ``os`` name the loader rebinds, in
#: binding order.  ``builtins.open`` / ``io.open`` are not rows: every
#: snapshot carries them as ``builtins_open`` and every layer rebinds both.
INTERPOSED: dict[str, Row] = {
    "open": Row("opens", "path"), "close": Row("closes", "none"),
    "read": Row("r", "fd"), "write": Row("w", "fd"),
    "readv": Row("rv", "fd"), "writev": Row("wv", "fd"),
    "pread": Row("r@", "fd"), "pwrite": Row("w@", "fd"),
    "preadv": Row("r@v", "fd"), "pwritev": Row("w@v", "fd"),
    "lseek": Row("seeks", "fd"),
    **_rows("none", "dup dup2"),
    **_rows("path", "stat lstat"),
    **_rows("fd", "fstat"),
    **_rows("path", "access unlink remove"),
    **_rows("path, path", "rename replace"),
    **_rows("path", "truncate"),
    **_rows("fd", "ftruncate fsync fdatasync"),
    **_rows("path", "mkdir rmdir listdir scandir chmod utime"),
    **_rows("fd, fd", "sendfile copy_file_range splice"),
    **_rows("path", "statvfs"),
    **_rows("fd", "fstatvfs"),
    **_rows("path, path", "link"),
    **_rows("text, path", "symlink"),
    **_rows("path", "readlink"),
}

#: rows that are a second name for another row's function
ALIAS_OF = {"remove": "unlink"}


class RealOS(SimpleNamespace):
    """Snapshot of the original functions taken before patching: one
    attribute per table row (``None`` where this platform's ``os`` lacks
    it) plus ``builtins_open``."""

    @classmethod
    def snapshot(cls) -> "RealOS":
        """Whatever the ``os`` names (and ``builtins.open``) hold now."""
        calls = {name: getattr(os, name, None) for name in INTERPOSED if name not in ALIAS_OF}
        return cls(builtins_open=builtins.open, **calls)


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
