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
snapshot's attributes, the interposer's patch list and the tracer's calls
are read off it, so there is no second copy to drift.
"""

from __future__ import annotations

import builtins
import os
import stat as stat_module
from types import SimpleNamespace

#: The interposed-symbol table: every ``os`` name the loader rebinds, in
#: binding order, each tagged with what a tracer must know about the call —
#: ``opens`` / ``closes`` a descriptor, ``seeks`` (moves the cursor), moves
#: bytes (``r`` or ``w``; ``@``: at an explicit offset, otherwise at the
#: cursor, which it moves; ``v``: over an iovec), or ``""``: none of these.
#: ``builtins.open`` / ``io.open`` are not rows: every snapshot carries them
#: as ``builtins_open`` and every layer rebinds both.
INTERPOSED: dict[str, str] = {
    "open": "opens", "close": "closes",
    "read": "r", "write": "w", "readv": "rv", "writev": "wv",
    "pread": "r@", "pwrite": "w@", "preadv": "r@v", "pwritev": "w@v",
    "lseek": "seeks",
    **dict.fromkeys(
        "dup dup2 stat lstat fstat access unlink remove rename replace truncate "
        "ftruncate fsync fdatasync mkdir rmdir listdir scandir chmod utime "
        "sendfile copy_file_range splice statvfs fstatvfs link symlink readlink".split(),
        "",
    ),
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
