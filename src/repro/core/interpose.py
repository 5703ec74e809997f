"""Installing and removing the interposition — the ``LD_PRELOAD`` moment.

For a C binary the loader rebinds libc symbols once, before ``main``.  The
Python analogue is rebinding the interpreter's POSIX entry points — the
functions in :mod:`os` plus ``builtins.open`` — which unmodified Python
application code calls exactly like C code calls libc.  ``install()`` swaps
them for the paper's dispatch — a descriptor with a lookup entry, or a path
under a mount point, goes to the :class:`~repro.core.shim.Shim` method,
anything else to libc — generated here, once, from each row's key kind
(:func:`dispatch`); ``uninstall()`` restores the originals.  Use
:func:`interposed` as a scoped context manager, or set
``LDPLFS_PRELOAD=1`` and import :mod:`repro.core.preload` for
whole-process activation with zero application changes.

The loader stacks any number of preloaded libraries on one symbol table
(footnote 1); here that is :class:`Layer`, the one rebinding mechanism.
:class:`Interposer` (the policy) and :class:`~repro.core.trace.Tracer` (the
accounting) are its two users, so what one reaches — both names of
``open``, a module wrapped the ``-wrap`` way — the other reaches too.
"""

from __future__ import annotations

import builtins
import io
import os
import threading
from contextlib import contextmanager
from functools import partial

from repro.plfs.route import ALIAS_OF, INTERPOSED, RealOS, posix

from . import config
from .mounts import MountTable
from .shim import Shim

#: os attributes rebound while installed: the table's names.
_OS_PATCHES = list(INTERPOSED)

#: one libc function behind two dynamic symbols: pathlib and parts of the
#: stdlib reference ``io.open`` directly, so a layer always rebinds both
OPEN_SYMBOLS = ("builtins.open", "io.open")

_install_lock = threading.RLock()
_installed: "Interposer | None" = None
#: our own layers in install order, bottom first (under ``_install_lock``)
_layers: "list[Layer]" = []


def _held(symbol: str):
    if symbol == "builtins.open":
        return builtins.open
    return io.open if symbol == "io.open" else getattr(os, symbol)


def _rebind(symbol: str, fn) -> None:
    """The one place in ``src/repro`` an interposed symbol is assigned."""
    if symbol == "builtins.open":
        builtins.open = fn
    elif symbol == "io.open":
        io.open = fn
    else:
        setattr(os, symbol, fn)


class Layer:
    """One rebinding of interposed symbols: save what is bound now, rebind,
    put it back.  Whatever a foreign patcher bound before :meth:`push` is
    saved like anything else and stays underneath; our own layers form a
    process-wide stack and come off in reverse order only — a layer popped
    from the middle would hand the layer above it a dead callee, and put
    back symbols that layer still owns."""

    def __init__(self) -> None:
        #: symbol -> what it held at :meth:`push` (``os`` names bare, plus
        #: :data:`OPEN_SYMBOLS`); empty while not pushed
        self.displaced: dict[str, object] = {}
        self._swaps: dict[int, object] = {}  # id(displaced) -> its replacement
        self._wrapped: list[tuple[object, str, object]] = []

    def push(self, calls: dict[str, object], opener) -> None:
        """Rebind ``os.<name>`` to *calls[name]* — where this platform's
        ``os`` has the name — and both open symbols to *opener*."""
        with _install_lock:
            if self in _layers:
                raise RuntimeError("layer is already installed")
            slots = {name: fn for name, fn in calls.items() if hasattr(os, name)}
            slots.update(dict.fromkeys(OPEN_SYMBOLS, opener))
            held = {symbol: _held(symbol) for symbol in slots}
            self.displaced.update(held)
            self._swaps.update((id(held[symbol]), fn) for symbol, fn in slots.items())
            for symbol, fn in slots.items():
                _rebind(symbol, fn)
            _layers.append(self)

    def pop(self) -> None:
        """Undo :meth:`wrap_module` and :meth:`push`; top layer only."""
        with _install_lock:
            if not _layers or _layers[-1] is not self:
                raise RuntimeError(
                    "not installed, or not the top layer: uninstall in reverse order of install"
                )
            for module, name, original in reversed(self._wrapped):
                setattr(module, name, original)
            for symbol, held in self.displaced.items():
                _rebind(symbol, held)
            _layers.pop()
            self.displaced.clear()
            self._swaps.clear()
            self._wrapped.clear()

    def wrap_module(self, module) -> int:
        """Rebind every global of *module* identical to something this layer
        displaced; undone at :meth:`pop`.  Returns the number rebound."""
        with _install_lock:
            if self not in _layers:
                raise RuntimeError("install() before wrap_module()")
            rebound = 0
            for name, value in list(vars(module).items()):
                replacement = self._swaps.get(id(value))
                if replacement is not None:
                    setattr(module, name, replacement)
                    self._wrapped.append((module, name, value))
                    rebound += 1
            return rebound


# ---------------------------------------------------------------------- #
# the dispatch: one closure per keyed row, generated from its key kind
# ---------------------------------------------------------------------- #

#: the path rows whose argument may be a descriptor instead (by name: a
#: patcher may have rebound the functions ``os.supports_fd`` holds)
_BY_FD = frozenset(fn.__name__ for fn in os.supports_fd)
#: naming one makes a relative path that directory's, never the cwd's
_DIR_FDS = ("dir_fd", "src_dir_fd", "dst_dir_fd")
#: the path rows whose path may be left out, meaning the cwd
_CWD_DEFAULT = frozenset({"listdir", "scandir"})


def _lookup(shim):
    """The fd table's own ``dict.get``: a lookup is a C call, no frame
    (``FdTable.lookup``'s semantics, lock-free like it)."""
    return shim.table._entries.get


def _fd(name, real, plfs, shim):
    stats, lookup = shim.stats, _lookup(shim)

    def call(fd, *args):
        entry = lookup(fd)
        if entry is None:
            stats["passthrough_calls"] += 1
            return real(fd, *args)
        stats["plfs_calls"] += 1
        return plfs(entry, *args)

    return call


def _fd_pair(name, real, plfs, shim):
    stats, lookup = shim.stats, _lookup(shim)

    def call(fd, fd2, *args, **kwargs):
        if lookup(fd) is None and lookup(fd2) is None:
            stats["passthrough_calls"] += 1
            return real(fd, fd2, *args, **kwargs)
        # An in-kernel copy of PLFS data: the Shim refuses it, and a refusal
        # is neither served nor passed through, so it is not counted.
        return plfs(fd, fd2, *args, **kwargs)

    return call


def _path(name, real, plfs, shim):
    # The mount table is read per call, not bound: a wrapper set on the
    # instance after install (a counting test) is what resolves.
    stats, lookup, mounts = shim.stats, _lookup(shim), shim.mounts
    by_fd = name in _BY_FD
    # Left out, the path is the cwd where the call allows that; elsewhere
    # None reaches the real call, which raises the TypeError.
    omitted = "." if name in _CWD_DEFAULT else None

    def call(path=omitted, *args, **kwargs):
        if kwargs and any(kwargs.get(key) is not None for key in _DIR_FDS):
            key = None
        elif by_fd and isinstance(path, int):
            key = lookup(path)
        else:
            key = mounts.resolve(path)
        if key is None:
            stats["passthrough_calls"] += 1
            return real(path, *args, **kwargs)
        stats["plfs_calls"] += 1
        for unused in _DIR_FDS:
            kwargs.pop(unused, None)
        return plfs(key, path, *args, **kwargs)

    return call


def _paths(name, real, plfs, shim, first_is_path=True):
    stats, mounts = shim.stats, shim.mounts

    def call(src, dst, *args, **kwargs):
        if kwargs and any(kwargs.get(key) is not None for key in _DIR_FDS):
            rsrc = rdst = None
        else:
            rsrc = mounts.resolve(src) if first_is_path else None
            rdst = mounts.resolve(dst)
        if rsrc is None and rdst is None:
            stats["passthrough_calls"] += 1
            return real(src, dst, *args, **kwargs)
        stats["plfs_calls"] += 1
        for unused in _DIR_FDS:
            kwargs.pop(unused, None)
        return plfs(rsrc, rdst, src, dst, *args, **kwargs)

    return call


#: closure factory per key kind; a ``none`` row is bound as the Shim method
_MAKERS = {
    "fd": _fd, "fd, fd": _fd_pair, "path": _path, "path, path": _paths,
    "text, path": partial(_paths, first_is_path=False), "none": None,
}
KEY_KINDS = frozenset(_MAKERS)

for _name, _row in INTERPOSED.items():  # at import, not at the first install
    if getattr(_row, "key", None) not in KEY_KINDS:
        raise ValueError(
            f"interposed symbol {_name!r} has no key kind the dispatcher can build: {_row!r}"
        )


def _named(fn, name: str):
    """*fn*, reading as ``os.<name>`` in frames and tracebacks."""
    code = fn.__code__
    fn.__code__ = code.replace(
        co_name=name, **({"co_qualname": name} if hasattr(code, "co_qualname") else {})
    )
    fn.__name__ = fn.__qualname__ = name
    return fn


def dispatch(shim: Shim) -> dict:
    """``{name: callable}`` for every row: the Shim method itself for a
    ``none`` row, else a closure that counts a miss and calls the real
    function, or counts a hit and calls the Shim method with the entry or
    the resolved path in front.  Everything is bound now, so whatever has
    wrapped ``Shim``/``FdTable`` methods on the class by now is what runs."""
    calls = {}
    for name in _OS_PATCHES:
        method = ALIAS_OF.get(name, name)
        plfs = getattr(shim, method)  # first: a Shim lacking one fails here
        make = _MAKERS[INTERPOSED[name].key]
        calls[name] = plfs if make is None else _named(
            make(name, getattr(shim.real, method), plfs, shim), name
        )
    return calls


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
        self._layer = Layer()

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
                # Built first: a Shim lacking a method fails with nothing patched.
                calls = dispatch(self.shim)
                # From the first rebound symbol on, PLFS goes around the shim.
                posix.bind(self.real)
                self._layer.push(calls, self.shim.builtin_open)
                _installed = self
            self._depth += 1
        return self

    def uninstall(self) -> None:
        global _installed
        with _install_lock:
            if self._depth == 0:
                raise RuntimeError("interposer is not installed")
            if self._depth == 1:
                self._layer.pop()  # raises, nothing changed, under another layer
                posix.unbind()
                self.shim.close_daemon_clients()
                _installed = None
            self._depth -= 1

    def __enter__(self) -> "Interposer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

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
        return self._layer.wrap_module(module)

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
