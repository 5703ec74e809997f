"""Installing and removing the interposition — the ``LD_PRELOAD`` moment.

For a C binary the loader rebinds libc symbols once, before ``main``.  The
Python analogue is rebinding the interpreter's POSIX entry points — the
functions in :mod:`os` plus ``builtins.open`` — which unmodified Python
application code calls exactly like C code calls libc.  ``install()`` swaps
them for the :class:`~repro.core.shim.Shim` methods; ``uninstall()``
restores the originals.  Use :func:`interposed` as a scoped context
manager, or set ``LDPLFS_PRELOAD=1`` and import :mod:`repro.core.preload`
for whole-process activation with zero application changes.

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

from repro.plfs.route import ALIAS_OF, INTERPOSED, RealOS, posix

from . import config
from .mounts import MountTable
from .shim import Shim

#: os attributes patched to same-named Shim methods: the table's names.
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
                # Looked up first: a Shim lacking one fails with nothing patched.
                targets = {
                    name: getattr(self.shim, ALIAS_OF.get(name, name)) for name in _OS_PATCHES
                }
                # From the first rebound symbol on, PLFS goes around the shim.
                posix.bind(self.real)
                self._layer.push(targets, self.shim.builtin_open)
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
