"""Backing-store indirection: the PLFS library's persistence surface.

Every byte the PLFS implementation persists — data-dropping appends,
index-dropping flushes, write-ahead index records, meta droppings — flows
through the :class:`BackingStore` installed here.  The default store calls
straight into ``os``; the fault-injection layer (:mod:`repro.faults`)
installs a wrapping store that can drop, shorten, tear or error any of
these operations deterministically, which is how the crash-consistency
suite drives every fault in the matrix without patching library internals.

The indirection is deliberately narrow: only operations whose *failure
mid-flight* leaves a container in a state ``repro-fsck`` must reason about
are routed here.  Reads, listings and unlinks bypass the store (a failed
read corrupts nothing) but, like the default store itself, reach the OS
only through :data:`repro.plfs.route.posix`, never an installed shim.
"""

from __future__ import annotations

import os
import threading

from .route import posix


class BackingStore:
    """Default persistence operations (straight to the routed OS).

    Subclass and :func:`install` to interpose.  Each method carries the
    *path* of the file being touched purely as context for wrappers; the
    default implementations ignore it.
    """

    def write_data(self, fd: int, buf, path: str) -> int:
        """Append *buf* to an open data dropping; returns bytes written."""
        return posix.write(fd, buf)

    def write_datav(self, fd: int, buffers, path: str) -> int:
        """Vectored append to an open data dropping; returns bytes written.

        One gather write for a whole iovec (the ``writev``/``pwritev``
        fast path), falling back to sequential writes where ``os.writev``
        is unavailable.  A short write stops the sequence — callers treat
        the return exactly like a short :meth:`write_data`.
        """
        if hasattr(os, "writev"):
            return posix.writev(fd, list(buffers))
        total = 0
        for buf in buffers:
            n = posix.write(fd, buf)
            total += n
            if n < len(buf):
                break
        return total

    def append_index(self, path: str, payload: bytes) -> int:
        """Append packed index records to an index dropping (unbuffered:
        a short raw write is resumed, not left to a buffer's flush)."""
        with posix.builtins_open(path, "ab", buffering=0) as fh:
            view, done = memoryview(payload), 0
            while done < len(view):
                done += fh.write(view[done:])
            return done

    def write_wal(self, fd: int, payload: bytes, path: str) -> int:
        """Append one packed record to a write-ahead index dropping."""
        return posix.write(fd, payload)

    def create_meta(self, path: str) -> None:
        """Create one (empty) meta dropping."""
        posix.builtins_open(path, "wb", buffering=0).close()

    def write_global_index(self, path: str, payload: bytes) -> None:
        """Atomically replace the persistent compacted global index.

        Write-then-rename so no reader ever observes a half-written file;
        a crash before the rename leaves only an invisible temporary (the
        previous compacted index, if any, stays intact).  The temporary
        lives in the container root under a name neither dropping
        enumeration nor compacted-index loading picks up; ``repro-fsck``
        sweeps leftovers.
        """
        tmp = f"{path}.tmp.{os.getpid()}"
        with posix.builtins_open(tmp, "wb", buffering=0) as fh:
            view, done = memoryview(payload), 0
            while done < len(view):  # unbuffered, as append_index
                done += fh.write(view[done:])
        posix.replace(tmp, path)

    def fsync(self, fd: int) -> None:
        posix.fsync(fd)

    # ------------------------------------------------------------------ #
    # object-store layer (repro.plfs.objectstore)
    # ------------------------------------------------------------------ #
    #
    # The object backend routes its blob and manifest commits through the
    # installed store so the fault injector can fail them the same way it
    # fails dropping appends: a lost PUT, a torn multipart part, a crash
    # between the blob landing and the key commit.  For the default store
    # these are plain atomic file operations; *key* rides along purely as
    # context for wrappers (the path already encodes the physical target).

    def put_blob(self, path: str, payload: bytes, key: str) -> int:
        """Atomically commit one immutable content-addressed blob.

        Write-then-rename: a crash mid-write leaves only an invisible
        temporary (swept by ``repro-fsck``'s object reconcile pass), never
        a half-written blob under its content hash.
        """
        tmp = f"{path}.tmp.{os.getpid()}"
        with posix.builtins_open(tmp, "wb") as fh:
            n = fh.write(payload)
        posix.replace(tmp, path)
        return n

    def write_part(self, fd: int, payload: bytes, path: str) -> int:
        """Append one multipart-upload part to its staging file."""
        return posix.write(fd, payload)

    def commit_key(self, path: str, payload: bytes, key: str) -> None:
        """Atomically commit the key manifest that makes an object visible.

        This is the object store's linearization point: until the rename,
        the object does not exist no matter how many blob bytes landed.
        """
        tmp = f"{path}.tmp.{os.getpid()}"
        with posix.builtins_open(tmp, "wb") as fh:
            fh.write(payload)
        posix.replace(tmp, path)

    def get_object(self, path: str, key: str) -> bytes:
        """Read one committed blob back (the restore / fault-in path).

        Reads normally stay out of the backing surface, but a GET that
        returns wrong bytes *does* corrupt: the tier materializes its
        result as a local dropping other readers then trust.  Routing it
        here lets the injector model a corrupt or vanished object, and the
        store's etag check turn that into a detected error.
        """
        with posix.builtins_open(path, "rb") as fh:
            return fh.read()


_lock = threading.Lock()
_current = BackingStore()


def current() -> BackingStore:
    """The installed backing store (default: the routed OS calls)."""
    return _current


def install(store: BackingStore) -> BackingStore:
    """Install *store*, returning the previously installed one."""
    global _current
    with _lock:
        previous = _current
        _current = store
        return previous


def reset() -> BackingStore:
    """Restore the default store (used by test teardown)."""
    return install(BackingStore())
