"""The LDPLFS file-descriptor table.

This is the first of the two book-keeping structures the paper describes
(§III.A): PLFS hands back a ``Plfs_fd`` object, but the application expects
a genuine POSIX file descriptor it can pass to ``read``/``write``/``dup``.
For every PLFS open we therefore also open a *shadow* POSIX file to reserve
a real descriptor, and keep a process-wide lookup table mapping that fd to
the ``Plfs_fd``.

The second structure is the emulated file pointer: the PLFS API is
positional, POSIX I/O is cursor-based.  Exactly as in the paper, the cursor
lives in the kernel as the shadow descriptor's file offset and is queried
and advanced with ``lseek`` (``lseek(fd, 0, SEEK_CUR)`` to read it).  This
buys ``dup`` semantics for free: duplicated descriptors share an open file
description and therefore share the cursor, just like POSIX requires.

One deliberate deviation: the paper opens ``/dev/random`` as the shadow
file; character devices do not reliably keep arbitrary seek positions, so
we shadow with an anonymous ``memfd_create`` file: a regular file with a
kernel offset (``lseek`` anywhere, ``dup`` shares it) that has no name, so
it needs no temporary directory and can never leak a directory entry.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.plfs.api import Plfs_fd, access_mode


@dataclass
class FdEntry:
    """State for one application descriptor that targets PLFS."""

    fd: int
    plfs_fd: Plfs_fd
    flags: int
    logical_path: str
    #: what the descriptor may do, fixed at open (flags never change after)
    readable: bool = field(init=False)
    writable: bool = field(init=False)
    append: bool = field(init=False)

    def __post_init__(self) -> None:
        self.readable, self.writable = access_mode(self.flags)
        self.append = bool(self.flags & os.O_APPEND)


class FdTable:
    """Thread-safe fd → :class:`FdEntry` lookup table: mutators lock,
    :meth:`lookup` does not."""

    #: plfs-san registration (see repro.sanitize): field -> guarding lock
    #: of its writes (reads are lock-free: sanitize.registry)
    _SANITIZE_SHARED = {"_entries": "_lock"}

    def __init__(self, real_os):
        # ``real_os`` exposes the *unpatched* os functions (close,
        # lseek).  Using the patched ones here would recurse.
        self._real = real_os
        self._lock = threading.RLock()
        self._entries: dict[int, FdEntry] = {}

    # ------------------------------------------------------------------ #
    # table operations
    # ------------------------------------------------------------------ #

    def insert(self, plfs_fd: Plfs_fd, flags: int, logical_path: str) -> FdEntry:
        # The shadow descriptor: close-on-exec like every one ``os.open``
        # makes, and not an interposed call, so no layer sees it.
        fd = os.memfd_create("ldplfs-shadow")
        try:
            entry = FdEntry(fd, plfs_fd, flags, logical_path)
            with self._lock:
                self._entries[fd] = entry
        except Exception:
            # Never strand the reserved descriptor if registration fails;
            # the caller still owns (and must release) the Plfs_fd.
            self._real.close(fd)
            raise
        return entry

    def lookup(self, fd: int) -> FdEntry | None:
        # No lock: one dict.get is atomic under the GIL and sees an entry
        # either wholly inserted or not at all; only the mutators lock.
        # The generated dispatch binds ``_entries.get`` itself, so the dict
        # is never rebound, only mutated.
        return self._entries.get(fd)

    def remove(self, fd: int) -> FdEntry | None:
        with self._lock:
            return self._entries.pop(fd, None)

    def dup(self, entry: FdEntry, new_fd: int) -> FdEntry:
        """Register *new_fd* (already duplicated from entry.fd by the shim)
        as another reference to the same PLFS handle.  The kernel-level dup
        shares the shadow offset, so the cursor is naturally shared."""
        from repro.plfs.api import plfs_ref

        dup_entry = FdEntry(new_fd, plfs_ref(entry.plfs_fd), entry.flags, entry.logical_path)
        with self._lock:
            self._entries[new_fd] = dup_entry
        return dup_entry

    def fds(self) -> list[int]:
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # cursor emulation (paper §III.A: lseek on the shadow descriptor)
    # ------------------------------------------------------------------ #

    def tell(self, entry: FdEntry) -> int:
        return self._real.lseek(entry.fd, 0, os.SEEK_CUR)

    def set_cursor(self, entry: FdEntry, offset: int) -> int:
        return self._real.lseek(entry.fd, offset, os.SEEK_SET)

    def advance(self, entry: FdEntry, delta: int) -> int:
        return self._real.lseek(entry.fd, delta, os.SEEK_CUR)

    def close_shadow(self, entry: FdEntry) -> None:
        self._real.close(entry.fd)
