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
we shadow with an unlinked temporary file, which has full regular-file
cursor semantics and also never leaks a directory entry.
"""

from __future__ import annotations

import errno
import os
import tempfile
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
    """Thread-safe fd → :class:`FdEntry` lookup table."""

    #: plfs-san registration (see repro.sanitize): field -> guarding lock
    _SANITIZE_SHARED = {"_entries": "_lock"}

    def __init__(self, real_os):
        # ``real_os`` exposes the *unpatched* os functions (open, close,
        # lseek, dup).  Using the patched ones here would recurse.
        self._real = real_os
        self._lock = threading.RLock()
        self._entries: dict[int, FdEntry] = {}

    # ------------------------------------------------------------------ #
    # shadow descriptors
    # ------------------------------------------------------------------ #

    def _open_shadow_fd(self) -> int:
        """Reserve a genuine POSIX descriptor backed by an unlinked temp
        file whose offset serves as the emulated PLFS file pointer:
        ``mkstemp`` (random name, ``O_EXCL``, bounded tries) in real calls."""
        real = self._real
        flags = os.O_RDWR | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
        for _ in range(tempfile.TMP_MAX):
            path = os.path.join(tempfile.gettempdir(), f"ldplfs-shadow-{os.urandom(8).hex()}")
            try:
                fd = real.open(path, flags, 0o600)
            except FileExistsError:
                continue
            try:
                real.unlink(path)
            except OSError:
                pass
            return fd
        raise FileExistsError(errno.EEXIST, "no usable shadow file name found")

    # ------------------------------------------------------------------ #
    # table operations
    # ------------------------------------------------------------------ #

    def insert(self, plfs_fd: Plfs_fd, flags: int, logical_path: str) -> FdEntry:
        fd = self._open_shadow_fd()
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
        with self._lock:
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
