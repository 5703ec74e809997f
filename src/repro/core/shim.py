"""The interposed POSIX call set.

Each public method of :class:`Shim` replaces the same-named function in the
``os`` module (plus ``builtins.open``) while interposition is installed.
The dispatch rule is the paper's: a *path* operation is retargeted to PLFS
when the path resolves through the mount table; an *fd* operation is
retargeted when the descriptor has an entry in the fd lookup table;
everything else falls through to the saved original function — the
``dlsym(RTLD_NEXT)`` pass-through of the C shim.
"""

from __future__ import annotations

import errno
import io
import os
import stat as stat_module
import time
from dataclasses import dataclass, field
from functools import partial

from repro.plfs import api as plfs_api
from repro.plfs import constants
from repro.plfs.container import CONTAINER, DIRECTORY, FILE, Container, classify
from repro.plfs.container import is_container, readdir_logical, rmdir_logical
from repro.plfs.errors import ContainerNotFoundError, NotAContainerError, PlfsError
from repro.plfs.reader import byte_view
from repro.plfs.route import RealOS

from .fdtable import FdEntry, FdTable
from .mounts import Mount, MountTable

#: the largest ``off_t``: no extent may end past it (the kernel's
#: ``rw_verify_area`` answer is EINVAL, whatever the file system)
_OFF_MAX = (1 << 63) - 1


@dataclass
class RetryPolicy:
    """Transparent retry for transient I/O failures at the shim boundary.

    POSIX lets ``read``/``write`` fail with ``EINTR``/``EAGAIN`` or return
    short; well-written applications loop, but the whole premise of LDPLFS
    is running applications *unmodified* — so the shim absorbs what the
    application would not.  Interrupted calls are retried with exponential
    backoff (capped), and short writes are resumed until the buffer is
    fully written or a non-transient error surfaces.

    ``sleep`` is injectable so tests can assert the backoff sequence
    without waiting it out.
    """

    max_attempts: int = 5
    backoff_base: float = 0.001
    backoff_factor: float = 2.0
    backoff_max: float = 0.1
    transient_errnos: frozenset = frozenset({errno.EINTR, errno.EAGAIN})
    sleep: callable = field(default=time.sleep, repr=False)

    def delays(self) -> list[float]:
        """The backoff schedule (one delay per retry, not per attempt)."""
        out, delay = [], self.backoff_base
        for _ in range(self.max_attempts - 1):
            out.append(delay)
            delay = min(delay * self.backoff_factor, self.backoff_max)
        return out


def _einval() -> OSError:
    return OSError(errno.EINVAL, os.strerror(errno.EINVAL))


def _ebadf() -> OSError:
    return OSError(errno.EBADF, os.strerror(errno.EBADF))


def _enoent(path) -> OSError:
    return FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _eisdir(path) -> OSError:
    return IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _enotdir(path) -> OSError:
    return NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _exdev(src, dst) -> OSError:
    return OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)


def _readdir(path, backend: str) -> list[str]:
    """Entries of the logical directory *path*: a container is a file
    (ENOTDIR), anything else that will not list is reported missing."""
    try:
        return readdir_logical(backend)
    except NotAContainerError:
        raise _enotdir(path) from None
    except (FileNotFoundError, NotADirectoryError):
        raise _enoent(path) from None


def _may_execute(st, mode: int) -> bool:
    """``access(X_OK)`` for a regular file owned like *st* with permission
    bits *mode*, as the kernel decides it for the real uid/gid."""
    uid = os.getuid()
    if uid == 0:
        return bool(mode & 0o111)
    if uid == st.st_uid:
        return bool(mode & 0o100)
    in_group = st.st_gid == os.getgid() or st.st_gid in os.getgroups()
    return bool(mode & (0o010 if in_group else 0o001))


class Shim:
    """Implements every interposed call against one mount table."""

    def __init__(
        self,
        mount_table: MountTable,
        real: RealOS | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.mounts = mount_table
        self.real = real or RealOS.snapshot()
        self.table = FdTable(self.real)
        #: transient-error absorption for PLFS-bound I/O; pass a policy to
        #: tune it (a default one is always on: unmodified applications do
        #: not loop on EINTR themselves)
        self.retry = retry or RetryPolicy()
        #: counters used by tests and the overhead benchmarks
        self.stats = {
            "plfs_calls": 0,
            "passthrough_calls": 0,
            "transient_retries": 0,
            "short_write_resumes": 0,
            "daemon_opens": 0,
            "daemon_delegated_opens": 0,
            "daemon_fallbacks": 0,
        }
        #: one cached connection per ``daemon=`` socket path
        self._daemon_clients: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # transient-error absorption
    # ------------------------------------------------------------------ #

    def _retry_after(self, exc: OSError, fn):
        """*fn*'s first attempt raised *exc*: the policy's remaining ones.
        (Callers make the first attempt themselves and come here only from
        their ``except``, with a ``partial`` made there: the ordinary call
        pays no closure, no cell variable and no loop.)"""
        policy = self.retry
        delay = policy.backoff_base
        for _ in range(policy.max_attempts - 1):
            if exc.errno not in policy.transient_errnos:
                break
            self.stats["transient_retries"] += 1
            policy.sleep(delay)
            delay = min(delay * policy.backoff_factor, policy.backoff_max)
            try:
                return fn()
            except OSError as again:
                exc = again
        raise exc

    # ------------------------------------------------------------------ #
    # the data funnels: every interposed read and write passes through one
    # of these, which is where its arguments and the descriptor's access
    # mode are checked — in the kernel's order: a negative count or offset
    # (EINVAL), the mode (EBADF), an extent ending past off_t (EINVAL) — so
    # that what the OS rejects never reaches PLFS, and where the retry
    # policy applies
    # ------------------------------------------------------------------ #

    def _read_at(self, entry, n, offset) -> bytes:
        if n < 0 or offset < 0:
            raise _einval()
        if not entry.readable:
            raise _ebadf()
        if offset + n > _OFF_MAX:
            raise _einval()
        try:
            return plfs_api.plfs_read(entry.plfs_fd, n, offset)
        except OSError as exc:
            return self._retry_after(exc, partial(plfs_api.plfs_read, entry.plfs_fd, n, offset))

    def _readv_at(self, entry, buffers, offset) -> int:
        # One buffer (every file-object read) is handed down and filled in
        # place; several cover one contiguous logical span, so they are one
        # plfs_read_into (one plan, one revalidation), then scattered.
        # Non-byte buffers (array('i'), numpy views) count bytes, and a
        # non-contiguous one raises — the contract os.readv has.
        if offset < 0:
            raise _einval()
        if not entry.readable:
            raise _ebadf()
        plfs_fd, views = entry.plfs_fd, ()
        if len(buffers) == 1:
            dest = buffers[0]
            want = memoryview(dest).nbytes
        else:
            views = list(map(byte_view, buffers))
            want = sum(map(len, views))
            dest = memoryview(bytearray(want))
        if offset + want > _OFF_MAX:
            raise _einval()
        try:
            got = plfs_api.plfs_read_into(plfs_fd, dest, offset)
        except OSError as exc:
            got = self._retry_after(exc, partial(plfs_api.plfs_read_into, plfs_fd, dest, offset))
        pos = 0
        for view in views:
            n = min(len(view), got - pos)
            view[:n] = dest[pos : pos + n]
            pos += n
        return got

    def _write_at(self, entry, data, offset, vectored=False, move=False) -> int:
        """Write *data* — one buffer or, *vectored*, an iovec covering one
        contiguous logical span — at *offset*: all of it, or raise.  With
        *move* (write/writev) the cursor ends up behind what was written.

        An ``O_APPEND`` descriptor's bytes land at end of file whatever
        *offset* says — pwrite's too, as on Linux — once *offset* has passed
        the checks.  An iovec goes down whole as a single ``plfs_writev``
        (one data append, one index record).  Unmodified applications
        neither loop on EINTR nor resume short writes, so each attempt gets
        the retry policy and a short return resumes from the cut point.
        """
        if vectored:
            rest = list(map(byte_view, data))
            want = sum(map(len, rest))
            write = plfs_api.plfs_writev
        else:
            rest = byte_view(data)
            want = len(rest)
            write = plfs_api.plfs_write
        if offset < 0:
            raise _einval()
        if not entry.writable:
            raise _ebadf()
        if offset + want > _OFF_MAX:
            raise _einval()
        if not want:
            return 0
        plfs_fd = entry.plfs_fd
        if entry.append:
            offset = plfs_api.plfs_getattr(plfs_fd).st_size
            if offset + want > _OFF_MAX:
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
        done = 0
        while True:
            at = offset + done
            try:
                n = write(plfs_fd, rest, offset=at)
            except OSError as exc:
                n = self._retry_after(exc, partial(write, plfs_fd, rest, offset=at))
            done += n
            if done >= want or n <= 0:
                if move and done:
                    self.table.set_cursor(entry, offset + done)
                return done
            self.stats["short_write_resumes"] += 1
            if vectored:
                while n >= len(rest[0]):  # buffers that went out whole
                    n -= len(rest.pop(0))
                rest[0] = rest[0][n:]
            else:
                rest = rest[n:]

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #

    def _resolve(self, path) -> tuple[Mount, str] | None:
        if isinstance(path, int):  # fd-relative path APIs pass ints
            return None
        try:
            return self.mounts.resolve(path)
        except TypeError:  # not path-like: the real call will say so
            return None

    def _count(self, plfs: bool) -> None:
        self.stats["plfs_calls" if plfs else "passthrough_calls"] += 1

    # ------------------------------------------------------------------ #
    # daemon routing (mounts carrying a ``daemon=socket`` option)
    # ------------------------------------------------------------------ #

    def _daemon_open(self, socket_path: str, backend: str, flags: int, mode: int):
        """Open *backend* through the plfsd daemon at *socket_path*.

        Returns a RemoteFd, or ``None`` when no daemon is reachable — the
        caller then takes the ordinary in-process path, so a mount with a
        ``daemon=`` option degrades gracefully to exactly what it was
        before the daemon existed.  Real PLFS failures from the daemon
        (ENOENT, EEXIST, ...) are NOT swallowed: the error envelope
        re-raises the same :mod:`repro.plfs.errors` class the in-process
        open would have raised.
        """
        from repro.plfsd.client import PlfsdUnavailable, connect

        client = self._daemon_clients.get(socket_path)
        accmode = flags & (os.O_RDONLY | os.O_WRONLY | os.O_RDWR)
        delegate = accmode == os.O_WRONLY and not flags & os.O_EXCL
        try:
            if client is None or client.closed:
                client = connect(socket_path, name=f"shim-pid-{os.getpid()}")
                self._daemon_clients[socket_path] = client
            if delegate:
                # Write-only: the daemon serializes the metadata create
                # (its MDS role) and the data plane stays in-process —
                # PLFS never streams bytes through its metadata service.
                plfs_fd = client.open_delegated(backend, flags, mode)
            else:
                plfs_fd = client.open(backend, flags, mode)
        except PlfsdUnavailable:
            self._daemon_clients.pop(socket_path, None)
            self.stats["daemon_fallbacks"] += 1
            return None
        self.stats["daemon_opens"] += 1
        if delegate:
            self.stats["daemon_delegated_opens"] += 1
        return plfs_fd

    def close_daemon_clients(self) -> None:
        """Drop every cached daemon connection (uninstall/test teardown)."""
        while self._daemon_clients:
            _, client = self._daemon_clients.popitem()
            client.close()

    # ------------------------------------------------------------------ #
    # fd creation / destruction
    # ------------------------------------------------------------------ #

    def open(self, path, flags, mode=0o777, *, dir_fd=None, **kwargs):
        resolved = self._resolve(path) if dir_fd is None else None
        if resolved is None:
            self._count(False)
            return self.real.open(path, flags, mode, dir_fd=dir_fd, **kwargs)
        return self._open_resolved(path, resolved, flags, mode)

    def _open_resolved(self, path, resolved: tuple[Mount, str], flags: int, mode: int) -> int:
        mount, backend = resolved
        self._count(True)

        # plfs_open takes the one look at the backend and says what it saw.
        try:
            plfs_fd = None
            if mount.daemon is not None:
                plfs_fd = self._daemon_open(mount.daemon, backend, flags, mode & 0o777)
            if plfs_fd is None:
                plfs_fd = plfs_api.plfs_open(backend, flags, os.getpid(), mode & 0o777)
        except ContainerNotFoundError:
            raise _enoent(path) from None
        except NotAContainerError:
            # A logical directory (the caller gets a real directory fd on
            # the backend, so fchdir()/O_DIRECTORY users keep working) or
            # a plain non-PLFS file living inside the backend tree.
            return self.real.open(backend, flags, mode)
        except PlfsError as exc:
            raise type(exc)(str(exc.args[1] if len(exc.args) > 1 else exc), exc.errno) from None
        try:
            entry = self.table.insert(plfs_fd, flags, os.fspath(path))
        except Exception:
            # A failed open must not leak the PLFS handle: release the
            # writer's droppings and the openhost marker before re-raising.
            plfs_api.plfs_close(plfs_fd)
            raise
        if flags & os.O_TRUNC and not entry.writable:
            # POSIX leaves it undefined and the library leaves the file
            # alone; Linux truncates, so on a mount the shim does
            plfs_api.plfs_trunc(plfs_fd)
        return entry.fd

    def close(self, fd):
        entry = self.table.remove(fd)
        if entry is None:
            self._count(False)
            return self.real.close(fd)
        self._count(True)
        try:
            plfs_api.plfs_close(entry.plfs_fd)
        finally:
            self.table.close_shadow(entry)

    def dup(self, fd):
        new_fd = self.real.dup(fd)
        entry = self.table.lookup(fd)
        if entry is not None:
            self.table.dup(entry, new_fd)
            self._count(True)
        else:
            self._count(False)
        return new_fd

    def dup2(self, fd, fd2, inheritable=True):
        if fd == fd2:
            return fd2
        old = self.table.remove(fd2)
        if old is not None:
            # fd2 referenced a PLFS file: release that reference first.
            plfs_api.plfs_close(old.plfs_fd)
        new_fd = self.real.dup2(fd, fd2, inheritable)
        entry = self.table.lookup(fd)
        if entry is not None:
            self.table.dup(entry, new_fd)
            self._count(True)
        else:
            self._count(False)
        return new_fd

    # ------------------------------------------------------------------ #
    # cursor-based I/O (the paper's lseek-emulated file pointer)
    # ------------------------------------------------------------------ #

    def read(self, fd, n):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.read(fd, n)
        self._count(True)
        data = self._read_at(entry, n, self.table.tell(entry))
        if data:
            self.table.advance(entry, len(data))
        return data

    def write(self, fd, data):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.write(fd, data)
        self._count(True)
        return self._write_at(entry, data, self.table.tell(entry), move=True)

    def lseek(self, fd, pos, how):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.lseek(fd, pos, how)
        self._count(True)
        if how == os.SEEK_END:
            size = plfs_api.plfs_getattr(entry.plfs_fd).st_size
            target = size + pos
            if target < 0:
                raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
            return self.table.set_cursor(entry, target)
        # SEEK_SET / SEEK_CUR validate naturally on the shadow descriptor.
        return self.real.lseek(entry.fd, pos, how)

    # ------------------------------------------------------------------ #
    # vectored I/O (scatter/gather: one call, many buffers, one cursor
    # movement — POSIX readv/writev atomicity at the logical-file level)
    # ------------------------------------------------------------------ #

    def readv(self, fd, buffers):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.readv(fd, buffers)
        self._count(True)
        total = self._readv_at(entry, buffers, self.table.tell(entry))
        if total:
            self.table.advance(entry, total)
        return total

    def writev(self, fd, buffers):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.writev(fd, buffers)
        self._count(True)
        return self._write_at(entry, buffers, self.table.tell(entry), vectored=True, move=True)

    def preadv(self, fd, buffers, offset, flags=0):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.preadv(fd, buffers, offset, flags)
        self._count(True)
        return self._readv_at(entry, buffers, offset)

    def pwritev(self, fd, buffers, offset, flags=0):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.pwritev(fd, buffers, offset, flags)
        self._count(True)
        # Like pwrite: the emulated cursor stays where it is.
        return self._write_at(entry, buffers, offset, vectored=True)

    # ------------------------------------------------------------------ #
    # positional I/O
    # ------------------------------------------------------------------ #

    def pread(self, fd, n, offset):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.pread(fd, n, offset)
        self._count(True)
        return self._read_at(entry, n, offset)

    def pwrite(self, fd, data, offset):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.pwrite(fd, data, offset)
        self._count(True)
        # never moves the cursor
        return self._write_at(entry, data, offset)

    # ------------------------------------------------------------------ #
    # fd metadata
    # ------------------------------------------------------------------ #

    def fstat(self, fd):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.fstat(fd)
        self._count(True)
        return plfs_api.plfs_getattr(entry.plfs_fd)

    def fsync(self, fd):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.fsync(fd)
        self._count(True)
        plfs_api.plfs_sync(entry.plfs_fd)

    def fdatasync(self, fd):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            if self.real.fdatasync is None:  # pragma: no cover - platform
                return self.real.fsync(fd)
            return self.real.fdatasync(fd)
        self._count(True)
        plfs_api.plfs_sync(entry.plfs_fd)

    def ftruncate(self, fd, length):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.ftruncate(fd, length)
        self._count(True)
        if not 0 <= length <= _OFF_MAX or not entry.writable:
            raise _einval()
        plfs_api.plfs_trunc(entry.plfs_fd, length)

    def sendfile(self, out_fd, in_fd, offset, count, *args, **kwargs):
        if self.table.lookup(out_fd) is not None or self.table.lookup(in_fd) is not None:
            # Force callers (e.g. shutil's fast-copy path) onto their
            # ordinary read/write fallback; zero-copy cannot see PLFS data.
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        self._count(False)
        return self.real.sendfile(out_fd, in_fd, offset, count, *args, **kwargs)

    def copy_file_range(self, src, dst, count, offset_src=None, offset_dst=None):
        if self.table.lookup(src) is not None or self.table.lookup(dst) is not None:
            # Same story as sendfile: no in-kernel copies of PLFS data.
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
        self._count(False)
        return self.real.copy_file_range(src, dst, count, offset_src, offset_dst)

    def splice(self, src, dst, count, offset_src=None, offset_dst=None):
        if self.table.lookup(src) is not None or self.table.lookup(dst) is not None:
            # A PLFS fd's kernel descriptor is the shadow file; splicing it
            # would move shadow bytes, not logical data.  Refuse, forcing
            # callers onto an ordinary read/write loop the shim does see.
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        self._count(False)
        return self.real.splice(src, dst, count, offset_src, offset_dst)

    def fstatvfs(self, fd):
        entry = self.table.lookup(fd)
        if entry is None:
            self._count(False)
            return self.real.fstatvfs(fd)
        self._count(True)
        # Report the backend file system's numbers: capacity questions
        # about a PLFS file are questions about where the droppings live.
        return self.real.statvfs(entry.plfs_fd.path)

    def statvfs(self, path):
        resolved = self._resolve(path)
        if resolved is None:
            self._count(False)
            return self.real.statvfs(path)
        _, backend = resolved
        self._count(True)
        # The nearest existing ancestor answers for a path not made yet.
        probe = backend
        while True:
            try:
                return self.real.statvfs(probe)
            except FileNotFoundError:
                parent = os.path.dirname(probe)
                if parent == probe:
                    raise
                probe = parent

    # ------------------------------------------------------------------ #
    # links: PLFS containers cannot be hard-linked (they are directories
    # on the backend), and logical trees carry no symlinks
    # ------------------------------------------------------------------ #

    def link(self, src, dst, **kwargs):
        if self._resolve(src) is None and self._resolve(dst) is None:
            self._count(False)
            return self.real.link(src, dst, **kwargs)
        self._count(True)
        raise OSError(errno.EPERM, os.strerror(errno.EPERM), src)

    def symlink(self, src, dst, **kwargs):
        if self._resolve(dst) is None:
            self._count(False)
            return self.real.symlink(src, dst, **kwargs)
        self._count(True)
        raise OSError(errno.EPERM, os.strerror(errno.EPERM), dst)

    def readlink(self, path, **kwargs):
        if self._resolve(path) is None:
            self._count(False)
            return self.real.readlink(path, **kwargs)
        self._count(True)
        raise OSError(errno.EINVAL, os.strerror(errno.EINVAL), path)

    # ------------------------------------------------------------------ #
    # path metadata
    # ------------------------------------------------------------------ #

    def stat(self, path, *, dir_fd=None, follow_symlinks=True):
        if isinstance(path, int):
            return self.fstat(path)
        resolved = self._resolve(path) if dir_fd is None else None
        if resolved is None:
            self._count(False)
            return self.real.stat(path, dir_fd=dir_fd, follow_symlinks=follow_symlinks)
        return self._stat_resolved(path, resolved[1], follow_symlinks)

    def _stat_resolved(self, path, backend: str, follow_symlinks: bool):
        self._count(True)
        try:
            # Try first: reading the access file *is* the container check.
            return plfs_api.plfs_getattr(backend)
        except (NotAContainerError, ContainerNotFoundError):
            pass  # a directory, a plain file in the backend tree, or nothing
        try:
            return self.real.stat(backend, follow_symlinks=follow_symlinks)
        except (FileNotFoundError, NotADirectoryError):
            raise _enoent(path) from None

    def lstat(self, path, *, dir_fd=None):
        resolved = self._resolve(path) if dir_fd is None else None
        if resolved is None:
            self._count(False)
            return self.real.lstat(path, dir_fd=dir_fd)
        # No symlinks inside logical PLFS trees: lstat == stat.
        return self._stat_resolved(path, resolved[1], True)

    def access(self, path, amode, **kwargs):
        resolved = self._resolve(path) if not kwargs.get("dir_fd") else None
        if resolved is None:
            self._count(False)
            return self.real.access(path, amode, **kwargs)
        _, backend = resolved
        self._count(True)
        if amode & os.X_OK and is_container(backend):
            # The backend directory is searchable; the logical *file* is
            # executable only if its recorded mode bits say so.  The rest
            # (existence, R_OK, W_OK) is the container directory's answer.
            if not _may_execute(self.real.stat(backend), Container(backend).mode()):
                return False
            amode &= ~os.X_OK
        return self.real.access(backend, amode)

    def chmod(self, path, mode, **kwargs):
        resolved = self._resolve(path) if not kwargs.get("dir_fd") else None
        if resolved is None:
            self._count(False)
            return self.real.chmod(path, mode, **kwargs)
        _, backend = resolved
        self._count(True)
        if is_container(backend):
            with self.real.builtins_open(
                os.path.join(backend, constants.ACCESS_FILE), "wb", buffering=0
            ) as fh:
                fh.write(b"%o\n" % stat_module.S_IMODE(mode))
            return None
        return self.real.chmod(backend, mode)

    def utime(self, path, times=None, **kwargs):
        resolved = self._resolve(path) if not kwargs.get("dir_fd") else None
        if resolved is None:
            self._count(False)
            return self.real.utime(path, times, **kwargs)
        _, backend = resolved
        self._count(True)
        try:
            return self.real.utime(backend, times)
        except (FileNotFoundError, NotADirectoryError):
            raise _enoent(path) from None

    # ------------------------------------------------------------------ #
    # namespace operations
    # ------------------------------------------------------------------ #

    def unlink(self, path, *, dir_fd=None):
        resolved = self._resolve(path) if dir_fd is None else None
        if resolved is None:
            self._count(False)
            return self.real.unlink(path, dir_fd=dir_fd)
        _, backend = resolved
        self._count(True)
        try:
            return plfs_api.plfs_unlink(backend)
        except ContainerNotFoundError:
            raise _enoent(path) from None
        except NotAContainerError:
            pass  # a plain file inside the backend tree, or a directory
        try:
            return self.real.unlink(backend)
        except IsADirectoryError:
            raise _eisdir(path) from None

    # os.remove is the same function object as os.unlink in CPython, but we
    # expose a distinct alias in case callers saved one of them.
    remove = unlink

    def _rename_like(self, real_fn, src, dst):
        rsrc, rdst = self._resolve(src), self._resolve(dst)
        if rsrc is None and rdst is None:
            self._count(False)
            return real_fn(src, dst)
        self._count(True)
        if rsrc is None or rdst is None:
            # Crossing the PLFS mount boundary is crossing a device.
            raise _exdev(src, dst)
        _, bsrc = rsrc
        _, bdst = rdst
        try:
            return plfs_api.plfs_rename(bsrc, bdst)
        except ContainerNotFoundError:
            raise _enoent(src) from None
        except NotAContainerError:
            return real_fn(bsrc, bdst)

    def rename(self, src, dst, **kwargs):
        if kwargs.get("src_dir_fd") is not None or kwargs.get("dst_dir_fd") is not None:
            self._count(False)
            return self.real.rename(src, dst, **kwargs)
        return self._rename_like(self.real.rename, src, dst)

    def replace(self, src, dst, **kwargs):
        if kwargs.get("src_dir_fd") is not None or kwargs.get("dst_dir_fd") is not None:
            self._count(False)
            return self.real.replace(src, dst, **kwargs)
        return self._rename_like(self.real.replace, src, dst)

    def truncate(self, path, length):
        if isinstance(path, int):
            return self.ftruncate(path, length)
        resolved = self._resolve(path)
        if resolved is None:
            self._count(False)
            return self.real.truncate(path, length)
        _, backend = resolved
        self._count(True)
        if length < 0:
            raise _einval()
        if is_container(backend):
            return plfs_api.plfs_trunc(backend, length)
        try:
            return self.real.truncate(backend, length)
        except (FileNotFoundError, NotADirectoryError):
            raise _enoent(path) from None

    def mkdir(self, path, mode=0o777, *, dir_fd=None):
        resolved = self._resolve(path) if dir_fd is None else None
        if resolved is None:
            self._count(False)
            return self.real.mkdir(path, mode, dir_fd=dir_fd)
        _, backend = resolved
        self._count(True)
        return self.real.mkdir(backend, mode)

    def rmdir(self, path, *, dir_fd=None):
        resolved = self._resolve(path) if dir_fd is None else None
        if resolved is None:
            self._count(False)
            return self.real.rmdir(path, dir_fd=dir_fd)
        _, backend = resolved
        self._count(True)
        try:
            return rmdir_logical(backend)
        except PlfsError:
            raise _enotdir(path) from None

    def listdir(self, path="."):
        resolved = self._resolve(path) if not isinstance(path, int) else None
        if resolved is None:
            self._count(False)
            return self.real.listdir(path)
        _, backend = resolved
        self._count(True)
        return _readdir(path, backend)

    def scandir(self, path="."):
        resolved = self._resolve(path) if not isinstance(path, int) else None
        if resolved is None:
            self._count(False)
            return self.real.scandir(path)
        _, backend = resolved
        self._count(True)
        logical_root = os.fspath(path)
        return _PlfsScandirIterator(self, logical_root, backend)

    # ------------------------------------------------------------------ #
    # builtins.open
    # ------------------------------------------------------------------ #

    def builtin_open(
        self,
        file,
        mode="r",
        buffering=-1,
        encoding=None,
        errors=None,
        newline=None,
        closefd=True,
        opener=None,
    ):
        if isinstance(file, int) or opener is not None:
            if isinstance(file, int) and self.table.lookup(file) is not None:
                return self._wrap_fd(file, mode, buffering, encoding, errors, newline, closefd)
            self._count(False)
            return self.real.builtins_open(
                file, mode, buffering, encoding, errors, newline, closefd, opener
            )
        resolved = self._resolve(file)
        if resolved is None:
            self._count(False)
            return self.real.builtins_open(
                file, mode, buffering, encoding, errors, newline, closefd, opener
            )
        fd = self._open_resolved(file, resolved, _mode_to_flags(mode), 0o666)
        try:
            return self._wrap_fd(fd, mode, buffering, encoding, errors, newline, True)
        except Exception:
            self.close(fd)
            raise

    def _wrap_fd(self, fd, mode, buffering, encoding, errors, newline, closefd):
        binary = "b" in mode
        readable = any(c in mode for c in "r+") or "+" in mode
        writable = any(c in mode for c in "wax") or "+" in mode
        raw = _PlfsRawIO(self, fd, readable=readable, writable=writable, closefd=closefd)
        if buffering == 0:
            if not binary:
                raise ValueError("can't have unbuffered text I/O")
            return raw
        buffer_size = io.DEFAULT_BUFFER_SIZE if buffering in (-1, 1) else buffering
        if readable and writable:
            buffered: io.IOBase = io.BufferedRandom(raw, buffer_size)
        elif writable:
            buffered = io.BufferedWriter(raw, buffer_size)
        else:
            buffered = io.BufferedReader(raw, buffer_size)
        if binary:
            return buffered
        line_buffering = buffering == 1
        return io.TextIOWrapper(
            buffered, encoding, errors, newline, line_buffering=line_buffering
        )


def _mode_to_flags(mode: str) -> int:
    base = mode.replace("b", "").replace("t", "").replace("U", "")
    plus = "+" in base
    base = base.replace("+", "")
    if base == "r":
        flags = os.O_RDWR if plus else os.O_RDONLY
    elif base == "w":
        flags = (os.O_RDWR if plus else os.O_WRONLY) | os.O_CREAT | os.O_TRUNC
    elif base == "a":
        flags = (os.O_RDWR if plus else os.O_WRONLY) | os.O_CREAT | os.O_APPEND
    elif base == "x":
        flags = (os.O_RDWR if plus else os.O_WRONLY) | os.O_CREAT | os.O_EXCL
    else:
        raise ValueError(f"invalid mode: {mode!r}")
    return flags


class _PlfsRawIO(io.RawIOBase):
    """Raw I/O adapter over a shimmed descriptor, so the standard library's
    buffered/text layers (and therefore ``readline``, iteration, ``with``)
    work unmodified on PLFS files."""

    def __init__(self, shim: Shim, fd: int, *, readable: bool, writable: bool, closefd: bool = True):
        self._shim = shim
        self._fd = fd
        self._readable = readable
        self._writable = writable
        self._closefd = closefd
        self.name = shim.table.lookup(fd).logical_path if shim.table.lookup(fd) else fd

    def fileno(self) -> int:
        return self._fd

    def readable(self) -> bool:
        return self._readable

    def writable(self) -> bool:
        return self._writable

    def seekable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        return self._shim.readv(self._fd, [b])

    def write(self, b) -> int:
        return self._shim.write(self._fd, b)

    def seek(self, pos, whence=os.SEEK_SET) -> int:
        return self._shim.lseek(self._fd, pos, whence)

    def tell(self) -> int:
        return self._shim.lseek(self._fd, 0, os.SEEK_CUR)

    def truncate(self, size=None) -> int:
        if size is None:
            size = self.tell()
        self._shim.ftruncate(self._fd, size)
        return size

    def flush(self) -> None:
        if not self.closed and self._writable:
            self._shim.fsync(self._fd)

    def close(self) -> None:
        if not self.closed:
            try:
                # IOBase.close() flushes first, so the fd must still be
                # open when it runs; release the descriptor afterwards.
                super().close()
            finally:
                if self._closefd:
                    self._shim.close(self._fd)


class _PlfsDirEntry:
    """Minimal ``os.DirEntry`` stand-in for scandir over a mount."""

    __slots__ = ("name", "path", "_shim", "_backend")

    def __init__(self, shim: Shim, name: str, logical_dir: str, backend_dir: str):
        self.name = name
        self.path = os.path.join(logical_dir, name)
        self._shim = shim
        self._backend = os.path.join(backend_dir, name)

    def is_dir(self, *, follow_symlinks=True) -> bool:
        return classify(self._backend) == DIRECTORY

    def is_file(self, *, follow_symlinks=True) -> bool:
        return classify(self._backend) in (CONTAINER, FILE)

    def is_symlink(self) -> bool:
        return False

    def stat(self, *, follow_symlinks=True):
        return self._shim.stat(self.path)

    def inode(self) -> int:
        return self._shim.real.stat(self._backend).st_ino

    def __fspath__(self) -> str:
        return self.path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlfsDirEntry {self.name!r}>"


class _PlfsScandirIterator:
    """Context-manager iterator matching ``os.scandir``'s protocol."""

    def __init__(self, shim: Shim, logical_dir: str, backend_dir: str):
        self._entries = iter(
            _PlfsDirEntry(shim, name, logical_dir, backend_dir)
            for name in _readdir(logical_dir, backend_dir)
        )

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        self._entries = iter(())
