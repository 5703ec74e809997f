"""PLFS container management.

A *container* is the backend representation of one logical PLFS file: a
directory whose presence is flagged by the access file, holding hostdir
buckets of data/index droppings plus metadata droppings (Fig. 1 of the
paper).  This module creates, identifies, enumerates and destroys
containers; the read/write data paths live in :mod:`repro.plfs.reader` and
:mod:`repro.plfs.writer`.
"""

from __future__ import annotations

import hashlib
import os
import stat as stat_module
import threading
from dataclasses import dataclass
from typing import NamedTuple

from . import backing, constants, util
from .errors import (
    ContainerExistsError,
    ContainerNotFoundError,
    IsAContainerError,
    NotAContainerError,
)
from .route import posix

#: What a backend path is, as :func:`classify` answers it.
ABSENT, FILE, DIRECTORY, CONTAINER = range(4)


#: Write handles this process holds per ``openhosts/`` marker path.  The
#: marker is named ``host.pid``, so every handle one process opens on a
#: container shares one file; it must outlive all of them but the last.
_marker_refs: dict[str, int] = {}
_marker_lock = threading.Lock()


@dataclass(frozen=True)
class MetaDropping:
    """Parsed ``meta/<last_offset>.<total_bytes>.<host>`` file name."""

    last_offset: int
    total_bytes: int
    host: str


class DroppingMark(NamedTuple):
    """What the epoch's ``stat``s saw of one dropping pair — enough to tell
    an append to the index dropping from every other change to it.  An
    identity is ``(st_dev, st_ino)``, or None for a file that is not there."""

    index_id: tuple[int, int] | None
    index_size: int
    data_id: tuple[int, int] | None


class Droppings(list):
    """One listing of a container: its ``(index_path, data_path)`` pairs,
    in order, and what the same root ``listdir`` showed beside them."""

    #: a compacted ``global.index`` stood in the container root
    compacted = False


def is_container(path: str) -> bool:
    """True if *path* is a PLFS container directory."""
    return posix.isfile(os.path.join(path, constants.ACCESS_FILE))


def classify(path: str) -> int:
    """What *path* is: :data:`CONTAINER`, :data:`DIRECTORY`, :data:`FILE`
    (anything else that exists) or :data:`ABSENT` — in one ``stat`` (of
    the access file) for a container, two for everything else."""
    if is_container(path):
        return CONTAINER
    try:
        mode = posix.stat(path).st_mode
    except (OSError, ValueError):
        return ABSENT
    return DIRECTORY if stat_module.S_ISDIR(mode) else FILE


def assert_container(path: str) -> None:
    kind = classify(path)
    if kind == ABSENT:
        raise ContainerNotFoundError(f"no such container: {path}")
    if kind != CONTAINER:
        raise NotAContainerError(f"not a PLFS container: {path}")


class Container:
    """Handle on one container directory (may not exist yet)."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)

    # ------------------------------------------------------------------ #
    # creation / identification
    # ------------------------------------------------------------------ #

    def exists(self) -> bool:
        return is_container(self.path)

    def create(self, mode: int = 0o644, *, exclusive: bool = False, pid: int = 0) -> None:
        """Create the container skeleton (idempotent unless *exclusive*).

        Layout created:  ``<path>/{access file, creator, openhosts/, meta/}``.
        ``hostdir.N`` buckets are created lazily by writers.

        Creation is *atomic*: the skeleton is built under a temporary name
        and renamed into place, so no concurrent opener ever observes a
        half-built container (the C library takes the same
        build-then-rename approach for exactly this race).  Losing the
        rename race to another creator is not an error unless
        *exclusive*.
        """
        kind = classify(self.path)
        if kind == DIRECTORY and self.exists():
            # a creator elsewhere renamed its skeleton in between classify()'s two looks
            kind = CONTAINER
        if kind == CONTAINER:
            if exclusive:
                raise ContainerExistsError(f"container exists: {self.path}")
            return
        if kind != ABSENT:
            raise NotAContainerError(
                f"path exists and is not a container: {self.path}"
            )
        self._build(mode, exclusive, pid)

    def _build(self, mode: int, exclusive: bool, pid: int) -> None:
        """:meth:`create`, for a caller that just saw the path absent."""
        tmp = f"{self.path}.plfs_mkdir.{util.hostname()}.{os.getpid()}"
        try:
            posix.mkdir(tmp)
        except FileNotFoundError:  # the parent is not there yet
            posix.ensure_dir(os.path.dirname(self.path))
            posix.mkdir(tmp)
        posix.mkdir(os.path.join(tmp, constants.OPENHOSTS_DIR))
        posix.mkdir(os.path.join(tmp, constants.META_DIR))
        # The bookkeeping files are a few bytes each: written raw, they
        # pay for no text layer and no buffer (one ``write`` each).
        with posix.builtins_open(
            os.path.join(tmp, constants.CREATOR_FILE), "wb", buffering=0
        ) as fh:
            fh.write(
                f"version={constants.FORMAT_VERSION}\n"
                f"host={util.hostname()}\npid={pid}\n"
                f"ctime={util.unique_timestamp():.9f}\n".encode()
            )
        # The access file stores the logical file's mode bits; writing it
        # last inside tmp means a renamed container is always complete.
        with posix.builtins_open(
            os.path.join(tmp, constants.ACCESS_FILE), "wb", buffering=0
        ) as fh:
            fh.write(b"%o\n" % mode)
        try:
            posix.rename(tmp, self.path)
        except OSError:
            # Lost the race: another creator renamed first (the target is
            # now a non-empty directory).  Their container serves.
            posix.rmtree(tmp, ignore_errors=True)
            if self.exists():
                if exclusive:
                    raise ContainerExistsError(
                        f"container exists: {self.path}"
                    ) from None
                return
            raise

    def mode(self) -> int:
        """Logical file mode bits recorded at create time (reading the
        access file *is* the container check)."""
        try:
            with posix.builtins_open(
                os.path.join(self.path, constants.ACCESS_FILE), "rb", buffering=0
            ) as fh:
                return int(fh.read().strip() or b"644", 8)
        except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
            assert_container(self.path)
            raise

    # ------------------------------------------------------------------ #
    # hostdirs and droppings
    # ------------------------------------------------------------------ #

    def hostdir_path(self, host: str | None = None) -> str:
        host = host or util.hostname()
        bucket = util.hostdir_bucket(host)
        return os.path.join(self.path, f"{constants.HOSTDIR_PREFIX}{bucket}")

    def ensure_hostdir(self, host: str | None = None) -> str:
        path = self.hostdir_path(host)
        posix.ensure_dir(path)
        return path

    def droppings(self) -> Droppings:
        """All (index_path, data_path) dropping pairs, deterministically
        ordered (by hostdir bucket then dropping name).  The root
        listing doubles as the container check, and as the look for a
        compacted index: nothing need probe for what it did not show."""
        pairs = Droppings()
        try:
            entries = sorted(posix.listdir(self.path))
        except (FileNotFoundError, NotADirectoryError):
            entries = []
        if constants.ACCESS_FILE not in entries:
            assert_container(self.path)
        pairs.compacted = constants.GLOBAL_INDEX_FILE in entries
        for entry in entries:
            if not entry.startswith(constants.HOSTDIR_PREFIX):
                continue
            hostdir = os.path.join(self.path, entry)
            try:
                names = sorted(posix.listdir(hostdir))
            except NotADirectoryError:
                continue
            for name in names:
                if name.startswith(constants.DATA_PREFIX):
                    data_path = os.path.join(hostdir, name)
                    index_path = os.path.join(
                        hostdir, util.index_name_for_data(name)
                    )
                    pairs.append((index_path, data_path))
        return pairs

    def hostdirs(self) -> list[str]:
        """Paths of the container's existing ``hostdir.N`` buckets."""
        try:
            entries = sorted(posix.listdir(self.path))
        except FileNotFoundError:
            return []
        out = []
        for entry in entries:
            if entry.startswith(constants.HOSTDIR_PREFIX):
                p = os.path.join(self.path, entry)
                if posix.isdir(p):
                    out.append(p)
        return out

    # ------------------------------------------------------------------ #
    # container epoch and the persistent compacted global index
    # ------------------------------------------------------------------ #

    def global_index_path(self) -> str:
        """Backend path of the persistent compacted global index."""
        return os.path.join(self.path, constants.GLOBAL_INDEX_FILE)

    def index_epoch(self, droppings: list[tuple[str, str]] | None = None) -> str:
        """Fingerprint of the container's dropping state.

        The epoch folds in the dropping count plus every index/data
        dropping's name, size and mtime, so *any* state a reader's global
        index depends on — a new dropping, a data append, an index flush,
        an fsck repair — changes it.  Both the compacted global index and
        the process-wide shared index cache are validated against the
        epoch; computing it costs two ``stat`` calls per dropping, which
        is the whole point: cheap compared to re-reading and re-merging
        every index dropping.
        """
        return self.index_state(droppings)[0]

    def index_state(
        self, droppings: list[tuple[str, str]] | None = None
    ) -> tuple[str, list[DroppingMark]]:
        """:meth:`index_epoch` plus, from the same pass of ``stat``s, one
        :class:`DroppingMark` per dropping: what a cached index remembers
        so that a later epoch can be reached by reading only the tails."""
        pairs = self.droppings() if droppings is None else droppings
        h = hashlib.sha1()
        h.update(str(len(pairs)).encode())

        def fold(path: str) -> tuple[tuple[int, int] | None, int]:
            name = os.path.basename(path)
            try:
                st = posix.stat(path)
            except FileNotFoundError:
                h.update(f"|{name}:missing".encode())
                return None, 0
            h.update(f"|{name}:{st.st_size}:{st.st_mtime_ns}".encode())
            return (st.st_dev, st.st_ino), st.st_size

        marks = []
        for index_path, data_path in pairs:
            index_id, index_size = fold(index_path)
            marks.append(DroppingMark(index_id, index_size, fold(data_path)[0]))
        return h.hexdigest(), marks

    # ------------------------------------------------------------------ #
    # cross-process generation protocol
    # ------------------------------------------------------------------ #

    def generation_path(self) -> str:
        """Backend path of the per-container generation file."""
        return os.path.join(self.path, constants.GENERATION_FILE)

    def bump_generation(self) -> None:
        """Signal readers in other processes that the container changed.

        Create-then-rename, so the generation file atomically gets a fresh
        inode and mtime, and the replaced one loses its last link: a reader
        holds that one open since its index was built, and one ``fstat``
        showing ``st_nlink == 0`` is exactly a changed ``(inode, mtime_ns)``
        token (with none to hold, it probes the path).  The file is empty:
        its identity is the signal.  The protocol is purely
        advisory — a full backend or read-only medium just loses the fast
        cross-process staleness check, so failures are swallowed — and the
        in-process shared cache (validated by the container epoch) remains
        the correctness authority.
        """
        gen = self.generation_path()
        tmp = f"{gen}.tmp.{os.getpid()}"
        try:
            posix.builtins_open(tmp, "wb", buffering=0).close()
            posix.replace(tmp, gen)
        except OSError:
            try:
                posix.unlink(tmp)
            except OSError:
                pass

    def generation_token(self) -> tuple[int, int] | None:
        """Current ``(inode, mtime_ns)`` of the generation file, or None
        when the container has never been written through the generation
        protocol (or the file is unreadable)."""
        try:
            st = posix.stat(self.generation_path())
        except OSError:
            return None
        return (st.st_ino, st.st_mtime_ns)

    def drop_global_index(self) -> bool:
        """Delete the compacted global index if present (it is a cache:
        deleting it only re-routes readers onto the slow merge path)."""
        try:
            posix.unlink(self.global_index_path())
            return True
        except FileNotFoundError:
            return False

    def restore_skeleton(self) -> list[str]:
        """Recreate missing skeleton entries (``openhosts/``, ``meta/``).

        A backend directory losing metadata (the dropped-``hostdir.N``
        failure class) can take the bookkeeping directories with it; they
        carry no unrecoverable state, so recovery is recreation.  Returns
        the restored relative names.
        """
        assert_container(self.path)
        restored = []
        for name in (constants.OPENHOSTS_DIR, constants.META_DIR):
            p = os.path.join(self.path, name)
            if not posix.isdir(p):
                posix.ensure_dir(p)
                restored.append(name)
        return restored

    def physical_bytes(self) -> int:
        """Total bytes stored in data droppings (>= logical size when there
        are overwrites; the gap measures log garbage)."""
        total = 0
        for _, data_path in self.droppings():
            try:
                total += posix.getsize(data_path)
            except FileNotFoundError:
                pass
        return total

    # ------------------------------------------------------------------ #
    # open-host bookkeeping and cached metadata
    # ------------------------------------------------------------------ #

    def _openhost_marker(self, pid: int, host: str | None = None) -> str:
        host = host or util.hostname()
        return os.path.join(
            self.path, constants.OPENHOSTS_DIR, f"{host}.{pid}"
        )

    def register_open(self, pid: int, host: str | None = None) -> None:
        marker = self._openhost_marker(pid, host)
        stamp = b"%.9f\n" % util.unique_timestamp()
        with _marker_lock:
            held = _marker_refs.get(marker, 0)
            if held and not posix.exists(marker):
                # Recovery swept the marker: the handles counted so far
                # were declared dead and will never unregister.
                held = 0
            try:
                fh = posix.builtins_open(marker, "wb", buffering=0)
            except FileNotFoundError:  # ``openhosts/`` lost: it holds no state
                posix.ensure_dir(os.path.dirname(marker))
                fh = posix.builtins_open(marker, "wb", buffering=0)
            with fh:
                fh.write(stamp)
            _marker_refs[marker] = held + 1

    def unregister_open(self, pid: int, host: str | None = None) -> None:
        """Drop one handle's claim; the last one out removes the marker."""
        marker = self._openhost_marker(pid, host)
        with _marker_lock:
            held = _marker_refs.pop(marker, 1) - 1
            if held > 0:
                _marker_refs[marker] = held
                return
            try:
                posix.unlink(marker)
            except FileNotFoundError:
                pass

    def open_writers(self) -> list[str]:
        """Names of openhost markers currently present."""
        d = os.path.join(self.path, constants.OPENHOSTS_DIR)
        try:
            return sorted(posix.listdir(d))
        except FileNotFoundError:
            return []

    def drop_meta(self, last_offset: int, total_bytes: int, host: str | None = None) -> None:
        """Record cached size metadata at close time (``meta/`` dropping)."""
        host = host or util.hostname()
        d = os.path.join(self.path, constants.META_DIR)
        path = os.path.join(d, f"{last_offset}.{total_bytes}.{host}")
        try:
            backing.current().create_meta(path)
        except FileNotFoundError:
            posix.ensure_dir(d)  # ``meta/`` went missing: see register_open
            backing.current().create_meta(path)

    def meta_droppings(self) -> list[MetaDropping]:
        d = os.path.join(self.path, constants.META_DIR)
        out: list[MetaDropping] = []
        try:
            names = posix.listdir(d)
        except FileNotFoundError:
            return out
        for name in names:
            parts = name.split(".", 2)
            if len(parts) != 3:
                continue
            try:
                out.append(MetaDropping(int(parts[0]), int(parts[1]), parts[2]))
            except ValueError:
                continue
        return out

    def clear_meta(self) -> None:
        d = os.path.join(self.path, constants.META_DIR)
        try:
            for name in posix.listdir(d):
                try:
                    posix.unlink(os.path.join(d, name))
                except FileNotFoundError:
                    pass
        except FileNotFoundError:
            pass

    def cached_size(self) -> int | None:
        """Logical size from meta droppings, or None if it cannot be trusted
        (open writers present, or no meta recorded)."""
        if self.open_writers():
            return None
        metas = self.meta_droppings()
        if not metas:
            return None
        return max(m.last_offset for m in metas)

    # ------------------------------------------------------------------ #
    # attributes and whole-container operations
    # ------------------------------------------------------------------ #

    def getattr(self, *, size: int | None = None) -> os.stat_result:
        """A ``stat``-like result describing the *logical* file.

        ``size`` lets callers that already computed the logical size (via a
        :class:`~repro.plfs.index.GlobalIndex`) avoid a second index build.
        """
        mode = stat_module.S_IFREG | self.mode()
        st = posix.stat(self.path)
        if size is None:
            size = self.cached_size()
            if size is None:
                from .reader import logical_size  # local import: avoid cycle

                size = logical_size(self)
        return os.stat_result(
            (
                mode,
                st.st_ino,
                st.st_dev,
                1,
                st.st_uid,
                st.st_gid,
                size,
                int(st.st_atime),
                int(st.st_mtime),
                int(st.st_ctime),
            )
        )

    def unlink(self) -> None:
        """Remove the container (the logical file) entirely."""
        assert_container(self.path)
        posix.rmtree(self.path)

    def wipe_data(self) -> None:
        """Drop all data (truncate to zero): remove droppings, meta and the
        compacted global index (which described the removed droppings)."""
        assert_container(self.path)
        for entry in posix.listdir(self.path):
            if entry.startswith(constants.HOSTDIR_PREFIX):
                posix.rmtree(os.path.join(self.path, entry), ignore_errors=True)
        self.clear_meta()
        self.drop_global_index()
        self.bump_generation()

    def rename(self, new_path: str) -> "Container":
        assert_container(self.path)
        try:
            posix.rename(self.path, new_path)
        except OSError:
            # The one non-empty directory a logical rename replaces.
            if not is_container(new_path):
                raise
            posix.rmtree(new_path)
            posix.rename(self.path, new_path)
        return Container(new_path)


def readdir_logical(path: str) -> list[str]:
    """List a logical directory: containers appear as plain file names.

    *path* is a backend directory; entries that are containers are logical
    files, other directories are logical directories, plain files pass
    through (they are legal inside a PLFS tree: apps may mix).
    """
    if is_container(path):
        raise NotAContainerError(f"is a logical file, not a directory: {path}")
    return sorted(posix.listdir(path))


def rmdir_logical(path: str) -> None:
    """Remove a logical directory; refuses to remove containers."""
    if is_container(path):
        raise IsAContainerError(f"is a logical file: {path}")
    posix.rmdir(path)
