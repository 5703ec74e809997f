"""Programs nobody wrote for this repo: standard-library operations run on
a flat directory and on a mount must agree.

Each case is one operation, run first on a flat directory and then on a
mount, with the interposer installed throughout (as ``LD_PRELOAD`` would
have it).  An operation gets its side's root and a flat scratch directory
(``out``) for whatever leaves the tree.  The two sides must agree on what
the operation returned (or the error it raised), on a digest of each
tree (every name, size, byte and mode bit), and the backend may hold
nothing but containers and directories.  The run then passes
``MountEquivalence``'s leak gate.

A known gap is a strict ``xfail`` whose reason names its letter in
ROADMAP item 15.  The umask is held at 0 around every case so that each
case shows at most one gap; gap (e), the umask itself, has its own case.
"""

from __future__ import annotations

import filecmp
import glob
import gzip
import hashlib
import os
import shutil
import stat
import tarfile
import tempfile
import time
import zipfile
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.core.interpose import Interposer
from repro.plfs.container import is_container

from .test_equivalence import MountEquivalence

#: whole-second (atime, mtime) every source file is stamped with, so that
#: archive headers and copies do not depend on when a side ran
STAMP = (1_000_000_000, 1_234_567_890)
STAMP_NS = (1_000_000_000_123_456_789, 1_234_567_890_987_654_321)


@contextmanager
def two_sides():
    """A flat root and a mount root, each with a flat ``out`` directory."""
    base = tempfile.mkdtemp(prefix="ldplfs-corpus-")
    umask = os.umask(0)
    gate = SimpleNamespace(
        fds_before=set(os.listdir("/proc/self/fd")), backend=os.path.join(base, "backend")
    )
    sides = SimpleNamespace(
        flat=os.path.join(base, "flat"),
        flat_out=os.path.join(base, "flat-out"),
        mnt=os.path.join(base, "mnt"),
        mnt_out=os.path.join(base, "mnt-out"),
        backend=gate.backend,
    )
    for d in (sides.flat, sides.flat_out, sides.mnt_out, sides.backend):
        os.mkdir(d)
    ip = Interposer([(sides.mnt, sides.backend)]).install()
    clean = False
    try:
        yield sides
        clean = True
    finally:
        try:
            ip.drain()
            ip.uninstall()
            if clean:
                MountEquivalence.nothing_left_behind(gate)
        finally:
            os.umask(umask)
            shutil.rmtree(base, ignore_errors=True)


def outcome(op, root, out):
    """What *op* returned on one side, its paths made side-neutral; or the
    error it raised."""
    try:
        result = op(root, out)
    except OSError as exc:
        return ("raised", type(exc).__name__, exc.errno)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(exc).__name__)
    return neutral(result, root, out)


def neutral(value, root, out):
    if isinstance(value, str):
        return value.replace(out, "<out>").replace(root, "<root>")
    if isinstance(value, (list, tuple)):
        return type(value)(neutral(v, root, out) for v in value)
    return value


def tree(root) -> list:
    """Every directory and file under *root*: name, type, mode bits, size
    and a digest of the bytes."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        rel = os.path.relpath(dirpath, root)
        found.append((rel, "dir", stat.S_IMODE(os.stat(dirpath).st_mode)))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            info = os.stat(path)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            found.append((os.path.join(rel, name), stat.S_IFMT(info.st_mode),
                          stat.S_IMODE(info.st_mode), info.st_size, digest))
    return found


def escaped(backend) -> list:
    """Plain files in the backend outside every container: bytes a program
    wrote around the container layout."""
    found = []
    for dirpath, dirnames, filenames in os.walk(backend):
        if is_container(dirpath):
            dirnames[:] = []
            continue
        found += [os.path.join(dirpath, name) for name in filenames]
    return found


def put(path, data=b"", stamp=STAMP) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    os.utime(path, stamp)
    return path


@contextmanager
def still_clock():
    """gzip stamps its header with ``time.time()``: hold it still."""
    with mock.patch.object(time, "time", lambda: float(STAMP[1])):
        yield


# ---------------------------------------------------------------------- #
# the operations
# ---------------------------------------------------------------------- #

CASES: dict = {}
GAPS = {
    "b": "item 15 (b): a copy of an interposed function captured at import",
    "c": "item 15 (c): a file-touching os symbol with no row",
    "d": "item 15 (d): a dir_fd on a mount directory",
    "e": "item 15 (e): a mount ignores the umask when it records a new file's mode",
}


def case(gap=None):
    def register(op):
        marks = () if gap is None else pytest.mark.xfail(strict=True, reason=GAPS[gap])
        CASES[op.__name__] = pytest.param(op, id=op.__name__, marks=marks)
        return op
    return register


@case()
def copyfile(root, out):
    put(f"{root}/a", b"copy me" * 99)
    return shutil.copyfile(f"{root}/a", f"{root}/b")


@case()
def copy2_from_a_flat_source(root, out):
    put(f"{out}/src", b"from outside" * 50)
    dst = shutil.copy2(f"{out}/src", f"{root}/dst")
    return dst, os.path.getmtime(dst)


@case()
def copymode(root, out):
    os.chmod(put(f"{root}/a", b"a"), 0o640)
    put(f"{root}/b", b"b")
    shutil.copymode(f"{root}/a", f"{root}/b")
    return stat.S_IMODE(os.stat(f"{root}/b").st_mode)


@case()
def move(root, out):
    put(f"{root}/a", b"moving" * 10)
    os.mkdir(f"{root}/sub")
    return shutil.move(f"{root}/a", f"{root}/sub/b")


@case()
def filecmp_cmp(root, out):
    put(f"{root}/a", b"same" * 64)
    put(f"{root}/b", b"same" * 64)
    put(f"{root}/c", b"diff" * 64)
    return (filecmp.cmp(f"{root}/a", f"{root}/b", shallow=False),
            filecmp.cmp(f"{root}/a", f"{root}/c", shallow=False))


@case()
def hashlib_file_digest(root, out):
    put(f"{root}/a", bytes(range(256)) * 300)
    with open(f"{root}/a", "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


@case()
def tarfile_gz(root, out):
    # the members are flat: ``tar.add`` reads them with ``bltn_open``, gap (b)
    put(f"{out}/a", b"tar me" * 500)
    put(f"{out}/b", b"and me")
    with still_clock(), tarfile.open(f"{root}/t.tgz", "w:gz") as tar:
        tar.add(f"{out}/a", arcname="a")
        tar.add(f"{out}/b", arcname="b")
    with tarfile.open(f"{root}/t.tgz", "r:gz") as tar:
        return [(m.name, m.size, tar.extractfile(m).read()) for m in tar.getmembers()]


@case()
def zipfile_write(root, out):
    put(f"{root}/a", b"zip me" * 400)
    with zipfile.ZipFile(f"{root}/z.zip", "w", zipfile.ZIP_DEFLATED) as zf:
        zf.write(f"{root}/a", "a")
    return os.path.getsize(f"{root}/z.zip")


@case()
def zipfile_append(root, out):
    put(f"{root}/a", b"first" * 100)
    put(f"{root}/b", b"second" * 100)
    with zipfile.ZipFile(f"{root}/z.zip", "w") as zf:
        zf.write(f"{root}/a", "a")
    with zipfile.ZipFile(f"{root}/z.zip", "a") as zf:
        zf.write(f"{root}/b", "b")
    return os.path.getsize(f"{root}/z.zip")


@case()
def zipfile_read(root, out):
    put(f"{root}/a", b"read me back" * 100)
    with zipfile.ZipFile(f"{root}/z.zip", "w", zipfile.ZIP_DEFLATED) as zf:
        zf.write(f"{root}/a", "a")
    with zipfile.ZipFile(f"{root}/z.zip") as zf:
        return zf.namelist(), zf.read("a"), zf.testzip()


@case()
def gzip_roundtrip(root, out):
    with gzip.GzipFile(f"{root}/g.gz", "wb", mtime=0) as fh:
        fh.write(b"squeeze" * 1000)
    with gzip.open(f"{root}/g.gz", "rb") as fh:
        return fh.read()


@case()
def glob_recursive(root, out):
    os.mkdir(f"{root}/sub")
    for name in ("a.txt", "b.dat", "sub/c.txt"):
        put(f"{root}/{name}", name.encode())
    return sorted(glob.glob(f"{root}/**/*.txt", recursive=True))


@case()
def append_mode_text(root, out):
    for line in ("one\n", "two\n", "three\n"):
        with open(f"{root}/log.txt", "a") as fh:
            fh.write(line)
    with open(f"{root}/log.txt") as fh:
        return fh.read()


@case()
def seek_and_write(root, out):
    put(f"{root}/a", b"0123456789" * 10)
    with open(f"{root}/a", "r+b") as fh:
        fh.seek(42)
        fh.write(b"XYZ")
        fh.seek(0)
        return fh.read()


@case()
def truncate(root, out):
    put(f"{root}/a", b"0123456789" * 10)
    os.truncate(f"{root}/a", 7)
    with open(f"{root}/a", "r+b") as fh:
        fh.truncate(20)
    return os.path.getsize(f"{root}/a")


@case()
def utime_ns(root, out):
    put(f"{root}/a", b"a")
    os.utime(f"{root}/a", ns=STAMP_NS)
    info = os.stat(f"{root}/a")
    return info.st_atime_ns, info.st_mtime_ns


@case()
def getmtime_to_the_second(root, out):
    put(f"{root}/a", b"a")
    return int(os.path.getmtime(f"{root}/a"))


@case()
def stat_size_and_mode(root, out):
    os.chmod(put(f"{root}/a", b"x" * 1234), 0o640)
    info = os.stat(f"{root}/a")
    return info.st_size, stat.S_IMODE(info.st_mode), stat.S_IFMT(info.st_mode)


@case()
def rmtree(root, out):
    os.makedirs(f"{root}/d/e")
    put(f"{root}/d/a", b"a" * 10)
    put(f"{root}/d/e/b", b"b" * 20)
    shutil.rmtree(f"{root}/d")
    return os.path.exists(f"{root}/d")


@case(gap="c")  # copystat lists the source's extended attributes
def copy2_from_a_mount_source(root, out):
    put(f"{root}/a", b"leaving" * 70)
    return shutil.copy2(f"{root}/a", f"{out}/a")


@case(gap="c")  # as copy2, for every file it copies
def copytree_from_a_mount_source(root, out):
    os.makedirs(f"{root}/d/e")
    put(f"{root}/d/a", b"a" * 10)
    put(f"{root}/d/e/b", b"b" * 20)
    return shutil.copytree(f"{root}/d", f"{out}/d")


@case(gap="b")  # tarfile.bltn_open
def tarfile_plain(root, out):
    put(f"{out}/a", b"tar me" * 500)
    with tarfile.open(f"{root}/t.tar", "w") as tar:
        tar.add(f"{out}/a", arcname="a")
    return os.path.getsize(f"{root}/t.tar")


@case(gap="b")  # _TemporaryFileCloser.close's unlink default
def named_temporary_file(root, out):
    with tempfile.NamedTemporaryFile(dir=root) as fh:
        fh.write(b"scratch")
    return os.listdir(root)


@case(gap="c")
def chown(root, out):
    put(f"{root}/a", b"a")
    os.chown(f"{root}/a", os.getuid(), os.getgid())
    return os.stat(f"{root}/a").st_uid


@case(gap="c")
def listxattr(root, out):
    return os.listxattr(put(f"{root}/a", b"a"))


@case(gap="c")
def chdir(root, out):
    here = os.getcwd()
    os.chdir(root)
    try:
        put("a", b"relative")
        return os.path.getsize("a")
    finally:
        os.chdir(here)


@case(gap="d")
def open_creat_with_dir_fd(root, out):
    d = os.open(root, os.O_RDONLY)
    try:
        fd = os.open("a", os.O_CREAT | os.O_WRONLY, 0o644, dir_fd=d)
        os.write(fd, b"through a directory descriptor")
        os.close(fd)
    finally:
        os.close(d)
    return sorted(os.listdir(root))


@case(gap="e")
def created_under_a_umask(root, out):
    previous = os.umask(0o022)
    try:
        put(f"{root}/a", b"a")
    finally:
        os.umask(previous)
    return stat.S_IMODE(os.stat(f"{root}/a").st_mode)


@pytest.mark.parametrize("op", CASES.values())
def test_an_operation_agrees_with_a_flat_directory(op):
    with two_sides() as s:
        expected = outcome(op, s.flat, s.flat_out)
        assert outcome(op, s.mnt, s.mnt_out) == expected
        assert tree(s.mnt) == tree(s.flat)
        assert tree(s.mnt_out) == tree(s.flat_out)
        assert escaped(s.backend) == []


# ---------------------------------------------------------------------- #
# item 15 (a): a stat of a mount path is a whole stat_result
# ---------------------------------------------------------------------- #

STAT_FIELDS = [name for name in dir(os.stat_result) if name.startswith("st_")]
TIME_FIELDS = [name for name in STAT_FIELDS if "time" in name]


def stats(path):
    """Every way a program stats one file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        by_fd = os.fstat(fd)
    finally:
        os.close(fd)
    with os.scandir(os.path.dirname(path)) as entries:
        entry = next(e for e in entries if e.name == os.path.basename(path))
        return {"stat": os.stat(path), "lstat": os.lstat(path), "fstat": by_fd,
                "scandir": entry.stat()}


class TestStatResult:
    def test_every_field_the_flat_file_has(self):
        with two_sides() as s:
            flat = stats(put(f"{s.flat}/a", b"a" * 100))
            mount = stats(put(f"{s.mnt}/a", b"a" * 100))
            for call, info in mount.items():
                missing = [name for name in STAT_FIELDS
                           if getattr(info, name) is None and getattr(flat[call], name) is not None]
                assert missing == [], call

    def test_the_times_are_the_container_directorys_to_the_nanosecond(self):
        with two_sides() as s:
            put(f"{s.mnt}/a", b"a")
            os.utime(f"{s.mnt}/a", ns=STAMP_NS)
            container = os.stat(f"{s.backend}/a")  # not under the mount: the real stat
            for call, info in stats(f"{s.mnt}/a").items():
                assert [getattr(info, name) for name in TIME_FIELDS] == [
                    getattr(container, name) for name in TIME_FIELDS], call
                assert info.st_mtime_ns == STAMP_NS[1]

    def test_copystat_times_from_a_mount_source(self):
        """What ``shutil.copy2`` does to the copy's times, by hand: its next
        step, copying extended attributes, is gap (c)."""
        with two_sides() as s:
            src = put(f"{s.mnt}/a", b"a" * 10)
            os.utime(src, ns=STAMP_NS)
            dst = shutil.copyfile(src, f"{s.mnt_out}/a")
            info = os.stat(src)
            os.utime(dst, ns=(info.st_atime_ns, info.st_mtime_ns))
            assert os.stat(dst).st_mtime_ns == STAMP_NS[1]
