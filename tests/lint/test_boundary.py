"""Where "without application modification" ends: one test per bypass rule.

Each LDP1xx rule that claims a divergence runs its fixture's program
shape twice — on a flat directory, and on a mount under an installed
``Interposer`` — and asserts the divergence its finding's detail states:
a different outcome, different bytes or a different errno.  A rule whose
divergence cannot be shown does not stay in the catalogue (DESIGN §5
decision 21); ``test_rules.TestCensus`` holds every script rule to that,
by the rule ID in each test's name.
"""

from __future__ import annotations

import errno
import io
import mmap
import os
import subprocess
import sys

import pytest

from repro.core import config
from repro.core.interpose import interposed

PAYLOAD = b"HEADbody"


def outcome(shape, root):
    """``("ok", value)``, ``("errno", name)`` or ``(exception type name,)``."""
    try:
        return "ok", shape(root)
    except OSError as exc:
        return "errno", errno.errorcode[exc.errno]
    except Exception as exc:  # noqa: BLE001 - the divergence is the type
        return (type(exc).__name__,)


@pytest.fixture
def roots(tmp_path):
    flat, backend = tmp_path / "flat", tmp_path / "backend"
    flat.mkdir()
    backend.mkdir()
    return str(flat), str(tmp_path / "mnt"), str(backend)


@pytest.fixture
def sides(roots):
    """Run one program shape flat, then on a mount: (flat, mount) outcomes."""
    flat, mount, backend = roots

    def run(shape):
        flat_side = outcome(shape, flat)
        with interposed([(mount, backend)]):
            return flat_side, outcome(shape, mount)

    return run


def write_file(path: str, data: bytes = PAYLOAD) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def test_ldp101_mmap_of_a_mount_descriptor_misses_the_container(sides):
    def shape(root):
        path = write_file(os.path.join(root, "state.bin"))
        with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), 0) as m:
            return m[:4]

    # the descriptor is the shadow's, an empty file: nothing to map
    assert sides(shape) == (("ok", b"HEAD"), ("ValueError",))


def test_ldp102_the_shim_refuses_sendfile(sides):
    def shape(root):
        src = os.open(write_file(os.path.join(root, "src.dat")), os.O_RDONLY)
        dst = os.open(os.path.join(root, "dst.dat"), os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            return os.sendfile(dst, src, 0, 1 << 20)
        finally:
            os.close(src)
            os.close(dst)

    assert sides(shape) == (("ok", len(PAYLOAD)), ("errno", "EINVAL"))


def test_ldp103_a_child_given_a_logical_path_cannot_open_it(sides):
    def shape(root):
        path = write_file(os.path.join(root, "results.dat"))
        child = subprocess.run(
            [sys.executable, "-c", f"print(open({path!r}).read())"],
            capture_output=True, text=True,
        )
        return child.returncode, child.stdout.strip()

    assert sides(shape) == (("ok", (0, PAYLOAD.decode())), ("ok", (1, "")))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_ldp104_descriptors_are_neither_dense_nor_adjacent_on_a_mount(sides):
    def shape(root):
        before = len(os.listdir("/proc/self/fd"))
        fd = os.open(os.path.join(root, "scratch.dat"), os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, b"x")
            return len(os.listdir("/proc/self/fd")) - before
        finally:
            os.close(fd)

    # flat, one open is one descriptor; on a mount the shadow comes with
    # the droppings' descriptors, so ``fd + 1`` names one of PLFS's own
    flat, mount = sides(shape)
    assert flat == ("ok", 1)
    assert mount[0] == "ok" and mount[1] > 1


def test_ldp105_a_write_copied_at_import_time_misses_the_container(sides):
    copies: dict = {}
    exec("from os import write", copies)  # the flagged line, run before install()

    def shape(root):
        path = os.path.join(root, "cap.dat")
        fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
        copies["write"](fd, PAYLOAD)
        os.close(fd)
        with open(path, "rb") as fh:
            return fh.read()

    # the copy writes to the shadow descriptor: the container stays empty
    assert sides(shape) == (("ok", PAYLOAD), ("ok", b""))


def test_ldp106_a_fileio_object_misses_the_container(sides):
    def on_a_descriptor(root):
        path = os.path.join(root, "log.txt")
        fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
        with io.FileIO(fd, "wb", closefd=False) as fh:
            fh.write(PAYLOAD)
        os.close(fd)
        with open(path, "rb") as fh:
            return fh.read()

    def on_a_path(root):
        with io.FileIO(write_file(os.path.join(root, "in.dat"))) as fh:
            return fh.read()

    assert sides(on_a_descriptor) == (("ok", PAYLOAD), ("ok", b""))
    assert sides(on_a_path) == (("ok", PAYLOAD), ("errno", "ENOENT"))


def test_ldp109_a_handle_open_at_exit_loses_its_index(roots):
    flat, mount, backend = roots
    preload = {config.ENV_PRELOAD: "1", config.ENV_MOUNTS: f"{mount}:{backend}"}

    def child_writes(root, close, env):
        program = (
            "import os, repro.core.preload\n"
            f"fh = open({os.path.join(root, 'out.dat')!r}, 'wb')\n"
            f"fh.write({PAYLOAD!r})\n"
            "fh.flush()\n"
            + ("fh.close()\n" if close else "")
            + "os._exit(0)\n"
        )
        subprocess.run([sys.executable, "-c", program], env={**os.environ, **env}, check=True)
        with interposed([(mount, backend)]):
            with open(os.path.join(root, "out.dat"), "rb") as fh:
                return fh.read()

    assert child_writes(flat, close=False, env={}) == PAYLOAD
    # the data dropping holds the bytes, but no index record names them
    assert child_writes(mount, close=False, env=preload) == b""
    assert child_writes(mount, close=True, env=preload) == PAYLOAD
