"""End-to-end preload scenarios: plfsrc files and leaked descriptors."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.core import config
from repro.plfs import is_container, plfs_getattr


def run_child(program: str, env_extra: dict[str, str]) -> None:
    env = dict(os.environ)
    env.update(env_extra)
    subprocess.run([sys.executable, "-c", program], env=env, check=True)


class TestPlfsrcActivation:
    def test_plfsrc_file_drives_preload(self, tmp_path):
        backend = tmp_path / "backend"
        mnt = tmp_path / "mnt"
        rc = tmp_path / "plfsrc"
        rc.write_text(f"mount_point {mnt}\nbackends {backend}\n")
        program = (
            "import repro.core.preload\n"
            f"open({str(mnt / 'via-rc.txt')!r}, 'w').write('rc works')\n"
        )
        run_child(
            program,
            {config.ENV_PRELOAD: "1", config.ENV_PLFSRC: str(rc), config.ENV_MOUNTS: ""},
        )
        assert is_container(str(backend / "via-rc.txt"))

    def test_leaked_fd_flushed_at_exit(self, tmp_path):
        """The atexit drain: an application that never closes its file
        must still leave a complete container behind (index flushed)."""
        backend = tmp_path / "backend"
        mnt = tmp_path / "mnt"
        program = (
            "import os, repro.core.preload\n"
            f"fd = os.open({str(mnt / 'leaky.dat')!r}, os.O_CREAT | os.O_WRONLY)\n"
            "os.write(fd, b'x' * 12345)\n"
            "# no close: process exits with the descriptor open\n"
        )
        run_child(
            program,
            {config.ENV_PRELOAD: "1", config.ENV_MOUNTS: f"{mnt}:{backend}"},
        )
        path = str(backend / "leaky.dat")
        assert is_container(path)
        assert plfs_getattr(path).st_size == 12345

    def test_two_mounts_same_process(self, tmp_path):
        mnt_a, mnt_b = tmp_path / "a", tmp_path / "b"
        be_a, be_b = tmp_path / "ba", tmp_path / "bb"
        program = (
            "import repro.core.preload\n"
            f"open({str(mnt_a / 'x')!r}, 'w').write('A')\n"
            f"open({str(mnt_b / 'y')!r}, 'w').write('B')\n"
        )
        run_child(
            program,
            {
                config.ENV_PRELOAD: "1",
                config.ENV_MOUNTS: f"{mnt_a}:{be_a},{mnt_b}:{be_b}",
            },
        )
        assert is_container(str(be_a / "x"))
        assert is_container(str(be_b / "y"))


def test_loading_the_thin_layer_does_not_load_the_simulator():
    """What a preloaded process pays at start-up is the interposition layer
    and PLFS — not the DES engine's clients, the cluster models or the
    tooling, which ``import repro`` used to pull in with it.  The import
    line is the ledger's own probe (``setup_s``)."""
    heavy = (
        "analysis cluster fs insights model mpiio workloads "
        "lint sanitize bench collective plfsd faults"
    )
    program = (
        "import sys\n"
        "import repro.core.interpose, repro.plfs.cache, repro.unixtools\n"
        f"heavy = tuple('repro.' + name for name in {heavy!r}.split())\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(heavy))\n"
        "assert not loaded, loaded\n"
        "import repro\n"
        "assert repro.workloads.__name__ == 'repro.workloads'  # still there on demand\n"
        "assert all(hasattr(repro, name) for name in repro.__all__)\n"
    )
    run_child(program, {})
