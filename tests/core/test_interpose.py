"""Tests for install/uninstall mechanics and env-driven activation."""

from __future__ import annotations

import builtins
import os
import subprocess
import sys

import pytest

from repro.core import config, interpose
from repro.core.interpose import Interposer, interposed
from repro.plfs.route import INTERPOSED


@pytest.fixture
def pair(tmp_path):
    return str(tmp_path / "mnt"), str(tmp_path / "backend")


class TestInstallLifecycle:
    def test_install_patches_and_uninstall_restores(self, pair):
        orig_open, orig_os_open = builtins.open, os.open
        ip = Interposer([pair])
        ip.install()
        try:
            assert builtins.open is not orig_open
            assert os.open is not orig_os_open
        finally:
            ip.uninstall()
        assert builtins.open is orig_open
        assert os.open is orig_os_open

    def test_nested_install_same_interposer(self, pair):
        orig = os.open
        ip = Interposer([pair])
        ip.install()
        ip.install()
        ip.uninstall()
        assert os.open is not orig  # still installed (depth 1)
        ip.uninstall()
        assert os.open is orig

    def test_second_interposer_rejected(self, pair, tmp_path):
        ip1 = Interposer([pair])
        ip1.install()
        try:
            ip2 = Interposer([(str(tmp_path / "m2"), str(tmp_path / "b2"))])
            with pytest.raises(RuntimeError):
                ip2.install()
        finally:
            ip1.uninstall()

    def test_uninstall_without_install(self, pair):
        with pytest.raises(RuntimeError):
            Interposer([pair]).uninstall()

    def test_context_manager(self, pair):
        orig = os.open
        with Interposer([pair]):
            assert os.open is not orig
        assert os.open is orig

    def test_module_level_interposed(self, pair):
        mnt, backend = pair
        orig = os.open
        with interposed([pair]):
            with open(f"{mnt}/f", "w") as fh:
                fh.write("x")
            assert os.path.exists(f"{mnt}/f")
        assert os.open is orig
        assert not os.path.exists(f"{mnt}/f")

    def test_current(self, pair):
        assert interpose.current() is None
        with Interposer([pair]) as ip:
            assert interpose.current() is ip
        assert interpose.current() is None

    def test_drain_closes_leaked_fds(self, pair):
        mnt, backend = pair
        ip = Interposer([pair])
        ip.install()
        try:
            fd = os.open(f"{mnt}/leaky", os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"leaked data")
            # no close: simulate a sloppy application
            ip.drain()
            assert ip.shim.table.lookup(fd) is None
        finally:
            ip.uninstall()
        # Data survived because drain closed (and therefore flushed) it.
        from repro.plfs import plfs_getattr

        assert plfs_getattr(os.path.join(backend, "leaky")).st_size == 11


class TestStatsCounters:
    def test_counters_move(self, pair, tmp_path):
        mnt, backend = pair
        with Interposer([pair]) as ip:
            before = dict(ip.shim.stats)
            with open(f"{mnt}/f", "w") as fh:
                fh.write("x")
            assert ip.shim.stats["plfs_calls"] > before["plfs_calls"]
            with open(tmp_path / "plain", "w") as fh:
                fh.write("y")
            assert ip.shim.stats["passthrough_calls"] > before["passthrough_calls"]


class TestDispatch:
    """The pass-through half is generated, once per row, from its key kind."""

    def test_every_row_is_bound_by_its_key_kind(self, pair):
        with Interposer([pair]) as ip:
            for name, row in INTERPOSED.items():
                assert row.key in interpose.KEY_KINDS, name
                if not hasattr(os, name):
                    continue
                bound = getattr(os, name)
                if row.key == "none":
                    assert bound == getattr(ip.shim, name), name
                else:
                    assert bound.__module__ == "repro.core.interpose", name
                    assert bound.__name__ == bound.__qualname__ == name
                    assert bound.__code__.co_name == name

    def test_a_row_with_an_unknown_key_kind_fails_at_import(self):
        program = (
            "from repro.plfs import route\n"
            "route.INTERPOSED['frobnicate'] = route.Row('', 'zaps')\n"
            "import repro.core.interpose\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode != 0
        assert "frobnicate" in done.stderr and "zaps" in done.stderr


class TestEnvActivation:
    def test_not_requested(self):
        assert interpose.activate_from_environ({}) is None

    def test_requested_without_mounts_raises(self):
        with pytest.raises(RuntimeError):
            interpose.activate_from_environ({config.ENV_PRELOAD: "1"})

    def test_requested_with_mounts(self, pair):
        mnt, backend = pair
        env = {
            config.ENV_PRELOAD: "1",
            config.ENV_MOUNTS: f"{mnt}:{backend}",
        }
        ip = interpose.activate_from_environ(env)
        assert ip is not None
        try:
            with open(f"{mnt}/envfile", "w") as fh:
                fh.write("via env")
            assert os.stat(f"{mnt}/envfile").st_size == 7
        finally:
            ip.uninstall()

    def test_preload_module_in_subprocess(self, pair):
        """The full LD_PRELOAD analogue: an unmodified python child program
        writes through PLFS purely because of the environment."""
        import subprocess
        import sys

        mnt, backend = pair
        env = dict(os.environ)
        env[config.ENV_PRELOAD] = "1"
        env[config.ENV_MOUNTS] = f"{mnt}:{backend}"
        program = (
            "import repro.core.preload\n"  # the preload hook
            f"fh = open({mnt + '/child.out'!r}, 'w')\n"
            "fh.write('written by unmodified app')\n"
            "fh.close()\n"
        )
        subprocess.run([sys.executable, "-c", program], env=env, check=True)
        from repro.plfs import is_container

        assert is_container(os.path.join(backend, "child.out"))
