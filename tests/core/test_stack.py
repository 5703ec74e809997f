"""One table, one stack: the interposed names are written once
(``repro.plfs.route.INTERPOSED``) and every layer of ours — ``Interposer``,
``Tracer`` — rebinds them through one mechanism that comes off in reverse
order only.
"""

from __future__ import annotations

import builtins
import io
import os

import pytest

from repro.core.interpose import Interposer, Layer, _OS_PATCHES
from repro.core.trace import Tracer
from repro.plfs.route import INTERPOSED, RealOS

#: the patch list as it was hand-written before the table (PR 23)
HAND_KEPT = [
    "open", "close", "read", "write", "readv", "writev", "pread", "pwrite",
    "preadv", "pwritev", "lseek", "dup", "dup2", "stat", "lstat", "fstat",
    "access", "unlink", "remove", "rename", "replace", "truncate", "ftruncate",
    "fsync", "fdatasync", "mkdir", "rmdir", "listdir", "scandir", "chmod",
    "utime", "sendfile", "copy_file_range", "splice", "statvfs", "fstatvfs",
    "link", "symlink", "readlink",
]


def _bound() -> dict:
    """Everything a layer may rebind, as the process holds it now."""
    held = {f"os.{name}": getattr(os, name) for name in _OS_PATCHES if hasattr(os, name)}
    return {**held, "builtins.open": builtins.open, "io.open": io.open}


def _differing(before: dict) -> list:
    now = _bound()
    return [symbol for symbol in before if now[symbol] is not before[symbol]]


class TestOneTable:
    def test_the_patch_list_is_the_tables_names_in_the_old_order(self):
        assert _OS_PATCHES == list(INTERPOSED) == HAND_KEPT

    def test_a_snapshot_is_what_the_names_hold_now(self):
        # its attribute set is pinned in tests/lint/test_coverage.py
        real = RealOS.snapshot()
        assert real.pwrite is os.pwrite and real.builtins_open is builtins.open
        assert all(fn is None for name, fn in vars(real).items()
                   if name != "builtins_open" and not hasattr(os, name))


class TestOneStack:
    def test_uninstall_out_of_order_raises_and_changes_nothing(self, mnt, backend):
        clean = _bound()
        ip = Interposer([(mnt, backend)]).install()
        tracer = Tracer().install()
        stacked = _bound()
        try:
            with pytest.raises(RuntimeError, match="reverse order"):
                ip.uninstall()
            assert _differing(stacked) == [] and ip.installed
            fd = os.open(f"{mnt}/f", os.O_CREAT | os.O_WRONLY)  # both layers still work
            os.write(fd, b"x" * 10)
            os.close(fd)
            assert tracer.report().files[f"{mnt}/f"].bytes_written == 10
        finally:
            tracer.uninstall()
            ip.uninstall()
        assert _differing(clean) == []

    def test_reverse_order_teardown_restores_every_symbol(self, mnt, backend):
        clean = _bound()
        under = Tracer().install()
        ip = Interposer([(mnt, backend)]).install()
        ip.install()  # nesting is a depth on one layer, not a second layer
        over = Tracer().install()
        assert len(_differing(clean)) == len(clean)
        over.uninstall()
        ip.uninstall()
        assert ip.installed
        ip.uninstall()
        under.uninstall()
        assert _differing(clean) == []

    def test_a_foreign_patcher_underneath_stays_underneath(self, monkeypatch):
        calls = []
        real = os.getpid  # any name: the mechanism takes what it is given
        monkeypatch.setattr(os, "getpid", lambda: calls.append("foreign") or real())
        foreign = os.getpid
        layer = Layer()
        layer.push({"getpid": lambda: calls.append("ours") or layer.displaced["getpid"]()}, open)
        assert os.getpid() == real() and calls == ["ours", "foreign"]
        layer.pop()
        assert os.getpid is foreign and layer.displaced == {}

    def test_a_layer_is_pushed_once(self):
        layer = Layer()
        layer.push({}, open)
        try:
            with pytest.raises(RuntimeError):
                layer.push({}, open)
        finally:
            layer.pop()
        with pytest.raises(RuntimeError):
            layer.pop()
