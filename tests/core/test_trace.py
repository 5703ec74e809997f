"""Tests for the stacking I/O tracer (the paper's footnote-1 scenario)."""

from __future__ import annotations

import io
import os
import pathlib
import subprocess
import sys
import types

import pytest

from repro.core.interpose import Interposer
from repro.core.trace import Tracer, traced


class TestTracerAlone:
    def test_counts_os_level_io(self, tmp_path):
        path = str(tmp_path / "f")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            os.write(fd, b"0123456789")
            os.lseek(fd, 0, os.SEEK_SET)
            os.read(fd, 4)
            os.pread(fd, 2, 4)
            os.pwrite(fd, b"xx", 8)
            os.close(fd)
        report = tracer.report()
        stats = report.files[path]
        assert stats.opens == 1
        assert stats.writes == 2
        assert stats.reads == 2
        assert stats.bytes_written == 12
        assert stats.bytes_read == 6
        assert stats.max_write == 10
        assert report.total_ops == 5

    def test_untracked_after_uninstall(self, tmp_path):
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        fd = os.open(str(tmp_path / "x"), os.O_CREAT | os.O_WRONLY)
        os.write(fd, b"y")
        os.close(fd)
        assert tracer.report().files == {}

    def test_builtin_open_counts_opens(self, tmp_path):
        path = str(tmp_path / "g")
        with traced() as tracer:
            with open(path, "w") as fh:
                fh.write("hello")
        assert tracer.report().files[path].opens == 1

    def test_double_install_rejected(self):
        tracer = Tracer()
        tracer.install()
        try:
            with pytest.raises(RuntimeError):
                tracer.install()
        finally:
            tracer.uninstall()
        with pytest.raises(RuntimeError):
            tracer.uninstall()

    def test_timing_recorded(self, tmp_path):
        clock_values = iter(float(i) for i in range(100))
        tracer = Tracer(clock=lambda: next(clock_values))
        tracer.install()
        try:
            fd = os.open(str(tmp_path / "t"), os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"abc")
            os.close(fd)
        finally:
            tracer.uninstall()
        stats = tracer.report().files[str(tmp_path / "t")]
        assert stats.write_time == 1.0  # one tick per write with the fake clock

    def test_reset(self, tmp_path):
        with traced() as tracer:
            fd = os.open(str(tmp_path / "r"), os.O_CREAT | os.O_WRONLY)
            os.close(fd)
            tracer.reset()
        assert tracer.report().files == {}

    def test_render(self, tmp_path):
        with traced() as tracer:
            fd = os.open(str(tmp_path / "render-me"), os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"zz")
            os.close(fd)
        text = tracer.report().render()
        assert "render-me" in text
        assert "total:" in text


class TestTracerMetrics:
    """The characterisation metrics feeding ``repro.insights``."""

    def test_seeks_and_closes_counted(self, tmp_path):
        path = str(tmp_path / "m")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            os.write(fd, b"0123456789")
            os.lseek(fd, 0, os.SEEK_CUR)  # a tell — not a reposition
            os.lseek(fd, 0, os.SEEK_SET)  # a real reposition
            os.read(fd, 10)
            os.close(fd)
        stats = tracer.report().files[path]
        assert stats.seeks == 1
        assert stats.closes == 1

    def test_access_size_histograms(self, tmp_path):
        path = str(tmp_path / "h")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            os.write(fd, b"x" * 10)
            os.write(fd, b"y" * 2000)
            os.lseek(fd, 0, os.SEEK_SET)
            os.read(fd, 500)
            os.close(fd)
        stats = tracer.report().files[path]
        assert stats.write_sizes.as_dict() == {"0-100": 1, "1K-10K": 1}
        assert stats.read_sizes.as_dict() == {"100-1K": 1}

    def test_consecutive_offset_sequentiality(self, tmp_path):
        path = str(tmp_path / "s")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_WRONLY)
            os.write(fd, b"a" * 10)        # offset 0: sequential
            os.write(fd, b"b" * 10)        # offset 10: sequential
            os.pwrite(fd, b"c" * 10, 100)  # jump: not sequential
            os.pwrite(fd, b"d" * 10, 110)  # continues the jump: sequential
            os.close(fd)
        stats = tracer.report().files[path]
        assert stats.sequential_accesses == 3
        assert stats.sequentiality == pytest.approx(0.75)

    def test_lseek_resets_sequential_expectation(self, tmp_path):
        path = str(tmp_path / "k")
        with traced() as tracer:
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            os.write(fd, b"x" * 20)
            os.lseek(fd, 5, os.SEEK_SET)
            os.read(fd, 5)  # reads at 5, but the log expected offset 20
            os.close(fd)
        stats = tracer.report().files[path]
        assert stats.sequentiality == pytest.approx(0.5)

    def test_buffered_open_is_accounted_via_proxy(self, tmp_path):
        """The fixed bypass: builtins.open I/O used to report 0 bytes."""
        path = str(tmp_path / "buf.txt")
        with traced() as tracer:
            with open(path, "w") as fh:
                fh.write("hello")
                fh.write(" world")
            with open(path) as fh:
                assert fh.read() == "hello world"
        stats = tracer.report().files[path]
        assert stats.buffered
        assert stats.mode == "r"  # last open mode seen
        assert stats.opens == 2 and stats.closes == 2
        assert stats.writes == 2 and stats.bytes_written == 11
        assert stats.reads >= 1 and stats.bytes_read == 11
        assert "[buffered]" in tracer.report().render()

    def test_buffered_binary_seek_and_iteration(self, tmp_path):
        path = str(tmp_path / "buf.bin")
        with traced() as tracer:
            with open(path, "wb") as fh:
                fh.write(b"line1\nline2\n")
            with open(path, "rb") as fh:
                fh.seek(6)
                fh.read(6)
                fh.seek(0)
                assert [len(l) for l in fh] == [6, 6]
        stats = tracer.report().files[path]
        assert stats.seeks == 2  # seek(0) after read-to-6... both reposition
        assert stats.bytes_read == 6 + 12  # explicit read + iteration

    def test_opaque_buffered_file_flagged(self, tmp_path):
        path = str(tmp_path / "opaque")
        with traced() as tracer:
            with open(path, "w"):
                pass  # opened, never touched
        stats = tracer.report().files[path]
        assert stats.buffered and stats.accesses == 0
        assert "[opacity: buffered]" in tracer.report().render()


class TestStackingWithLdplfs:
    def test_tracer_over_ldplfs_sees_logical_io(self, mnt, backend):
        """Tracer installed after LDPLFS: observes the application's view
        (logical paths under the mount point)."""
        ip = Interposer([(mnt, backend)])
        ip.install()
        try:
            with traced() as tracer:
                fd = os.open(f"{mnt}/traced.dat", os.O_CREAT | os.O_WRONLY)
                os.write(fd, b"through both layers")
                os.close(fd)
            report = tracer.report()
        finally:
            ip.uninstall()
        stats = report.files[f"{mnt}/traced.dat"]
        assert stats.opens == 1
        assert stats.bytes_written == 19
        # And the data really landed in PLFS.
        from repro.plfs import is_container

        assert is_container(os.path.join(backend, "traced.dat"))

    def test_tracer_under_ldplfs_sees_physical_io(self, mnt, backend):
        """Tracer installed first: LDPLFS saves the *traced* functions as
        its originals, so backend dropping traffic is what gets counted."""
        tracer = Tracer()
        tracer.install()
        try:
            ip = Interposer([(mnt, backend)])
            ip.install()
            try:
                fd = os.open(f"{mnt}/deep.dat", os.O_CREAT | os.O_WRONLY)
                os.write(fd, b"x" * 100)
                os.close(fd)
            finally:
                ip.uninstall()
        finally:
            tracer.uninstall()
        report = tracer.report()
        # The logical path never reaches this layer; dropping files do.
        assert f"{mnt}/deep.dat" not in report.files
        dropping_paths = [p for p in report.files if "dropping.data" in p]
        assert len(dropping_paths) == 1
        assert report.files[dropping_paths[0]].bytes_written == 100

    def test_tracer_over_ldplfs_buffered_open(self, mnt, backend):
        """builtins.open through both layers: the proxy accounts logical
        bytes even though the PLFS shim serves the actual I/O."""
        ip = Interposer([(mnt, backend)])
        ip.install()
        try:
            with traced() as tracer:
                with open(f"{mnt}/buffered.txt", "w") as fh:
                    fh.write("via plfs")
                with open(f"{mnt}/buffered.txt") as fh:
                    assert fh.read() == "via plfs"
        finally:
            ip.uninstall()
        stats = tracer.report().files[f"{mnt}/buffered.txt"]
        assert stats.buffered
        assert stats.bytes_written == 8
        assert stats.bytes_read == 8
        assert stats.closes == 2
        from repro.plfs import is_container

        assert is_container(os.path.join(backend, "buffered.txt"))

    def test_logical_vs_physical_histograms(self, mnt, backend):
        """Over the shim the tracer sees the app's access sizes; under it,
        the dropping log's — same bytes, different characterisation."""
        # Over: logical sizes.
        ip = Interposer([(mnt, backend)])
        ip.install()
        try:
            with traced() as over:
                fd = os.open(f"{mnt}/sizes.dat", os.O_CREAT | os.O_WRONLY)
                os.write(fd, b"x" * 50)
                os.write(fd, b"y" * 50)
                os.close(fd)
        finally:
            ip.uninstall()
        logical = over.report().files[f"{mnt}/sizes.dat"]
        assert logical.write_sizes.as_dict() == {"0-100": 2}
        assert logical.sequentiality == 1.0

        # Under: physical dropping traffic.
        tracer = Tracer()
        tracer.install()
        try:
            ip = Interposer([(mnt, backend)])
            ip.install()
            try:
                fd = os.open(f"{mnt}/deep2.dat", os.O_CREAT | os.O_WRONLY)
                os.write(fd, b"x" * 50)
                os.write(fd, b"y" * 50)
                os.close(fd)
            finally:
                ip.uninstall()
        finally:
            tracer.uninstall()
        droppings = [
            f
            for p, f in tracer.report().files.items()
            if "dropping.data" in p
        ]
        assert len(droppings) == 1
        # The dropping is a pure log: appends at consecutive offsets.
        assert droppings[0].write_sizes.as_dict() == {"0-100": 2}
        assert droppings[0].sequentiality == 1.0

    def test_tracer_over_ldplfs_sees_vectored_calls(self, mnt, backend):
        """An application's ``writev``/``pwritev``/``readv``/``preadv`` on a
        mount are data calls like their scalar twins: bytes summed over the
        iovec, the cursor moved by the two that use it."""
        path = f"{mnt}/vectored.dat"
        with Interposer([(mnt, backend)]):
            with traced() as tracer:
                fd = os.open(path, os.O_CREAT | os.O_RDWR)
                assert os.writev(fd, [b"a" * 100, b"b" * 28]) == 128
                assert os.pwritev(fd, [b"c" * 64, b"d" * 64], 128) == 128
                bufs = [bytearray(100), bytearray(100)]
                assert os.preadv(fd, bufs, 0) == 200
                assert os.lseek(fd, 200, os.SEEK_SET) == 200
                assert os.readv(fd, [bytearray(100)]) == 56
                os.close(fd)
        stats = tracer.report().files[path]
        assert (stats.writes, stats.bytes_written, stats.max_write) == (2, 256, 128)
        assert (stats.reads, stats.bytes_read, stats.max_read) == (2, 256, 200)
        # writev at 0, pwritev where it ended, readv where preadv ended; only
        # preadv (back at 0) broke the run
        assert stats.sequential_accesses == 3 and stats.seeks == 1

    def test_tracer_under_ldplfs_sees_the_scatter_reads(self, mnt, backend):
        """PLFS reads a multi-slice plan by ``preadv`` (one per dropping)
        and lands an iovec by ``writev``: below the shim, the data
        droppings' totals are the physical bytes moved."""
        block = 4096
        with traced() as tracer:
            with Interposer([(mnt, backend)]):
                fd = os.open(f"{mnt}/deep.dat", os.O_CREAT | os.O_RDWR)
                os.pwritev(fd, [b"x" * block, b"y" * block], 0)  # one dropping, 8 KiB
                os.pwrite(fd, b"z" * 100, 3 * block)  # a 4 KiB hole before it
                assert len(os.pread(fd, 3 * block, 0)) == 3 * block  # 8 KiB of it physical
                assert os.preadv(fd, [bytearray(block), bytearray(block)], 2 * block) == block + 100
                os.close(fd)
        (data,) = [f for p, f in tracer.report().files.items() if "dropping.data" in p]
        assert data.bytes_written == 2 * block + 100
        assert data.bytes_read == 2 * block + 100

    def test_layers_unwind_cleanly(self, mnt, backend):
        orig_open = os.open
        ip = Interposer([(mnt, backend)])
        ip.install()
        tracer = Tracer().install()
        tracer.uninstall()
        ip.uninstall()
        assert os.open is orig_open


class TestOneStack:
    """Interposer and Tracer are two layers of one rebinding mechanism, so
    what one of them reaches the other reaches too."""

    @pytest.mark.parametrize("tracer_is", ["above", "below"])
    def test_every_name_of_open_is_traced(self, mnt, backend, tracer_is):
        """``builtins.open`` and ``io.open`` (which pathlib binds) are two
        dynamic symbols for one function: a layer rebinds both."""
        tracer = Tracer()
        layers = []
        if tracer_is == "below":  # what an Interposer routes to is fixed when it is built
            layers.append(tracer.install())
        layers.append(Interposer([(mnt, backend)]).install())
        if tracer_is == "above":
            layers.append(tracer.install())
        try:
            with pathlib.Path(f"{mnt}/a").open("wb") as fh:
                fh.write(b"a" * 1000)
            with io.open(f"{mnt}/b", "wb") as fh:
                fh.write(b"b" * 500)
            with open(f"{mnt}/c", "wb") as fh:
                fh.write(b"c" * 250)
        finally:
            for layer in reversed(layers):
                layer.uninstall()
        files = tracer.report().files
        seen = mnt if tracer_is == "above" else "dropping.data"
        assert sorted(f.bytes_written for p, f in files.items() if seen in p) == [250, 500, 1000]

    @staticmethod
    def _bound_at_import():
        """A module that did ``from os import open, write, close``."""
        app = types.ModuleType("app")
        app.open, app.write, app.close = os.open, os.write, os.close
        return app

    def test_a_wrapped_module_is_traced_through_both_layers(self, mnt, backend):
        """``-wrap`` for what was bound before the loader ran, stacked: the
        tracer above LDPLFS wraps what LDPLFS wrapped."""
        app = self._bound_at_import()
        with Interposer([(mnt, backend)]) as ip:
            assert ip.wrap_module(app) == 3
            with traced() as tracer:
                assert tracer.wrap_module(app) == 3
                fd = app.open(f"{mnt}/wrapped", os.O_CREAT | os.O_WRONLY)
                app.write(fd, b"w" * 4096)
                os.write(fd, b"o" * 100)
                app.close(fd)
            # the tracer's wrap is undone, not LDPLFS's: what its layer bound
            assert app.write is os.write is not ip.real.write
        assert (app.open, app.write, app.close) == (os.open, os.write, os.close)
        stats = tracer.report().files[f"{mnt}/wrapped"]
        assert (stats.opens, stats.closes, stats.bytes_written) == (1, 1, 4196)
        from repro.plfs import plfs_getattr

        assert plfs_getattr(os.path.join(backend, "wrapped")).st_size == 4196

    def test_a_tracer_alone_wraps_a_module_bound_before_it(self, tmp_path):
        app = self._bound_at_import()
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.wrap_module(app)
        with tracer:
            assert tracer.wrap_module(app) == 3
            fd = app.open(tmp_path / "f", os.O_CREAT | os.O_WRONLY)
            app.write(fd, b"x" * 64)
            app.close(fd)
        assert app.write is os.write
        assert tracer.report().files[str(tmp_path / "f")].bytes_written == 64

    def test_a_row_with_an_unknown_tag_fails_at_import(self):
        """A symbol added to the table with a tag the tracer has no handler
        for must not go silently untraced."""
        program = (
            "from repro.plfs import route\n"
            "route.INTERPOSED['frobnicate'] = route.Row('zaps', 'fd')\n"
            "import repro.core.trace\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode != 0
        assert "frobnicate" in done.stderr and "zaps" in done.stderr
