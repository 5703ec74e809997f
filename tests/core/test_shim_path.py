"""Path-level shim tests: namespace and metadata operations over mounts."""

from __future__ import annotations

import errno
import os

import pytest

from repro.plfs.container import is_container


def make_file(path: str, payload: bytes = b"data") -> None:
    fd = os.open(path, os.O_CREAT | os.O_WRONLY)
    os.write(fd, payload)
    os.close(fd)


class TestStat:
    def test_stat_logical_size(self, interposer, mnt):
        make_file(f"{mnt}/f", b"x" * 100)
        assert os.stat(f"{mnt}/f").st_size == 100

    def test_stat_missing(self, interposer, mnt):
        with pytest.raises(FileNotFoundError):
            os.stat(f"{mnt}/missing")

    def test_stat_mount_root_is_dir(self, interposer, mnt):
        st = os.stat(mnt)
        import stat as stat_module

        assert stat_module.S_ISDIR(st.st_mode)

    @pytest.mark.parametrize("name", ["stat", "lstat"])
    def test_stat_of_what_is_no_container_is_the_backends_own_answer(
        self, interposer, mnt, backend, name
    ):
        """The shim asks PLFS first and the backend for whatever PLFS says
        is not its file: the answers are those of a ``stat`` of the backend."""
        real, call = interposer.real, getattr(os, name)  # the installed one
        os.mkdir(f"{mnt}/d")
        with real.builtins_open(os.path.join(backend, "plain"), "wb") as fh:
            fh.write(b"not a container")
        assert call(f"{mnt}/d") == real.stat(os.path.join(backend, "d"))
        assert call(mnt) == real.stat(backend)
        assert call(f"{mnt}/plain") == real.stat(os.path.join(backend, "plain"))
        assert call(f"{mnt}/plain").st_size == 15
        for gone in (f"{mnt}/missing", f"{mnt}/d/missing", f"{mnt}/plain/beneath"):
            with pytest.raises(FileNotFoundError) as raised:
                call(gone)
            assert raised.value.errno == errno.ENOENT
            assert raised.value.filename == gone

    def test_lstat_equals_stat_for_containers(self, interposer, mnt):
        make_file(f"{mnt}/f", b"abc")
        assert os.lstat(f"{mnt}/f").st_size == os.stat(f"{mnt}/f").st_size

    def test_os_path_helpers(self, interposer, mnt):
        make_file(f"{mnt}/f")
        os.mkdir(f"{mnt}/d")
        assert os.path.exists(f"{mnt}/f")
        assert os.path.isfile(f"{mnt}/f")
        assert not os.path.isdir(f"{mnt}/f")
        assert os.path.isdir(f"{mnt}/d")
        assert os.path.getsize(f"{mnt}/f") == 4
        assert not os.path.exists(f"{mnt}/nope")

    def test_access(self, interposer, mnt):
        make_file(f"{mnt}/f")
        assert os.access(f"{mnt}/f", os.R_OK)
        assert not os.access(f"{mnt}/missing", os.F_OK)

    @pytest.mark.parametrize("mode", [None, 0o644, 0o755, 0o700, 0o600])
    def test_access_answers_like_a_flat_file(self, interposer, mnt, tmp_path, mode):
        """A container is a (searchable) directory on the backend; the
        logical file is executable only if its own mode bits say so."""
        flat = str(tmp_path / "flat")
        for path in (flat, f"{mnt}/f"):
            with open(path, "wb") as fh:
                fh.write(b"data")
            if mode is not None:
                os.chmod(path, mode)
        for amode in (os.F_OK, os.R_OK, os.W_OK, os.X_OK, os.R_OK | os.X_OK):
            assert os.access(f"{mnt}/f", amode) == os.access(flat, amode), (mode, amode)
        assert os.access(mnt, os.X_OK)  # logical directories stay searchable

    def test_utime(self, interposer, mnt):
        make_file(f"{mnt}/f")
        os.utime(f"{mnt}/f", (1000000, 1000000))
        with pytest.raises(FileNotFoundError):
            os.utime(f"{mnt}/missing")

    def test_chmod_updates_logical_mode(self, interposer, mnt):
        import stat as stat_module

        make_file(f"{mnt}/f")
        os.chmod(f"{mnt}/f", 0o600)
        assert stat_module.S_IMODE(os.stat(f"{mnt}/f").st_mode) == 0o600


class TestNamespace:
    def test_unlink_container(self, interposer, mnt, backend):
        make_file(f"{mnt}/f")
        os.unlink(f"{mnt}/f")
        assert not os.path.exists(f"{mnt}/f")
        assert not os.path.exists(os.path.join(backend, "f"))

    def test_unlink_missing(self, interposer, mnt):
        with pytest.raises(FileNotFoundError):
            os.unlink(f"{mnt}/missing")

    def test_unlink_directory_raises(self, interposer, mnt):
        os.mkdir(f"{mnt}/d")
        with pytest.raises(IsADirectoryError):
            os.unlink(f"{mnt}/d")

    def test_remove_alias(self, interposer, mnt):
        make_file(f"{mnt}/f")
        os.remove(f"{mnt}/f")
        assert not os.path.exists(f"{mnt}/f")

    def test_rename_within_mount(self, interposer, mnt):
        make_file(f"{mnt}/a", b"payload")
        os.rename(f"{mnt}/a", f"{mnt}/b")
        assert not os.path.exists(f"{mnt}/a")
        fd = os.open(f"{mnt}/b", os.O_RDONLY)
        assert os.read(fd, 10) == b"payload"
        os.close(fd)

    def test_rename_across_boundary_is_exdev(self, interposer, mnt, tmp_path):
        make_file(f"{mnt}/a")
        with pytest.raises(OSError) as exc:
            os.rename(f"{mnt}/a", str(tmp_path / "outside"))
        assert exc.value.errno == errno.EXDEV

    def test_replace_within_mount(self, interposer, mnt):
        make_file(f"{mnt}/a", b"new")
        make_file(f"{mnt}/b", b"old")
        os.replace(f"{mnt}/a", f"{mnt}/b")
        fd = os.open(f"{mnt}/b", os.O_RDONLY)
        assert os.read(fd, 10) == b"new"
        os.close(fd)

    def test_mkdir_rmdir(self, interposer, mnt, backend):
        os.mkdir(f"{mnt}/d")
        assert os.path.isdir(os.path.join(backend, "d"))
        os.rmdir(f"{mnt}/d")
        assert not os.path.exists(os.path.join(backend, "d"))

    def test_rmdir_on_container_raises(self, interposer, mnt):
        make_file(f"{mnt}/f")
        with pytest.raises(NotADirectoryError):
            os.rmdir(f"{mnt}/f")

    def test_makedirs(self, interposer, mnt, backend):
        os.makedirs(f"{mnt}/a/b/c")
        assert os.path.isdir(os.path.join(backend, "a", "b", "c"))

    def test_truncate_path(self, interposer, mnt):
        make_file(f"{mnt}/f", b"0123456789")
        os.truncate(f"{mnt}/f", 3)
        assert os.stat(f"{mnt}/f").st_size == 3


class TestListingAndWalk:
    def test_listdir_containers_as_files(self, interposer, mnt):
        make_file(f"{mnt}/f1")
        make_file(f"{mnt}/f2")
        os.mkdir(f"{mnt}/sub")
        assert sorted(os.listdir(mnt)) == ["f1", "f2", "sub"]

    def test_listdir_on_container_raises(self, interposer, mnt):
        make_file(f"{mnt}/f")
        with pytest.raises(NotADirectoryError):
            os.listdir(f"{mnt}/f")

    def test_listdir_missing_raises(self, interposer, mnt):
        with pytest.raises(FileNotFoundError):
            os.listdir(f"{mnt}/nope")

    def test_scandir_entries(self, interposer, mnt):
        make_file(f"{mnt}/f", b"xyz")
        os.mkdir(f"{mnt}/d")
        with os.scandir(mnt) as it:
            entries = {e.name: e for e in it}
        assert entries["f"].is_file()
        assert not entries["f"].is_dir()
        assert entries["d"].is_dir()
        assert entries["f"].stat().st_size == 3
        assert entries["f"].path == f"{mnt}/f"

    def test_walk(self, interposer, mnt):
        make_file(f"{mnt}/top")
        os.mkdir(f"{mnt}/sub")
        make_file(f"{mnt}/sub/inner")
        walked = {r: (sorted(d), sorted(f)) for r, d, f in os.walk(mnt)}
        assert walked[mnt] == (["sub"], ["top"])
        assert walked[f"{mnt}/sub"] == ([], ["inner"])

    def test_glob(self, interposer, mnt):
        import glob

        make_file(f"{mnt}/a.dat")
        make_file(f"{mnt}/b.dat")
        make_file(f"{mnt}/c.txt")
        assert sorted(glob.glob(f"{mnt}/*.dat")) == [f"{mnt}/a.dat", f"{mnt}/b.dat"]


class TestBackendIsReal:
    def test_container_created_on_backend(self, interposer, mnt, backend):
        make_file(f"{mnt}/f")
        assert is_container(os.path.join(backend, "f"))

    def test_plain_files_on_backend_pass_through(self, interposer, mnt, backend):
        # A non-PLFS file placed directly in the backend tree is readable
        # through the mount (mixed trees are legal).
        with open(os.path.join(backend, "plain.txt"), "w") as fh:
            fh.write("plain contents")
        fd = os.open(f"{mnt}/plain.txt", os.O_RDONLY)
        assert os.read(fd, 100) == b"plain contents"
        os.close(fd)
        assert os.stat(f"{mnt}/plain.txt").st_size == 14
