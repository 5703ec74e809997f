"""Thread-safety and path-resolution edge cases for the shim."""

from __future__ import annotations

import os
import threading

import pytest


class TestThreads:
    def test_concurrent_writers_to_distinct_files(self, interposer, mnt):
        errors = []

        def worker(i):
            try:
                path = f"{mnt}/thread-{i}.dat"
                payload = bytes([i]) * 1000
                with open(path, "wb") as fh:
                    fh.write(payload)
                with open(path, "rb") as fh:
                    assert fh.read() == payload
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(os.listdir(mnt)) == 8

    def test_concurrent_readers_shared_file(self, interposer, mnt):
        with open(f"{mnt}/shared.dat", "wb") as fh:
            fh.write(bytes(range(256)) * 40)
        results = []

        def reader():
            fd = os.open(f"{mnt}/shared.dat", os.O_RDONLY)
            try:
                results.append(os.pread(fd, 256, 256))
            finally:
                os.close(fd)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [bytes(range(256))] * 8


class TestPathResolution:
    def test_relative_path_through_cwd(self, interposer, mnt, monkeypatch, tmp_path):
        # cd into the mount's parent and address the mount relatively.
        parent = os.path.dirname(mnt)
        os.makedirs(parent, exist_ok=True)
        monkeypatch.chdir(parent)
        rel = os.path.join(os.path.basename(mnt), "relative.dat")
        with open(rel, "wb") as fh:
            fh.write(b"via relative path")
        assert os.stat(rel).st_size == 17
        assert os.path.exists(f"{mnt}/relative.dat")

    def test_absolute_paths_survive_a_deleted_cwd(
        self, interposer, mnt, monkeypatch, tmp_path
    ):
        """Only a relative path needs the working directory: with the cwd
        removed, absolute paths — on the mount and off it — must behave
        exactly as they do without the shim."""
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"12345")
        doomed = tmp_path / "doomed"
        doomed.mkdir()
        monkeypatch.chdir(doomed)
        os.rmdir(str(doomed))
        with pytest.raises(FileNotFoundError):
            os.getcwd()
        assert os.stat(str(outside)).st_size == 5  # pass-through
        with open(f"{mnt}/abs.dat", "wb") as fh:  # retargeted
            fh.write(b"abc")
        assert os.stat(f"{mnt}/abs.dat").st_size == 3
        assert os.listdir(mnt) == ["abs.dat"]
        with pytest.raises(FileNotFoundError):  # as the flat OS answers
            os.stat("relative.dat")

    def test_dot_segments(self, interposer, mnt):
        with open(f"{mnt}/x.dat", "wb") as fh:
            fh.write(b"abc")
        assert os.stat(f"{mnt}/sub/../x.dat").st_size == 3

    def test_trailing_slash_directory_ops(self, interposer, mnt):
        os.mkdir(f"{mnt}/d/")
        assert os.path.isdir(f"{mnt}/d")

    def test_unicode_names(self, interposer, mnt):
        name = f"{mnt}/datei-äöü-файл.txt"
        with open(name, "w", encoding="utf-8") as fh:
            fh.write("unicode")
        assert os.stat(name).st_size == 7
        assert "datei-äöü-файл.txt" in os.listdir(mnt)

    def test_pathlib_works(self, interposer, mnt):
        from pathlib import Path

        p = Path(mnt) / "via-pathlib.txt"
        p.write_text("pathlib uses io.open underneath")
        assert p.exists()
        assert p.read_text() == "pathlib uses io.open underneath"
        assert p.stat().st_size == 31

    def test_fspath_objects(self, interposer, mnt):
        class PathLike:
            def __init__(self, p):
                self._p = p

            def __fspath__(self):
                return self._p

        obj = PathLike(f"{mnt}/fspath.dat")
        with open(obj, "wb") as fh:
            fh.write(b"zz")
        assert os.stat(obj).st_size == 2

    def test_deeply_nested(self, interposer, mnt):
        os.makedirs(f"{mnt}/a/b/c/d")
        with open(f"{mnt}/a/b/c/d/leaf", "wb") as fh:
            fh.write(b"deep")
        found = []
        for root, dirs, files in os.walk(mnt):
            found.extend(files)
        assert found == ["leaf"]
