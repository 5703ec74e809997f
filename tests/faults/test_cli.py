"""Tests for the ``repro-fsck`` command-line entry point."""

from __future__ import annotations

import json
import os

import pytest

from repro import plfs
from repro.plfs.fsck import fsck, main, scan_containers
from repro.faults.matrix import (
    damage_lose_index_droppings,
    damage_stale_openhost_marker,
)


@pytest.fixture
def clean(container_path):
    fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
    plfs.plfs_write(fd, b"payload!", 8, 0)
    plfs.plfs_close(fd)
    return container_path


class TestExitCodes:
    def test_clean_container_exits_zero(self, clean, capsys):
        assert main([clean]) == 0
        out = capsys.readouterr().out
        assert "nothing to repair" in out

    def test_repairable_damage_exits_zero(self, clean, capsys):
        damage_stale_openhost_marker(clean)
        assert main([clean]) == 0
        assert "clear-openhost" in capsys.readouterr().out
        assert plfs.Container(clean).open_writers() == []

    def test_unrecoverable_loss_exits_one(self, clean, capsys):
        damage_lose_index_droppings(clean)
        assert main([clean]) == 1
        assert "UNRECOVERABLE" in capsys.readouterr().out

    def test_not_a_container_exits_two(self, backend, capsys):
        os.mkdir(os.path.join(backend, "plaindir"))
        assert main([os.path.join(backend, "plaindir")]) == 2

    def test_no_args_exits_two(self, capsys):
        assert main([]) == 2

    def test_paths_and_scan_together_exits_two(self, clean, backend):
        assert main([clean, "--scan", backend]) == 2

    def test_scan_missing_dir_exits_two(self, tmp_path):
        assert main(["--scan", str(tmp_path / "nope")]) == 2

    def test_missing_objectstore_exits_two_and_creates_nothing(self, clean, tmp_path):
        store = str(tmp_path / "no-such-store")
        with pytest.raises(FileNotFoundError):
            fsck(clean, dry_run=True, objectstore=store)
        for argv in (["--dry-run", "--objectstore", store, clean],
                     ["--objectstore", store, clean]):
            assert main(argv) == 2
        assert not os.path.exists(store)
        assert not fsck(clean).repaired  # and the container was left alone


class TestDryRun:
    def test_dry_run_reports_without_touching(self, clean, capsys):
        damage_stale_openhost_marker(clean)
        rc = main(["--dry-run", clean])
        assert "clear-openhost" in capsys.readouterr().out
        # The marker is still there: nothing was repaired (a marker alone
        # is a warning, not corruption, so the exit status stays 0).
        assert plfs.Container(clean).open_writers() == ["deadhost.99999"]
        assert rc == 0

    def test_dry_run_then_real_run_converges(self, clean):
        damage_lose_index_droppings(clean)
        main(["--dry-run", clean])
        [hostdir] = plfs.Container(clean).hostdirs()
        # Data droppings still present (not yet quarantined):
        assert any(
            n.startswith("dropping.data.") for n in os.listdir(hostdir)
        )
        assert main([clean]) == 1
        assert not any(
            n.startswith("dropping.data.") for n in os.listdir(hostdir)
        )


class TestJsonAndScan:
    def test_json_output_parses(self, clean, capsys):
        damage_stale_openhost_marker(clean)
        assert main(["--json", clean]) == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert any(a["kind"] == "clear-openhost" for a in report["actions"])

    def test_scan_finds_nested_containers(self, backend, capsys):
        for name in ("a", "sub/b"):
            path = os.path.join(backend, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
            plfs.plfs_write(fd, b"x", 1, 0)
            plfs.plfs_close(fd)
        found = scan_containers(backend)
        assert [os.path.relpath(p, backend) for p in found] == ["a", "sub/b"]
        assert main(["--scan", backend]) == 0

    def test_scan_does_not_descend_into_containers(self, clean, backend):
        # A container's hostdirs must not be mistaken for containers.
        assert scan_containers(backend) == [clean]

    def test_scan_empty_dir_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["--scan", str(empty)]) == 0
