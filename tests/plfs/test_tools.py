"""Tests for container maintenance tools (check / recover / usage)."""

from __future__ import annotations

import os
import shutil

import pytest

from repro import plfs
from repro.plfs import constants
from repro.plfs.tools import (
    ContainerReport,
    main,
    plfs_check,
    plfs_compact,
    plfs_recover,
    plfs_usage,
)


@pytest.fixture
def filled(container_path):
    """A closed container with some overwrites (log garbage)."""
    fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
    plfs.plfs_write(fd, b"A" * 100, 100, 0)
    plfs.plfs_write(fd, b"B" * 100, 100, 0)  # shadows the first write
    plfs.plfs_write(fd, b"C" * 50, 50, 200)
    plfs.plfs_close(fd)
    return container_path


class TestCheck:
    def test_clean_container_ok(self, filled):
        report = plfs_check(filled)
        assert report.ok
        assert report.logical_size == 250
        assert report.physical_bytes == 250
        assert report.records == 3
        assert report.droppings == 1
        assert report.garbage_bytes == 100
        assert report.garbage_ratio == pytest.approx(0.4)
        assert "OK" in report.render()

    def test_empty_container_ok(self, container_path):
        plfs.plfs_create(container_path)
        report = plfs_check(container_path)
        assert report.ok
        assert report.logical_size == 0
        assert report.droppings == 0

    def test_not_a_container_raises(self, backend):
        with pytest.raises(plfs.ContainerNotFoundError):
            plfs_check(os.path.join(backend, "nope"))

    def test_truncated_index_detected(self, filled):
        [(index_path, _)] = plfs.Container(filled).droppings()
        with open(index_path, "r+b") as fh:
            fh.truncate(os.path.getsize(index_path) - 3)
        report = plfs_check(filled)
        assert not report.ok
        assert any("torn index" in p for p in report.problems)
        assert any("repro-fsck" in p for p in report.problems)

    def test_truncated_data_detected(self, filled):
        [(_, data_path)] = plfs.Container(filled).droppings()
        with open(data_path, "r+b") as fh:
            fh.truncate(10)
        report = plfs_check(filled)
        assert not report.ok
        assert any("past the end" in p for p in report.problems)

    def test_missing_index_detected(self, filled):
        [(index_path, _)] = plfs.Container(filled).droppings()
        os.unlink(index_path)
        report = plfs_check(filled)
        assert not report.ok

    def test_orphan_index_warned(self, filled):
        [(index_path, data_path)] = plfs.Container(filled).droppings()
        orphan = index_path.replace("dropping.index.", "dropping.index.9")
        with open(orphan, "wb"):
            pass
        report = plfs_check(filled)
        assert any("orphan" in w for w in report.warnings)

    def test_stale_openhost_warned(self, filled):
        plfs.Container(filled).register_open(pid=999)
        report = plfs_check(filled)
        assert report.ok  # a marker alone is not corruption
        assert any("openhost" in w for w in report.warnings)

    def test_bad_cached_metadata_detected(self, filled):
        c = plfs.Container(filled)
        c.clear_meta()
        c.drop_meta(9999, 9999)
        report = plfs_check(filled)
        assert not report.ok
        assert any("cached metadata" in p for p in report.problems)


class TestRecover:
    def test_recover_rebuilds_meta(self, filled):
        c = plfs.Container(filled)
        c.clear_meta()
        c.drop_meta(9999, 9999)  # wrong
        report = plfs_recover(filled)
        assert report.ok
        assert c.cached_size() == 250
        assert plfs.plfs_getattr(filled).st_size == 250

    def test_recover_clears_stale_markers(self, filled):
        c = plfs.Container(filled)
        c.register_open(pid=4242)
        report = plfs_recover(filled)
        assert report.ok
        assert c.open_writers() == []

    def test_recover_empty_container(self, container_path):
        plfs.plfs_create(container_path)
        report = plfs_recover(container_path)
        assert report.ok


class TestUsage:
    def test_usage_dict(self, filled):
        usage = plfs_usage(filled)
        assert usage["logical_bytes"] == 250
        assert usage["physical_bytes"] == 250
        assert usage["garbage_bytes"] == 100
        assert usage["droppings"] == 1

    def test_flatten_clears_garbage(self, filled):
        plfs.plfs_flatten_index(filled)
        usage = plfs_usage(filled)
        assert usage["garbage_bytes"] == 0
        assert usage["logical_bytes"] == 250


class TestCli:
    def test_check_exit_codes(self, filled, capsys):
        assert main(["check", filled]) == 0
        assert "OK" in capsys.readouterr().out
        [(index_path, _)] = plfs.Container(filled).droppings()
        os.unlink(index_path)
        assert main(["check", filled]) == 1

    def test_usage_output(self, filled, capsys):
        assert main(["usage", filled]) == 0
        assert "garbage_bytes" in capsys.readouterr().out

    def test_recover_cli(self, filled, capsys):
        plfs.Container(filled).register_open(pid=1)
        assert main(["recover", filled]) == 0

    def test_bad_args(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate", "/x"]) == 2


class TestNoCompactedIndexIsHealthy:
    """A container without ``global.index`` is what a clean close of one
    dropping leaves, and what a crashed writer leaves: the tools call it
    healthy, have nothing to say about the file, and write none."""

    @pytest.fixture(params=["one dropping, closed", "crashed writer"])
    def uncompacted(self, request, filled):
        if request.param == "crashed writer":
            from repro.plfs.writer import WriteFile

            c = plfs.Container(filled)
            w = WriteFile(c, wal=True)
            w.write(b"D" * 30, 250, pid=7)
            c.register_open(pid=7)
            w.abandon()  # no index flush, no close: the marker stays
        assert not os.path.exists(plfs.Container(filled).global_index_path())
        return filled, request.param

    def test_check_recover_and_fsck_leave_it_absent(self, uncompacted, capsys):
        from repro.faults.cli import main as fsck_main
        from repro.faults.fsck import fsck

        path, state = uncompacted
        gpath = plfs.Container(path).global_index_path()

        report = plfs_check(path)
        assert report.ok and not os.path.exists(gpath)
        assert not any("compacted" in w for w in report.warnings)

        dry = fsck(path, dry_run=True)
        assert not any("compacted" in a.kind for a in dry.actions), dry.render()

        assert fsck_main([path]) == 0
        out = capsys.readouterr().out
        assert constants.GLOBAL_INDEX_FILE not in out and "compacted" not in out
        assert not os.path.exists(gpath)

        report = plfs_recover(path)
        assert report.ok and not report.warnings and not os.path.exists(gpath)
        assert report.logical_size == (280 if state == "crashed writer" else 250)

        again = fsck(path)  # of what is healthy now: no action at all
        assert again.ok and not again.actions and not os.path.exists(gpath)

    def test_an_unparsable_or_stale_one_still_goes(self, filled):
        from repro.plfs.tools import repair_derived_state

        c = plfs.Container(filled)
        plfs_compact(filled)
        kinds = []
        repair_derived_state(c, lambda kind, path, detail: kinds.append(kind))
        assert "drop-stale-compacted" not in kinds and os.path.exists(c.global_index_path())

        with open(c.global_index_path(), "wb") as fh:
            fh.write(b"not an index\n")
        repair_derived_state(c, lambda kind, path, detail: kinds.append(kind))
        assert kinds.count("drop-stale-compacted") == 1
        assert not os.path.exists(c.global_index_path())

        plfs_compact(filled)
        [(index_path, _)] = c.droppings()
        os.utime(index_path, ns=(1, 1))  # another epoch: the file is stale
        repair_derived_state(c, lambda kind, path, detail: kinds.append(kind))
        assert kinds.count("drop-stale-compacted") == 2
        assert not os.path.exists(c.global_index_path())


def _tree(root):
    """relative path -> file bytes (None for a directory)."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            out[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestRecoverAndFsckAgree:
    """`repro-plfs recover` and `repro-fsck` run one repair routine
    (`repair_derived_state`): the same damage must leave the same tree."""

    def test_same_damage_same_tree(self, filled, backend, capsys):
        from repro.faults.cli import main as fsck_main

        c = plfs.Container(filled)
        plfs_compact(filled)  # one dropping: its close left that to us
        with open(c.global_index_path(), "rb") as fh:
            first_compaction = fh.read()
        fd = plfs.plfs_open(filled, os.O_WRONLY, pid=7)
        plfs.plfs_write(fd, b"D" * 30, 30, 250, pid=7)
        plfs.plfs_close(fd, pid=7)
        # the damage: a stale global.index, no meta/ dropping, a dead
        # writer's openhost marker
        with open(c.global_index_path(), "wb") as fh:
            fh.write(first_compaction)
        c.clear_meta()
        c.register_open(pid=999)

        twin = os.path.join(backend, "twin")
        shutil.copytree(filled, twin)
        assert _tree(filled) == _tree(twin)

        assert main(["recover", filled]) == 0
        assert fsck_main([twin]) == 0
        out = capsys.readouterr().out
        for kind in ("clear-openhost", "rebuild-meta", "drop-stale-compacted"):
            assert kind in out

        recovered, fscked = _tree(filled), _tree(twin)
        # fsck additionally tells other processes the container changed
        for tree in (recovered, fscked):
            tree.pop(constants.GENERATION_FILE, None)
        assert recovered == fscked
        assert constants.GLOBAL_INDEX_FILE not in recovered
        assert not any(k.startswith(constants.OPENHOSTS_DIR + os.sep) for k in recovered)
        assert [k for k in recovered if k.startswith(constants.META_DIR + os.sep)] == [
            os.path.join(constants.META_DIR, f"280.280.{plfs.util.hostname()}")
        ]
