"""Tests for container maintenance: the check (``repro-fsck``'s dry run),
repair, usage numbers, and the ``repro-plfs compact`` verb."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import plfs
from repro.plfs import constants
from repro.plfs.fsck import REPAIR_TMP_PREFIX, fsck, plfs_check
from repro.plfs.fsck import main as fsck_main
from repro.plfs.tools import main, plfs_compact


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

    def test_lost_skeleton_warned(self, filled):
        for name in (constants.OPENHOSTS_DIR, constants.META_DIR):
            for entry in os.listdir(os.path.join(filled, name)):
                os.unlink(os.path.join(filled, name, entry))
            os.rmdir(os.path.join(filled, name))
        report = plfs_check(filled)
        assert report.ok  # the skeleton holds no state of its own
        assert any("restore-skeleton" in w for w in report.warnings)

    @pytest.mark.parametrize(
        "debris,kind",
        [
            (f"{constants.GLOBAL_INDEX_FILE}.tmp.4242", "sweep-compaction-tmp"),
            (f"{constants.GENERATION_FILE}.tmp.4242", "sweep-generation-tmp"),
            (REPAIR_TMP_PREFIX, "sweep-repair-tmp"),
        ],
    )
    def test_tmp_debris_warned(self, filled, debris, kind):
        if debris == REPAIR_TMP_PREFIX:
            [(index_path, _)] = plfs.Container(filled).droppings()
            where = os.path.join(os.path.dirname(index_path), debris + os.path.basename(index_path))
        else:
            where = os.path.join(filled, debris)
        with open(where, "wb") as fh:
            fh.write(b"half")
        report = plfs_check(filled)
        assert report.ok and os.path.exists(where)
        assert any(kind in w for w in report.warnings), report.render()


class TestRecover:
    def test_recover_rebuilds_meta(self, filled):
        c = plfs.Container(filled)
        c.clear_meta()
        c.drop_meta(9999, 9999)  # wrong
        report = fsck(filled)
        assert report.ok
        assert c.cached_size() == 250
        assert plfs.plfs_getattr(filled).st_size == 250

    def test_stale_cached_size_is_a_reported_repair(self, filled):
        c = plfs.Container(filled)
        c.clear_meta()
        c.drop_meta(5, 5)
        report = fsck(filled)
        assert report.repaired and [a.kind for a in report.actions] == ["rebuild-meta"]
        assert "nothing to repair" not in report.render()
        assert c.cached_size() == 250
        assert not fsck(filled).repaired

    def test_recover_clears_stale_markers(self, filled):
        c = plfs.Container(filled)
        c.register_open(pid=4242)
        report = fsck(filled)
        assert report.ok
        assert c.open_writers() == []

    def test_recover_empty_container(self, container_path):
        plfs.plfs_create(container_path)
        report = fsck(container_path)
        assert report.ok


class TestUsage:
    def test_usage_dict(self, filled):
        usage = plfs_check(filled).as_dict()
        assert usage["logical_size"] == 250
        assert usage["physical_bytes"] == 250
        assert usage["garbage_bytes"] == 100
        assert usage["droppings"] == 1

    def test_flatten_clears_garbage(self, filled):
        plfs.plfs_flatten_index(filled)
        report = plfs_check(filled)
        assert report.garbage_bytes == 0
        assert report.logical_size == 250


class TestCli:
    """``repro-plfs`` keeps ``compact``; check, usage and recover are
    ``repro-fsck --dry-run`` and ``repro-fsck``."""

    def test_check_exit_codes(self, filled, capsys):
        assert fsck_main(["--dry-run", filled]) == 0
        assert "OK" in capsys.readouterr().out
        [(index_path, _)] = plfs.Container(filled).droppings()
        os.unlink(index_path)
        assert fsck_main(["--dry-run", filled]) == 1

    def test_usage_output(self, filled, capsys):
        assert fsck_main(["--dry-run", filled]) == 0
        assert "garbage" in capsys.readouterr().out

    def test_recover_cli(self, filled, capsys):
        plfs.Container(filled).register_open(pid=1)
        assert fsck_main([filled]) == 0

    def test_bad_args(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate", "/x"]) == 2
        for gone in ("check", "recover", "usage"):
            assert main([gone, "/x"]) == 2


class TestNoCompactedIndexIsHealthy:
    """A container without ``global.index`` is what a clean close of one
    dropping leaves, and what a crashed writer leaves: the tools call it
    healthy, have nothing to say about the file, and write none."""

    @pytest.fixture(params=["one dropping, closed", "crashed writer"])
    def uncompacted(self, request, filled):
        if request.param == "crashed writer":
            from repro.plfs.writer import WriteFile

            c = plfs.Container(filled)
            w = WriteFile(c)
            w.write(b"D" * 30, 250, pid=7)
            w.sync()
            c.register_open(pid=7)
            w.abandon()  # synced, then no close: the marker stays
        assert not os.path.exists(plfs.Container(filled).global_index_path())
        return filled, request.param

    def test_check_recover_and_fsck_leave_it_absent(self, uncompacted, capsys):
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

        report = plfs_check(path)
        assert report.ok and not report.warnings and not os.path.exists(gpath)
        assert report.logical_size == (280 if state == "crashed writer" else 250)

        again = fsck(path)  # of what is healthy now: no action at all
        assert again.ok and not again.actions and not os.path.exists(gpath)

    def test_an_unparsable_or_stale_one_still_goes(self, filled):
        c = plfs.Container(filled)
        plfs_compact(filled)
        kinds = []
        kinds += [a.kind for a in fsck(filled).actions]
        assert "drop-stale-compacted" not in kinds and os.path.exists(c.global_index_path())

        with open(c.global_index_path(), "wb") as fh:
            fh.write(b"not an index\n")
        kinds += [a.kind for a in fsck(filled).actions]
        assert kinds.count("drop-stale-compacted") == 1
        assert not os.path.exists(c.global_index_path())

        plfs_compact(filled)
        [(index_path, _)] = c.droppings()
        os.utime(index_path, ns=(1, 1))  # another epoch: the file is stale
        kinds += [a.kind for a in fsck(filled).actions]
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


class TestDryRunPredictsFsck:
    """One diagnosis: the dry run (the check) lists exactly the repairs
    the real run then makes, and touches nothing."""

    def test_same_damage_same_actions(self, filled):
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

        before = _tree(filled)
        dry = fsck(filled, dry_run=True)
        assert _tree(filled) == before
        real = fsck(filled)
        assert real.ok and [(a.kind, a.path) for a in dry.actions] == [
            (a.kind, a.path) for a in real.actions
        ]
        assert [a.kind for a in real.actions] == [
            "clear-openhost", "rebuild-meta", "drop-stale-compacted"]
        assert not plfs_check(filled).actions  # nothing left to do

        recovered = _tree(filled)
        assert constants.GLOBAL_INDEX_FILE not in recovered
        assert not any(k.startswith(constants.OPENHOSTS_DIR + os.sep) for k in recovered)
        assert [k for k in recovered if k.startswith(constants.META_DIR + os.sep)] == [
            os.path.join(constants.META_DIR, f"280.280.{plfs.util.hostname()}")
        ]


def test_interposer_import_leaves_the_checker_unloaded():
    """``repro.plfs`` resolves ``plfs_check`` on first touch: the
    interposer's import does not load the checker or the compact tool."""
    program = (
        "import sys\n"
        "import repro.core.interpose\n"
        "heavy = ('repro.plfs.fsck', 'repro.plfs.tools')\n"
        "assert not [m for m in heavy if m in sys.modules], sys.modules.keys()\n"
        "from repro.plfs import plfs_check\n"
        "assert plfs_check.__module__ == 'repro.plfs.fsck'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", program], check=True, env=env)
