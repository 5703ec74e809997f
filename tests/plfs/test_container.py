"""Tests for container creation, layout and metadata bookkeeping."""

from __future__ import annotations

import os
import stat as stat_module

import pytest

from repro.plfs import constants, util
from repro.plfs.container import (
    Container,
    is_container,
    readdir_logical,
    rmdir_logical,
)
from repro.plfs.errors import (
    ContainerExistsError,
    ContainerNotFoundError,
    IsAContainerError,
    NotAContainerError,
)
from repro.plfs.writer import WriteFile


class TestCreate:
    def test_create_layout(self, container_path):
        c = Container(container_path)
        assert not c.exists()
        c.create(0o640)
        assert c.exists()
        assert is_container(container_path)
        entries = set(os.listdir(container_path))
        assert constants.ACCESS_FILE in entries
        assert constants.CREATOR_FILE in entries
        assert constants.OPENHOSTS_DIR in entries
        assert constants.META_DIR in entries
        assert c.mode() == 0o640

    def test_create_idempotent(self, container_path):
        c = Container(container_path)
        c.create()
        c.create()  # no error
        assert c.exists()

    def test_create_exclusive_raises_on_existing(self, container_path):
        c = Container(container_path)
        c.create()
        with pytest.raises(ContainerExistsError):
            c.create(exclusive=True)

    def test_create_over_plain_file_raises(self, container_path):
        with open(container_path, "w") as fh:
            fh.write("plain")
        with pytest.raises(NotAContainerError):
            Container(container_path).create()

    def test_plain_dir_is_not_container(self, tmp_path):
        d = tmp_path / "plain"
        d.mkdir()
        assert not is_container(str(d))

    def test_creator_file_contents(self, container_path):
        Container(container_path).create(pid=123)
        text = open(os.path.join(container_path, constants.CREATOR_FILE)).read()
        assert f"version={constants.FORMAT_VERSION}" in text
        assert "pid=123" in text


class TestClassify:
    @pytest.mark.parametrize("kind", ["absent", "file", "directory", "container"])
    def test_the_exclusive_order_gives_the_same_answer(self, container_path, kind):
        """An exclusive create looks at the path before the access file;
        whatever is there, both orders name it alike."""
        from repro.plfs.container import ABSENT, CONTAINER, DIRECTORY, FILE, classify

        if kind == "file":
            open(container_path, "w").close()
        elif kind == "directory":
            os.mkdir(container_path)
        elif kind == "container":
            Container(container_path).create()
        expected = {"absent": ABSENT, "file": FILE, "directory": DIRECTORY, "container": CONTAINER}
        assert classify(container_path) == classify(container_path, True) == expected[kind]


class TestCreateRaces:
    def test_creator_that_saw_the_path_absent_still_loses_the_race(
        self, container_path, monkeypatch
    ):
        # plfs_open looked before another creator won: the skeleton's
        # rename fails, and the lost-race re-check turns that into EEXIST.
        from repro.plfs import api, plfs_close, plfs_open
        from repro.plfs.container import ABSENT

        Container(container_path).create()
        monkeypatch.setattr(api, "classify", lambda path, exclusive: ABSENT)
        with pytest.raises(ContainerExistsError):
            plfs_open(container_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        plfs_close(plfs_open(container_path, os.O_CREAT | os.O_WRONLY))  # theirs serves
        assert os.listdir(os.path.dirname(container_path)) == [
            os.path.basename(container_path)
        ]

    def test_create_makes_a_missing_parent(self, backend):
        path = os.path.join(backend, "not", "yet", "there", "file")
        Container(path).create()
        assert is_container(path)


class TestMissingDirectoryFallbacks:
    """Try first, create the directory only on ENOENT: each fallback."""

    def test_register_open_recreates_openhosts(self, container_path):
        c = Container(container_path)
        c.create()
        os.rmdir(os.path.join(container_path, constants.OPENHOSTS_DIR))
        c.register_open(pid=7)
        assert len(c.open_writers()) == 1
        c.unregister_open(pid=7)

    def test_drop_meta_recreates_meta(self, container_path):
        c = Container(container_path)
        c.create()
        os.rmdir(os.path.join(container_path, constants.META_DIR))
        c.drop_meta(10, 10)
        assert c.cached_size() == 10

    def test_ensure_hostdir_recreates_a_vanished_container_dir(self, container_path):
        import shutil

        c = Container(container_path)
        c.create()
        shutil.rmtree(container_path)
        assert os.path.isdir(c.ensure_hostdir("somehost"))

    def test_writer_close_survives_losing_meta_and_openhosts_midlife(self, container_path):
        from repro.plfs import plfs_close, plfs_getattr, plfs_open, plfs_write

        fd = plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs_write(fd, b"x" * 100, 100, 0)
        for name in (constants.OPENHOSTS_DIR, constants.META_DIR):
            for entry in os.listdir(os.path.join(container_path, name)):
                os.unlink(os.path.join(container_path, name, entry))
            os.rmdir(os.path.join(container_path, name))
        plfs_close(fd)
        assert plfs_getattr(container_path).st_size == 100


class TestHostdirs:
    def test_hostdir_bucket_stable(self):
        assert util.hostdir_bucket("nodeA") == util.hostdir_bucket("nodeA")
        assert 0 <= util.hostdir_bucket("nodeA") < constants.NUM_HOSTDIRS

    def test_different_hosts_spread(self):
        buckets = {util.hostdir_bucket(f"node{i}") for i in range(100)}
        assert len(buckets) > 10  # FNV should spread hosts well

    def test_ensure_hostdir_creates(self, container_path):
        c = Container(container_path)
        c.create()
        path = c.ensure_hostdir("somehost")
        assert os.path.isdir(path)
        assert os.path.basename(path).startswith(constants.HOSTDIR_PREFIX)

    def test_droppings_empty_initially(self, container_path):
        c = Container(container_path)
        c.create()
        assert c.droppings() == []

    def test_droppings_listed_after_write(self, container_path):
        c = Container(container_path)
        c.create()
        w = WriteFile(c)
        w.write(b"x" * 10, 0, pid=1)
        w.write(b"y" * 10, 10, pid=2)  # second pid: second dropping pair
        w.close()
        pairs = c.droppings()
        assert len(pairs) == 2
        for index_path, data_path in pairs:
            assert os.path.exists(index_path)
            assert os.path.exists(data_path)

    def test_physical_bytes(self, container_path):
        c = Container(container_path)
        c.create()
        w = WriteFile(c)
        w.write(b"a" * 100, 0, pid=1)
        w.write(b"b" * 100, 0, pid=1)  # overwrite: log keeps both
        w.close()
        assert c.physical_bytes() == 200


class TestOpenhostsAndMeta:
    def test_register_unregister(self, container_path):
        c = Container(container_path)
        c.create()
        c.register_open(pid=11)
        assert len(c.open_writers()) == 1
        c.register_open(pid=12)
        assert len(c.open_writers()) == 2
        c.unregister_open(pid=11)
        c.unregister_open(pid=12)
        assert c.open_writers() == []

    def test_marker_outlives_all_but_the_last_holder(self, container_path):
        # One process, several write handles: they share the host.pid marker.
        c = Container(container_path)
        c.create()
        c.register_open(pid=11)
        Container(container_path).register_open(pid=11)
        assert len(c.open_writers()) == 1
        c.unregister_open(pid=11)
        assert len(c.open_writers()) == 1
        Container(container_path).unregister_open(pid=11)
        assert c.open_writers() == []

    def test_swept_marker_forgets_its_dead_holders(self, container_path):
        # Recovery removes the markers of writers it declares dead; their
        # claims must not keep a later writer's marker alive for ever.
        c = Container(container_path)
        c.create()
        c.register_open(pid=11)  # never unregistered: the "crashed" handle
        os.unlink(c._openhost_marker(11))
        c.register_open(pid=11)
        assert len(c.open_writers()) == 1
        c.unregister_open(pid=11)
        assert c.open_writers() == []

    def test_unregister_missing_is_noop(self, container_path):
        c = Container(container_path)
        c.create()
        c.unregister_open(pid=99)

    def test_cached_size_none_without_meta(self, container_path):
        c = Container(container_path)
        c.create()
        assert c.cached_size() is None

    def test_cached_size_from_meta(self, container_path):
        c = Container(container_path)
        c.create()
        c.drop_meta(4096, 4096, host="h1")
        c.drop_meta(8192, 8192, host="h2")
        assert c.cached_size() == 8192

    def test_cached_size_untrusted_with_open_writers(self, container_path):
        c = Container(container_path)
        c.create()
        c.drop_meta(4096, 4096)
        c.register_open(pid=1)
        assert c.cached_size() is None

    def test_clear_meta(self, container_path):
        c = Container(container_path)
        c.create()
        c.drop_meta(10, 10)
        c.clear_meta()
        assert c.meta_droppings() == []

    def test_malformed_meta_names_ignored(self, container_path):
        c = Container(container_path)
        c.create()
        meta_dir = os.path.join(container_path, constants.META_DIR)
        open(os.path.join(meta_dir, "garbage"), "w").close()
        open(os.path.join(meta_dir, "x.y.z"), "w").close()
        assert c.meta_droppings() == []


class TestAttrAndRemoval:
    def test_getattr_regular_file_mode(self, container_path):
        c = Container(container_path)
        c.create(0o600)
        st = c.getattr(size=42)
        assert stat_module.S_ISREG(st.st_mode)
        assert stat_module.S_IMODE(st.st_mode) == 0o600
        assert st.st_size == 42

    def test_getattr_computes_size_from_index(self, container_path):
        c = Container(container_path)
        c.create()
        w = WriteFile(c)
        w.write(b"z" * 77, 100, pid=1)
        w.sync()
        w.close()
        assert c.getattr().st_size == 177

    def test_getattr_missing_raises(self, container_path):
        with pytest.raises(ContainerNotFoundError):
            Container(container_path).getattr()

    def test_unlink(self, container_path):
        c = Container(container_path)
        c.create()
        c.unlink()
        assert not os.path.exists(container_path)

    def test_unlink_missing_raises(self, container_path):
        with pytest.raises(ContainerNotFoundError):
            Container(container_path).unlink()

    def test_wipe_data_keeps_container(self, container_path):
        c = Container(container_path)
        c.create()
        w = WriteFile(c)
        w.write(b"data", 0, pid=1)
        w.close()
        c.drop_meta(4, 4)
        c.wipe_data()
        assert c.exists()
        assert c.droppings() == []
        assert c.meta_droppings() == []

    def test_rename(self, container_path, backend):
        c = Container(container_path)
        c.create()
        new_path = os.path.join(backend, "renamed")
        c2 = c.rename(new_path)
        assert c2.exists()
        assert not os.path.exists(container_path)

    def test_rename_over_existing_container(self, container_path, backend):
        c = Container(container_path)
        c.create()
        other = Container(os.path.join(backend, "other"))
        other.create()
        w = WriteFile(other)
        w.write(b"old", 0, 1)
        w.close()
        c.rename(other.path)
        assert Container(other.path).droppings() == []


class TestLogicalDirOps:
    def test_readdir_logical(self, backend):
        Container(os.path.join(backend, "f1")).create()
        os.mkdir(os.path.join(backend, "subdir"))
        open(os.path.join(backend, "plain"), "w").close()
        assert readdir_logical(backend) == ["f1", "plain", "subdir"]

    def test_readdir_on_container_raises(self, container_path):
        Container(container_path).create()
        with pytest.raises(NotAContainerError):
            readdir_logical(container_path)

    def test_rmdir_refuses_container(self, container_path):
        Container(container_path).create()
        with pytest.raises(IsAContainerError):
            rmdir_logical(container_path)

    def test_rmdir_plain_dir(self, backend):
        d = os.path.join(backend, "d")
        os.mkdir(d)
        rmdir_logical(d)
        assert not os.path.exists(d)
