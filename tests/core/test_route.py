"""The one route to the OS: PLFS and the shim reach it through
``repro.plfs.route.posix`` — bound to the installed interposer's
``RealOS`` snapshot, late-bound to ``os`` otherwise — so no application
call re-enters the shim, resolves its path twice, or probes the backend
for what it was already told.  Beside the real-call budgets stand the
Python-frame budgets of the data path: "thin layer" as a number.
"""

from __future__ import annotations

import builtins
import io
import os
import sys
import tempfile
import threading
import time
from collections import Counter

import pytest

from repro.core import interpose
from repro.core.interpose import Interposer, _OS_PATCHES
from repro.plfs.route import RealOS, posix


def _create(path: str, payload: bytes = b"x" * 512) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    os.write(fd, payload)
    os.close(fd)


def _read(path: str) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, 1 << 20)
    finally:
        os.close(fd)


class TestNoReentry:
    """(a) one dispatch, one resolve per path argument, zero pass-through."""

    def test_each_path_is_resolved_once_and_nothing_passes_through(
        self, interposer, mnt, monkeypatch
    ):
        table = interposer.mount_table
        resolved: list = []
        real_resolve = table.resolve

        def counting(path):
            resolved.append(path)
            return real_resolve(path)

        monkeypatch.setattr(table, "resolve", counting)
        tempfile.gettempdir()  # its one-off probing is not the shim's
        interposer.shim.stats["passthrough_calls"] = 0

        steps = [
            (lambda: _create(f"{mnt}/a"), 1),
            (lambda: os.stat(f"{mnt}/a"), 1),
            (lambda: _read(f"{mnt}/a"), 1),
            (lambda: os.rename(f"{mnt}/a", f"{mnt}/b"), 2),
            (lambda: os.unlink(f"{mnt}/b"), 1),
        ]
        for step, paths in steps:
            del resolved[:]
            step()
            assert len(resolved) == paths, resolved
        assert interposer.shim.stats["passthrough_calls"] == 0

    def test_in_process_fsck_goes_around_the_shim(self, interposer, mnt, backend):
        """Recovery beside a live application (crash + ``repro-fsck`` in one
        process): fsck is library code, so it is on the route too."""
        from repro.plfs.fsck import fsck

        _create(f"{mnt}/a")
        before = interposer.shim.stats["passthrough_calls"]
        assert fsck(os.path.join(backend, "a")).ok
        assert interposer.shim.stats["passthrough_calls"] == before


@pytest.fixture
def counted(monkeypatch, mnt, backend):
    """An installed interposer whose ``RealOS`` snapshot counts: every
    patched ``os`` name (and ``open``) is wrapped *before* the snapshot is
    taken, the way an outer tracer would be."""
    counts: Counter = Counter()
    counts.pread_lengths = []  # in call order; not a count, so not an item
    counts.opened = []  # ``os.open`` and ``open`` paths, likewise

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            if name == "pread":
                counts.pread_lengths.append(args[1])
            elif name in ("open", "builtins.open"):
                counts.opened.append(args[0])
            return fn(*args, **kwargs)

        return call

    for name in _OS_PATCHES:
        if hasattr(os, name):
            monkeypatch.setattr(os, name, counting(name, getattr(os, name)))
    opener = counting("builtins.open", builtins.open)
    monkeypatch.setattr(builtins, "open", opener)
    monkeypatch.setattr(io, "open", opener)
    tempfile.gettempdir()
    with Interposer([(mnt, backend)]) as ip:
        yield ip, counts


def _spent(counts: Counter, step) -> Counter:
    before = Counter(counts)
    step()
    return counts - before


class TestRealCallBudget:
    """(b) real calls per operation; a re-introduced probe shows by name."""

    def test_create_stat_open_unlink_budgets(self, counted, mnt):
        _ip, counts = counted
        path = f"{mnt}/f"
        fds: list = []

        create = _spent(counts, lambda: fds.append(
            os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)))
        assert sum(create.values()) <= 9, create
        # an exclusive create wants the path absent: one failed stat of it
        assert create["stat"] == 1, create

        os.write(fds[0], b"x" * 512)
        close = _spent(counts, lambda: os.close(fds.pop()))
        # one dropping: nothing to compact (decision 17), and the rule that
        # says so needs a listing, not an epoch, and no look at openhosts/
        assert sum(close.values()) <= 9, close
        assert close["stat"] == 0 and close["listdir"] == 2, close

        stat = _spent(counts, lambda: os.stat(path))
        assert sum(stat.values()) <= 4, stat
        assert stat["stat"] == 1, stat  # the container directory only

        ropen = _spent(counts, lambda: fds.append(os.open(path, os.O_RDONLY)))
        assert sum(ropen.values()) <= 1, ropen
        assert ropen["stat"] == 1, ropen
        del counts.opened[:]
        got: list = []
        first = _spent(counts, lambda: got.append(os.read(fds[0], 1024)))
        assert got == [b"x" * 512]
        # The listing showed no ``global.index``, so none is probed for:
        # generation file, index dropping, data dropping — each opened once.
        assert sum(first.values()) <= 10, first
        assert first["open"] == 2 and first["builtins.open"] == 1, first
        assert not any(p.endswith("global.index") for p in counts.opened), counts.opened
        os.close(fds.pop())

        rename = _spent(counts, lambda: os.rename(path, f"{mnt}/g"))
        assert sum(rename.values()) <= 2, rename

        unlink = _spent(counts, lambda: os.unlink(f"{mnt}/g"))
        assert sum(unlink.values()) <= 16, unlink
        assert unlink["stat"] == 1, unlink

    def test_a_close_beside_another_write_handle_lists_nothing(self, counted, mnt):
        """This process still holds the container's marker: the compaction
        rule is the last handle's to consult, so this close skips it."""
        _ip, counts = counted
        first = os.open(f"{mnt}/f", os.O_WRONLY | os.O_CREAT)
        second = os.open(f"{mnt}/f", os.O_WRONLY)
        os.write(first, b"x" * 512)
        os.write(second, b"y" * 512)
        close = _spent(counts, lambda: os.close(first))
        assert close["listdir"] == 0, close
        close = _spent(counts, lambda: os.close(second))
        # the last one out: two droppings pay, so openhosts/ is looked at too
        assert close["listdir"] == 3, close

    def test_global_index_is_opened_only_where_the_listing_shows_it(self, counted, mnt, backend):
        from repro.plfs.cache import shared_cache
        from repro.plfs.tools import plfs_compact

        _ip, counts = counted
        _create(f"{mnt}/f")

        def cold_read() -> list:
            """What a read with nothing cached opens inside the container,
            by the first two parts of each name."""
            shared_cache().clear()
            del counts.opened[:]
            assert _read(f"{mnt}/f") == b"x" * 512
            inside = [p for p in counts.opened if p.startswith(backend)]
            return sorted(".".join(os.path.basename(p).split(".")[:2]) for p in inside)

        assert cold_read() == ["dropping.data", "dropping.index", "generation"]
        plfs_compact(os.path.join(backend, "f"))
        # ... and with one there, it is read in place of the index dropping
        assert cold_read() == ["dropping.data", "generation", "global.index"]

    def test_warm_reads_cost_one_fstat_plus_one_read_per_dropping(self, counted, mnt):
        """16 writers, strided 4 KiB blocks (the N-1 checkpoint): a warm
        positional read revalidates on the descriptor it already holds —
        no by-path ``stat`` — and reads each dropping it touches once."""
        _ip, counts = counted
        path, block, ranks, rounds = f"{mnt}/ckpt", 4096, 16, 32
        fds = [os.open(path, os.O_WRONLY | os.O_CREAT) for _ in range(ranks)]
        for r in range(rounds):
            for i, fd in enumerate(fds):
                os.pwrite(fd, bytes([i + 1]) * block, (r * ranks + i) * block)
        for fd in fds:
            os.close(fd)

        fd = os.open(path, os.O_RDONLY)
        first = _spent(counts, lambda: os.pread(fd, block, 0))
        # what the first read of a fresh handle cost before the generation
        # file was opened in place of being stat-ed: not one call more
        assert sum(first.values()) <= 38 + 1, first
        assert first["open"] == 2 and first["fstat"] == 0, first  # the dropping, the generation file

        aligned = _spent(counts, lambda: os.pread(fd, block, ranks * block))
        assert sum(aligned.values()) <= 2, aligned
        assert aligned["stat"] == 0 and aligned["fstat"] <= 1, aligned

        os.pread(fd, block, block + 100)  # opens droppings 1 and 2
        straddle = _spent(counts, lambda: os.pread(fd, block, block + 100))
        assert sum(straddle.values()) <= 3, straddle
        assert straddle["stat"] == 0 and straddle["fstat"] <= 1, straddle

        with open(path, "rb") as fh:
            whole = fh.read(1 << 20)  # builds this handle's index, opens 16 droppings
            assert whole == b"".join(bytes([i + 1]) * block for i in range(ranks)) * 16
            scan = _spent(counts, lambda: fh.read(1 << 20))
        # 256 slices: one preadv per dropping.  The two lseek are the
        # paper's cursor emulation on the shadow descriptor, not the read path's.
        assert scan["preadv"] == ranks and scan["fstat"] == 1 and scan["stat"] == 0, scan
        assert sum(scan.values()) - scan["lseek"] <= 17, scan

        close = _spent(counts, lambda: os.close(fd))
        assert close == {"close": 3 + 1 + 1}, close  # 3 droppings, generation file, shadow

    def test_a_follower_round_costs_what_was_appended(self, counted, mnt):
        """A reader descriptor following a writer descriptor (the monitor
        behind a checkpoint): per round the reader revalidates once, reads
        the index dropping's tail and nothing else of the index, and keeps
        its descriptors — whichever call of the round comes first pays."""
        from repro.plfs.cache import shared_cache

        ip, counts = counted
        path, block, per_round = f"{mnt}/shared", 512, 5
        w = os.open(path, os.O_WRONLY | os.O_CREAT)
        r = os.open(path, os.O_RDONLY)
        reader = None
        data_fds = set()
        for rnd in range(50):
            for j in reversed(range(per_round)):  # descending: no record merges
                os.pwrite(w, bytes([rnd + 1]) * block, (rnd * per_round + j) * block)
            sync = _spent(counts, lambda: os.fsync(w))
            assert sum(sync.values()) <= 4, sync  # index append, fsync, generation tmp + rename
            if reader is None:  # the first round builds; the rest follow
                assert os.fstat(r).st_size == per_round * block
                assert os.pread(r, block, 0) == bytes([1]) * block
                reader = ip.shim.table.lookup(r).plfs_fd._reader
            else:
                del counts.pread_lengths[:]
                behind = _spent(counts, lambda: os.fstat(r))
                assert sum(behind.values()) <= 11, behind
                assert behind["stat"] == 3 and behind["listdir"] == 2, behind
                assert counts.pread_lengths == [48 * per_round]
                first = _spent(counts, lambda at=rnd * per_round * block: os.pread(r, block, at))
                assert first == {"fstat": 1, "pread": 1}, first
            warm = _spent(counts, lambda: os.fstat(r))
            assert sum(warm.values()) <= 3 and warm["listdir"] == 0, warm
            assert os.lseek(r, 0, os.SEEK_END) == (rnd + 1) * per_round * block
            data_fds.add(reader._fd_cache[0])
        stats = shared_cache().stats
        assert stats["merged_builds"] + stats["compacted_loads"] == 1, stats
        assert stats["extensions"] == 49 and len(data_fds) == 1
        os.close(r)
        os.close(w)


    def test_an_rdwr_round_is_a_follower_round_on_one_descriptor(self, counted, mnt):
        """``pwrite``, ``pread``, ``pread`` on one ``O_RDWR`` descriptor: the
        first read pays the flush the handle orders ahead of it and then
        what a follower pays — the listing, the index tail — the second
        what a warm ``O_RDONLY`` read pays, and the data dropping opened by
        the first round's read is never opened again."""
        from repro.plfs.cache import shared_cache

        ip, counts = counted
        path, block, rounds = f"{mnt}/rw", 512, 20
        fd = os.open(path, os.O_RDWR | os.O_CREAT)
        os.pwrite(fd, b"\0" * block, 0)
        assert os.pread(fd, block, 0) == b"\0" * block
        reader = ip.shim.table.lookup(fd).plfs_fd._reader
        (data_path,) = reader._data_paths
        data_fd = reader._fd_cache[0]
        for rnd in range(1, rounds):
            at = 2 * rnd * block  # a hole before it: no record merges
            del counts.pread_lengths[:], counts.opened[:]
            write = _spent(counts, lambda: os.pwrite(fd, bytes([rnd]) * block, at))
            assert write == {"write": 1}, write
            first = _spent(counts, lambda: os.pread(fd, block, at))
            assert first == {
                "builtins.open": 2, "replace": 1,  # index append; generation tmp + rename
                "listdir": 2, "stat": 2,  # the listing and its epoch
                "open": 2, "close": 2,  # the generation file (old one closed), the index tail
                "pread": 2,
            }, first
            assert counts.pread_lengths == [48, block]  # one record of the index, the data
            assert data_path not in counts.opened and reader._fd_cache[0] == data_fd
            second = _spent(counts, lambda: os.pread(fd, block, at))
            assert second == {"fstat": 1, "pread": 1}, second
        assert reader.stats["index_builds"] == rounds
        assert reader.stats["cross_process_refreshes"] == 0
        stats = shared_cache().stats
        assert stats["merged_builds"] + stats["compacted_loads"] == 1, stats
        assert stats["extensions"] == rounds - 1
        os.close(fd)


def _frames(step) -> list[str]:
    """Names of the functions under ``repro/`` entered while *step* runs
    (``sys.setprofile`` ``call`` events: deterministic, no timing)."""
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    entered: list[str] = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        step()
    finally:
        sys.setprofile(None)
    return entered


class TestFrameBudget:
    """(c) Python frames per warm data call.  Each layer of the paper's
    ``Shim → plfs_* → WriteFile/ReadFile → BackingStore`` chain is crossed
    once; what a budget leaves no room for is a second look at something
    an outer frame already decided (access mode, buffer shape, which
    handle kind, whether a reader is behind).  CPython 3.10/3.11 counts;
    3.12 inlines comprehensions, which can only lower one."""

    BLOCK = b"x" * 4096

    @pytest.fixture(autouse=True)
    def _plain_frames_only(self, request):
        if request.config.getoption("--sanitize"):
            pytest.skip("plfs-san's wrappers are frames by design")

    @pytest.fixture
    def fd(self, interposer, mnt):
        fd = os.open(f"{mnt}/f", os.O_CREAT | os.O_RDWR)
        for i in range(8):  # warm: the dropping exists, its record merges
            os.pwrite(fd, self.BLOCK, i * 4096)
        os.pread(fd, 4096, 0)  # warm: index built, dropping open
        yield fd
        os.close(fd)

    @pytest.mark.parametrize(
        "budget, cursor, call",
        [
            (9, None, lambda fd, block: os.pwrite(fd, block, 8 * 4096)),
            (11, 8 * 4096, lambda fd, block: os.write(fd, block)),
            (15, None, lambda fd, block: os.pwritev(fd, [block, block], 8 * 4096)),
            (17, 8 * 4096, lambda fd, block: os.writev(fd, [block, block])),
            (11, None, lambda fd, block: os.pread(fd, 4096, 4096)),
            (13, 4096, lambda fd, block: os.read(fd, 4096)),
            (15, 4096, lambda fd, block: os.readv(fd, [bytearray(4096)])),
        ],
        ids=["pwrite", "write", "pwritev", "writev", "pread", "read", "readv"],
    )
    def test_descriptor_calls(self, fd, budget, cursor, call):
        for _ in range(2):  # the call that counts repeats a warm one
            if cursor is not None:
                os.lseek(fd, cursor, os.SEEK_SET)
            entered = _frames(lambda: call(fd, self.BLOCK))
        assert len(entered) <= budget, entered

    def test_raw_file_object_calls(self, interposer, mnt, fd):
        with open(f"{mnt}/f", "rb", buffering=0) as raw:
            dest = bytearray(4096)
            raw.readinto(dest)
            entered = _frames(lambda: raw.readinto(dest))
            assert len(entered) <= 16, entered
        with open(f"{mnt}/g", "wb", buffering=0) as raw:
            raw.write(self.BLOCK)
            entered = _frames(lambda: raw.write(self.BLOCK))
            assert len(entered) <= 16, entered

    def test_pass_through_stays_one(self, interposer, tmp_path):
        """A miss is the generated dispatch (named as the call) alone: its
        lookup is the fd table's ``dict.get``, and the Shim is not entered."""
        flat = os.open(str(tmp_path / "flat"), os.O_CREAT | os.O_RDWR)
        try:
            wrote = _frames(lambda: os.pwrite(flat, self.BLOCK, 0))
            read = _frames(lambda: os.pread(flat, 4096, 0))
        finally:
            os.close(flat)
        assert wrote == ["pwrite"] and read == ["pread"]

    def test_no_layer_is_routed_around(self, fd):
        """A budget met by skipping a layer would be no budget: the chain
        the paper draws is still walked, frame by frame: the generated
        dispatch, then the Shim's half, both named as the call."""
        wrote = _frames(lambda: os.pwrite(fd, self.BLOCK, 8 * 4096))
        assert [n for n in wrote if n in (
            "pwrite", "plfs_write", "write", "append", "write_data")] == [
            "pwrite", "pwrite", "plfs_write", "write", "append", "write_data"]
        read = _frames(lambda: os.pread(fd, 4096, 4096))
        assert [n for n in read if n in ("pread", "plfs_read", "read", "query")] == [
            "pread", "pread", "plfs_read", "read", "query"]


class TestBinding:
    """(e) bound exactly while an interposer is installed."""

    def test_unbound_is_os_by_name_at_call_time(self, monkeypatch):
        assert vars(posix) == {}
        assert posix.stat is os.stat and posix.builtins_open is builtins.open
        marker = object()
        monkeypatch.setattr(os, "stat", marker)
        assert posix.stat is marker  # looked up now, not at import

    def test_bound_to_the_installed_snapshot_across_nesting(self, mnt, backend):
        ip = Interposer([(mnt, backend)])
        ip.install()
        try:
            assert posix.stat is ip.real.stat
            assert posix.builtins_open is ip.real.builtins_open
            assert posix.stat is not os.stat  # os.stat is the shim's now
            ip.install()
            ip.uninstall()
            assert posix.stat is ip.real.stat  # still one level deep
        finally:
            ip.uninstall()
        assert vars(posix) == {}
        assert posix.stat is os.stat

    def test_failed_patch_leaves_nothing_installed_or_bound(
        self, mnt, backend, monkeypatch
    ):
        before = {name: getattr(os, name) for name in _OS_PATCHES if hasattr(os, name)}
        # a patch the Shim has no method for: _patch() fails half-way
        monkeypatch.setattr(interpose, "_OS_PATCHES", [*_OS_PATCHES, "getcwd"])
        ip = Interposer([(mnt, backend)])
        with pytest.raises(AttributeError):
            ip.install()
        assert not ip.installed and interpose.current() is None
        assert vars(posix) == {}
        assert all(getattr(os, name) is fn for name, fn in before.items())
        assert builtins.open is io.open is ip.real.builtins_open

    def test_rebinding_under_concurrent_plfs_io_loses_nothing(self, mnt, backend, tmp_path):
        """Threads inside PLFS while another installs and uninstalls: they
        see the route bound, unbound or half-way — every one of which is a
        real function, so no call may fail or land anywhere but on disk."""
        from repro import plfs

        stop = threading.Event()
        errors: list = []
        done = [0] * 4

        def worker(slot: int) -> None:
            path = str(tmp_path / f"direct{slot}")
            payload = bytes([65 + slot]) * 257
            try:
                while not stop.is_set():
                    fd = plfs.plfs_open(path, os.O_CREAT | os.O_RDWR | os.O_TRUNC)
                    plfs.plfs_write(fd, payload, len(payload), 0)
                    assert plfs.plfs_read(fd, 1024, 0) == payload
                    plfs.plfs_close(fd)
                    assert plfs.plfs_getattr(path).st_size == len(payload)
                    plfs.plfs_unlink(path)
                    done[slot] += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(done))]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 1.5
            flips = 0
            while time.monotonic() < deadline and not errors:
                with Interposer([(mnt, backend)]):
                    assert vars(posix)
                flips += 1
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert flips > 10 and all(n > 0 for n in done), (flips, done)
        assert vars(posix) == {}

    def test_snapshot_has_no_path_exists(self):
        # os.path.exists calls os.stat *by name*: it never was "real"
        assert not hasattr(RealOS.snapshot(), "path_exists")


class TestHelpers:
    def test_rmtree_refuses_a_symlinked_root_like_shutil(self, tmp_path):
        from repro.plfs.container import Container

        target = Container(str(tmp_path / "real"))
        target.create()
        link = str(tmp_path / "link")
        os.symlink(target.path, link)
        before = sorted(os.listdir(target.path))
        with pytest.raises(OSError, match="symbolic link"):
            Container(link).unlink()  # is_container() follows the link
        posix.rmtree(link, ignore_errors=True)
        assert sorted(os.listdir(target.path)) == before and os.path.islink(link)

    def test_rmtree_unlinks_symlinks_inside_without_following(self, tmp_path):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep").write_text("x")
        tree = tmp_path / "tree"
        (tree / "sub").mkdir(parents=True)
        os.symlink(str(outside), str(tree / "sub" / "link"))
        posix.rmtree(str(tree))
        assert not tree.exists() and (outside / "keep").read_text() == "x"


class TestShadowDescriptor:
    """The cursor's descriptor is an anonymous ``memfd``: it has no name,
    so an open neither needs the temporary directory nor touches it."""

    @pytest.mark.parametrize("kind", ["missing", "read-only"])
    def test_an_open_does_not_need_the_temp_dir(self, interposer, mnt, tmp_path, monkeypatch, kind):
        tmp = tmp_path / "tmp"
        if kind == "read-only":
            tmp.mkdir()
            tmp.chmod(0o555)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        fd = os.open(f"{mnt}/f", os.O_WRONLY | os.O_CREAT)
        try:
            assert os.write(fd, b"x") == 1
        finally:
            os.close(fd)
        with open(f"{mnt}/f", "rb") as fh:
            assert fh.read() == b"x"

    def test_no_entry_appears_in_the_temp_dir(self, counted, mnt, tmp_path, monkeypatch):
        _ip, counts = counted
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        del counts.opened[:]
        os.close(os.open(f"{mnt}/f", os.O_WRONLY | os.O_CREAT))
        os.close(os.open(f"{mnt}/f", os.O_RDONLY))
        assert not [p for p in counts.opened if p.startswith(str(tmp))], counts.opened
        assert list(tmp.iterdir()) == []

    def test_the_descriptor_is_a_memfd(self, interposer, mnt):
        fd = os.open(f"{mnt}/f", os.O_WRONLY | os.O_CREAT)
        try:
            assert os.readlink(f"/proc/self/fd/{fd}").startswith("/memfd:")
            assert not os.get_inheritable(fd)  # what os.open would have made
        finally:
            os.close(fd)

    def test_it_keeps_any_cursor_and_dup_shares_it(self, interposer, mnt):
        fd = os.open(f"{mnt}/f", os.O_RDWR | os.O_CREAT)
        dup = os.dup(fd)
        try:
            assert os.lseek(fd, 2**40, os.SEEK_SET) == 2**40
            assert os.lseek(dup, 0, os.SEEK_CUR) == 2**40
            os.lseek(dup, 5, os.SEEK_SET)
            assert os.lseek(fd, 0, os.SEEK_CUR) == 5
        finally:
            os.close(dup)
            os.close(fd)
