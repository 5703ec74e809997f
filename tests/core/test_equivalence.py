"""Stateful equivalence: a PLFS mount must be indistinguishable from a
plain directory.

Hypothesis drives random operation sequences against two trees at once —
a plain directory manipulated with the *original* functions (reference)
and a PLFS mount manipulated through the interposition layer (system
under test) — and checks contents, sizes and listings agree after every
step.  This is the strongest form of the paper's transparency claim.

Descriptors live across rules: up to two per file, opened with a sampled
access mode and any of ``O_APPEND``/``O_TRUNC``/``O_CREAT``/``O_EXCL``,
then driven with well-formed and malformed arguments.  Every descriptor
call is made on the flat file and on the mount and must agree on its
normalised outcome (return value or ``errno``); after every rule each pair
must agree on cursor and ``fstat().st_size``.  What the comparison is told
to overlook is DESIGN §5 decision 15's list, and nothing else:

- an argument past ``off_t`` is ``OverflowError`` on a flat file (it never
  reaches the kernel, whatever the descriptor) and ``EINVAL``, or ``EBADF``
  on the wrong access mode, on a mount: ``both`` accepts either;
- offsets between the file system's ``s_maxbytes`` and ``off_t`` (``EFBIG``
  flat, success on a mount) are not generated — a success would leave a
  file of that logical size for the next comparison to read back;
- a writer's bytes reach the file's *other* open descriptions, and calls
  by path, at its ``fsync`` or ``close`` (PLFS buffers index records per
  writer), where a flat file shows them at once: while a second descriptor
  is open on a file the machine follows every write with an ``fsync`` on
  both sides, and the by-path rules and comparisons leave a file alone
  until its descriptors are closed;
- truncating a file through one description while another holds it open
  leaves that one's writer behind (its high-water mark, the droppings it
  appends to): a second ``open`` is made without ``O_TRUNC`` and
  ``ftruncate`` goes to files with one descriptor;
- offset -1 means "at the cursor, and move it" to Linux's ``preadv2`` /
  ``pwritev2``, which ``os.preadv``/``os.pwritev`` call; a mount refuses it
  like every other negative offset (``EINVAL``): the flat file is asked
  with -2 in its place;
- unlink/rename of a file with open descriptors are not rules yet.
"""

from __future__ import annotations

import errno
import os
import shutil
import stat
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.interpose import Interposer

FILE_NAMES = ["a.dat", "b.txt", "c"]
OFF_MAX = 2**63 - 1
payloads = st.binary(min_size=0, max_size=200)
names = st.sampled_from(FILE_NAMES)
offsets = st.integers(min_value=0, max_value=500)
#: ... and the ones the kernel, or ``os`` itself, refuses
bad_offsets = st.sampled_from([-1, -500, OFF_MAX + 1])
any_offsets = st.one_of(offsets, offsets, bad_offsets)  # two in three well-formed
counts = st.one_of(st.integers(0, 300), st.just(-1))
#: a bit per open descriptor pair (two on each of three files)
some = st.integers(1, 63)
open_flags = st.builds(
    lambda mode, extra: mode | sum(extra),
    st.sampled_from([os.O_RDONLY, os.O_WRONLY, os.O_RDWR]),
    st.sets(st.sampled_from([os.O_APPEND, os.O_TRUNC, os.O_CREAT, os.O_EXCL])),
)


PAST_OFF_T = ("raised", "OverflowError")


def outcome(call, *args):
    """What *call* returned, or the errno it raised."""
    try:
        return call(*args)
    except OverflowError:
        return PAST_OFF_T
    except OSError as exc:
        return ("errno", exc.errno)


def scatter_read(fd, sizes):
    buffers = [bytearray(n) for n in sizes]
    return os.readv(fd, buffers), buffers


def scatter_pread(fd, sizes, offset):
    buffers = [bytearray(n) for n in sizes]
    return os.preadv(fd, buffers, offset), buffers


def not_at_the_cursor(offset: int) -> int:
    """What the flat file is asked in place of -1 (see the module docstring)."""
    return -2 if offset == -1 else offset


class MountEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.base = tempfile.mkdtemp(prefix="ldplfs-equiv-")
        self.ref_dir = os.path.join(self.base, "reference")
        os.mkdir(self.ref_dir)
        backend = os.path.join(self.base, "backend")
        self.mnt = os.path.join(self.base, "mnt")
        self.interposer = Interposer([(self.mnt, backend)])
        self.interposer.install()
        self.real = self.interposer.real
        #: open descriptor pairs, (file name, flat fd, mount fd)
        self.pairs: list[tuple[str, int, int]] = []

    def open_on(self, *file_names) -> int:
        return sum(pair[0] in file_names for pair in self.pairs)

    def both(self, pair, call, *args, flat=None):
        """*call* on the flat descriptor (with *flat*, if its arguments are
        to differ), then on the mount's: one outcome."""
        _, ref_fd, sut_fd = pair
        expected = outcome(call, ref_fd, *(args if flat is None else flat))
        got = outcome(call, sut_fd, *args)
        if expected == PAST_OFF_T and got in (("errno", errno.EINVAL), ("errno", errno.EBADF)):
            expected = got
        assert got == expected, (call.__name__, args)

    def chosen(self, which: int) -> list:
        """The open pairs *which*'s bits select (the first, if none)."""
        return [p for i, p in enumerate(self.pairs) if which >> i & 1] or self.pairs[:1]

    def each(self, which, call, *args, sync=False, flat=None):
        for pair in self.chosen(which):
            self.both(pair, call, *args, flat=flat)
            if sync and self.open_on(pair[0]) > 1:
                self.both(pair, os.fsync)  # where another description sees it

    # ------------------------------------------------------------------ #
    # operations (each applied to both trees)
    # ------------------------------------------------------------------ #

    @rule(name=names, payload=payloads)
    def write_file(self, name, payload):
        if self.open_on(name):
            return
        with open(f"{self.mnt}/{name}", "wb") as fh:  # interposed
            fh.write(payload)
        with self.real.builtins_open(f"{self.ref_dir}/{name}", "wb") as fh:
            fh.write(payload)

    @rule(name=names, payload=payloads)
    def append_file(self, name, payload):
        if self.open_on(name):
            return
        for root, opener in (
            (self.mnt, open),
            (self.ref_dir, self.real.builtins_open),
        ):
            with opener(f"{root}/{name}", "ab") as fh:
                fh.write(payload)

    @rule(name=names, payload=payloads, offset=offsets)
    def pwrite_file(self, name, payload, offset):
        if self.open_on(name):
            return
        flags = os.O_CREAT | os.O_WRONLY
        fd = os.open(f"{self.mnt}/{name}", flags)
        os.pwrite(fd, payload, offset)
        os.close(fd)
        fd = self.real.open(f"{self.ref_dir}/{name}", flags)
        os.pwrite(fd, payload, offset)  # plain fd: shim passes through
        os.close(fd)

    @rule(name=names)
    def unlink_file(self, name):
        if self.open_on(name):
            return
        existed_sut = os.path.exists(f"{self.mnt}/{name}")
        existed_ref = os.path.exists(f"{self.ref_dir}/{name}")
        assert existed_sut == existed_ref
        if existed_ref:
            os.unlink(f"{self.mnt}/{name}")
            self.real.unlink(f"{self.ref_dir}/{name}")

    @rule(src=names, dst=names)
    def rename_file(self, src, dst):
        if src == dst or not os.path.exists(f"{self.mnt}/{src}") or self.open_on(src, dst):
            return
        os.replace(f"{self.mnt}/{src}", f"{self.mnt}/{dst}")
        self.real.replace(f"{self.ref_dir}/{src}", f"{self.ref_dir}/{dst}")

    @rule(name=names, size=st.integers(0, 300))
    def truncate_file(self, name, size):
        if self.open_on(name) or not os.path.exists(f"{self.mnt}/{name}"):
            return
        os.truncate(f"{self.mnt}/{name}", size)
        self.real.truncate(f"{self.ref_dir}/{name}", size)

    @rule(name=st.one_of(names, st.sampled_from(["", "nothing-here"])))
    def stat_path(self, name):
        """``stat`` by path of a logical file, of the directory, of nothing."""
        if self.open_on(name):
            return

        def seen(root):
            info = os.stat(os.path.join(root, name))
            size = info.st_size if stat.S_ISREG(info.st_mode) else None
            return stat.S_IFMT(info.st_mode), size

        assert outcome(seen, self.mnt) == outcome(seen, self.ref_dir), name

    # ------------------------------------------------------------------ #
    # long-lived descriptors (each call made on both, outcomes compared)
    # ------------------------------------------------------------------ #

    @initialize(contents=st.dictionaries(names, payloads), name=names, flags=open_flags)
    def files_and_a_first_descriptor(self, contents, name, flags):
        for existing, payload in contents.items():
            self.write_file(name=existing, payload=payload)
        self.open_descriptor(name=name, flags=flags)

    @rule(name=names, flags=open_flags)
    def open_descriptor(self, name, flags):
        if self.open_on(name) == 2:
            return
        for pair in self.pairs:
            if pair[0] == name:
                self.both(pair, os.fsync)  # the new description's view
                flags &= ~os.O_TRUNC
        ref_fd = outcome(os.open, f"{self.ref_dir}/{name}", flags, 0o644)
        sut_fd = outcome(os.open, f"{self.mnt}/{name}", flags, 0o644)
        if isinstance(ref_fd, int) and isinstance(sut_fd, int):
            self.pairs.append((name, ref_fd, sut_fd))
            return
        for fd in (ref_fd, sut_fd):
            if isinstance(fd, int):
                os.close(fd)
        assert sut_fd == ref_fd, f"open({name}, {flags:#o})"

    open_pair = precondition(lambda self: self.pairs)

    @open_pair
    @rule(which=some)
    def dup_descriptor(self, which):
        name, ref_fd, sut_fd = self.chosen(which)[0]
        if self.open_on(name) < 2:
            self.pairs.append((name, os.dup(ref_fd), os.dup(sut_fd)))

    @open_pair
    @rule(which=some)
    def close_descriptor(self, which):
        pair = self.chosen(which)[0]
        self.pairs.remove(pair)
        # ... and used once more, closed: no fd is opened in between, so the
        # numbers cannot have come to mean anything else
        for call, args in ((os.close, ()), (os.fstat, ()), (os.write, (b"x",))):
            for fd in pair[1:]:
                got = outcome(call, fd, *args)
                assert got in (None, ("errno", errno.EBADF)), (call.__name__, got)

    @open_pair
    @rule(which=some, n=counts)
    def read_descriptors(self, which, n):
        self.each(which, os.read, n)

    @open_pair
    @rule(which=some, payload=payloads)
    def write_descriptors(self, which, payload):
        self.each(which, os.write, payload, sync=True)

    @open_pair
    @rule(which=some, n=counts, offset=any_offsets)
    def pread_descriptors(self, which, n, offset):
        self.each(which, os.pread, n, offset)

    @open_pair
    @rule(which=some, payload=payloads, offset=any_offsets)
    def pwrite_descriptors(self, which, payload, offset):
        self.each(which, os.pwrite, payload, offset, sync=True)

    @open_pair
    @rule(which=some, sizes=st.lists(st.integers(0, 100), max_size=3))
    def readv_descriptors(self, which, sizes):
        self.each(which, scatter_read, sizes)

    @open_pair
    @rule(which=some, buffers=st.lists(st.binary(max_size=80), max_size=3))
    def writev_descriptors(self, which, buffers):
        self.each(which, os.writev, buffers, sync=True)

    @open_pair
    @rule(which=some, sizes=st.lists(st.integers(0, 100), min_size=1, max_size=3),
          offset=any_offsets)
    def preadv_descriptors(self, which, sizes, offset):
        self.each(which, scatter_pread, sizes, offset,
                  flat=(sizes, not_at_the_cursor(offset)))

    @open_pair
    @rule(which=some, buffers=st.lists(st.binary(max_size=80), min_size=1, max_size=3),
          offset=any_offsets)
    def pwritev_descriptors(self, which, buffers, offset):
        self.each(which, os.pwritev, buffers, offset, sync=True,
                  flat=(buffers, not_at_the_cursor(offset)))

    @open_pair
    @rule(
        which=some,
        pos=st.one_of(any_offsets, st.integers(-300, 0)),
        whence=st.sampled_from([os.SEEK_SET, os.SEEK_CUR, os.SEEK_END]),
    )
    def lseek_descriptors(self, which, pos, whence):
        self.each(which, os.lseek, pos, whence)

    @open_pair
    @rule(which=some, size=any_offsets)
    def ftruncate_descriptors(self, which, size):
        for pair in self.chosen(which):
            if self.open_on(pair[0]) == 1:
                self.both(pair, os.ftruncate, size)

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def descriptors_agree(self):
        for pair in self.pairs:
            self.both(pair, os.lseek, 0, os.SEEK_CUR)
            self.both(pair, lambda fd: stat.S_IFMT(os.fstat(fd).st_mode))
            self.both(pair, lambda fd: os.fstat(fd).st_size)

    @invariant()
    def trees_agree(self):
        sut_names = sorted(os.listdir(self.mnt))
        ref_names = sorted(self.real.listdir(self.ref_dir))
        assert sut_names == ref_names
        for name in ref_names:
            if self.open_on(name):
                continue
            ref_path = f"{self.ref_dir}/{name}"
            sut_path = f"{self.mnt}/{name}"
            with self.real.builtins_open(ref_path, "rb") as fh:
                expected = fh.read()
            assert os.stat(sut_path).st_size == len(expected)
            with open(sut_path, "rb") as fh:
                assert fh.read() == expected

    def teardown(self):
        try:
            if sys.exc_info()[1] is None:  # else: a rule failed, and said so
                while self.pairs:
                    self.both(self.pairs.pop(), os.close)
                self.trees_agree()  # final bytes, every descriptor closed
        finally:
            self.drain_and_remove()

    def drain_and_remove(self):
        try:
            for _, ref_fd, _ in self.pairs:  # left open by a failing rule
                os.close(ref_fd)
            self.interposer.drain()
            self.interposer.uninstall()
        finally:
            shutil.rmtree(self.base, ignore_errors=True)


MountEquivalence.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestMountEquivalence = MountEquivalence.TestCase

#: what the machine found, shrunk, and the shim or PLFS was changed for:
#: replayed through the same rules and the same comparison on every run
COUNTEREXAMPLES = {
    "pwrite on O_APPEND lands at end of file": [
        ("open_descriptor", dict(name="c", flags=os.O_CREAT | os.O_RDWR | os.O_APPEND)),
        ("write_descriptors", dict(which=1, payload=b"AAAA")),
        ("pwrite_descriptors", dict(which=1, payload=b"bb", offset=0)),
    ],
    "O_RDONLY|O_TRUNC truncates": [
        ("append_file", dict(name="a.dat", payload=b"\x00")),
        ("open_descriptor", dict(name="a.dat", flags=os.O_RDONLY | os.O_TRUNC)),
    ],
    "ftruncate past off_t is refused": [
        ("open_descriptor", dict(name="a.dat", flags=os.O_CREAT | os.O_WRONLY)),
        ("ftruncate_descriptors", dict(which=1, size=OFF_MAX + 1)),
    ],
    "preadv past off_t is refused": [
        ("open_descriptor", dict(name="a.dat", flags=os.O_CREAT | os.O_RDWR)),
        ("preadv_descriptors", dict(which=1, sizes=[0], offset=OFF_MAX + 1)),
        ("pwritev_descriptors", dict(which=1, buffers=[b"ab", b"", b"c"], offset=-1)),
    ],
    # not a counterexample: the O_RDWR lane (a handle that flushes its own
    # appends ahead of its read, then is extended), reached on every run
    "an O_RDWR descriptor reads its own writes, twice": [
        ("open_descriptor", dict(name="c", flags=os.O_CREAT | os.O_RDWR)),
        ("pwrite_descriptors", dict(which=1, payload=b"0123456789", offset=0)),
        ("pread_descriptors", dict(which=1, n=20, offset=0)),
        ("pwritev_descriptors", dict(which=1, buffers=[b"ab", b"cd"], offset=4)),
        ("preadv_descriptors", dict(which=1, sizes=[3, 0, 20], offset=2)),
        ("write_descriptors", dict(which=1, payload=b"tail")),
        ("read_descriptors", dict(which=1, n=30)),
    ],
    "a writer replaced by ftruncate is flushed ahead of the next read": [
        ("open_descriptor", dict(name="c", flags=os.O_CREAT | os.O_RDWR)),
        ("pwrite_descriptors", dict(which=1, payload=b"0123456789", offset=0)),
        ("pread_descriptors", dict(which=1, n=20, offset=0)),
        ("ftruncate_descriptors", dict(which=1, size=0)),
        ("pwrite_descriptors", dict(which=1, payload=b"abc", offset=0)),
        ("pread_descriptors", dict(which=1, n=20, offset=0)),
        ("ftruncate_descriptors", dict(which=1, size=2)),
        ("pwrite_descriptors", dict(which=1, payload=b"xyz", offset=1)),
        ("pread_descriptors", dict(which=1, n=20, offset=0)),
    ],
}


@pytest.mark.parametrize("found", COUNTEREXAMPLES)
def test_shrunk_counterexamples_stay_fixed(found):
    state = MountEquivalence()
    try:
        for rule_name, arguments in COUNTEREXAMPLES[found]:
            getattr(state, rule_name)(**arguments)
            state.descriptors_agree()
            state.trees_agree()
    finally:
        state.teardown()
