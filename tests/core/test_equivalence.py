"""Stateful equivalence: a PLFS mount must be indistinguishable from a
plain directory.

Hypothesis drives random operation sequences against two trees at once —
a plain directory manipulated with the *original* functions (reference)
and a PLFS mount manipulated through the interposition layer (system
under test) — and checks contents, sizes and listings agree after every
step.  This is the strongest form of the paper's transparency claim.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.interpose import Interposer

FILE_NAMES = ["a.dat", "b.txt", "c"]
payloads = st.binary(min_size=0, max_size=200)
names = st.sampled_from(FILE_NAMES)
offsets = st.integers(min_value=0, max_value=500)


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

    # ------------------------------------------------------------------ #
    # operations (each applied to both trees)
    # ------------------------------------------------------------------ #

    @rule(name=names, payload=payloads)
    def write_file(self, name, payload):
        with open(f"{self.mnt}/{name}", "wb") as fh:  # interposed
            fh.write(payload)
        with self.real.builtins_open(f"{self.ref_dir}/{name}", "wb") as fh:
            fh.write(payload)

    @rule(name=names, payload=payloads)
    def append_file(self, name, payload):
        for root, opener in (
            (self.mnt, open),
            (self.ref_dir, self.real.builtins_open),
        ):
            with opener(f"{root}/{name}", "ab") as fh:
                fh.write(payload)

    @rule(name=names, payload=payloads, offset=offsets)
    def pwrite_file(self, name, payload, offset):
        flags = os.O_CREAT | os.O_WRONLY
        fd = os.open(f"{self.mnt}/{name}", flags)
        os.pwrite(fd, payload, offset)
        os.close(fd)
        fd = self.real.open(f"{self.ref_dir}/{name}", flags)
        os.pwrite(fd, payload, offset)  # plain fd: shim passes through
        os.close(fd)

    @rule(name=names)
    def unlink_file(self, name):
        existed_sut = os.path.exists(f"{self.mnt}/{name}")
        existed_ref = os.path.exists(f"{self.ref_dir}/{name}")
        assert existed_sut == existed_ref
        if existed_ref:
            os.unlink(f"{self.mnt}/{name}")
            self.real.unlink(f"{self.ref_dir}/{name}")

    @rule(src=names, dst=names)
    def rename_file(self, src, dst):
        if src == dst or not os.path.exists(f"{self.mnt}/{src}"):
            return
        os.replace(f"{self.mnt}/{src}", f"{self.mnt}/{dst}")
        self.real.replace(f"{self.ref_dir}/{src}", f"{self.ref_dir}/{dst}")

    @rule(name=names, size=st.integers(0, 300))
    def truncate_file(self, name, size):
        if not os.path.exists(f"{self.mnt}/{name}"):
            return
        os.truncate(f"{self.mnt}/{name}", size)
        self.real.truncate(f"{self.ref_dir}/{name}", size)

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def trees_agree(self):
        sut_names = sorted(os.listdir(self.mnt))
        ref_names = sorted(self.real.listdir(self.ref_dir))
        assert sut_names == ref_names
        for name in ref_names:
            ref_path = f"{self.ref_dir}/{name}"
            sut_path = f"{self.mnt}/{name}"
            with self.real.builtins_open(ref_path, "rb") as fh:
                expected = fh.read()
            assert os.stat(sut_path).st_size == len(expected)
            with open(sut_path, "rb") as fh:
                assert fh.read() == expected

    def teardown(self):
        try:
            self.interposer.drain()
            self.interposer.uninstall()
        finally:
            shutil.rmtree(self.base, ignore_errors=True)


MountEquivalence.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestMountEquivalence = MountEquivalence.TestCase
