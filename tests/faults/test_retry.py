"""Shim retry policy: transient faults invisible to the application.

LDPLFS's premise is running applications unmodified — applications that
never loop on EINTR or resume short writes.  These tests arm the injector
under an installed interposer and assert the application-visible behaviour
is a plain, complete ``os.write``/``os.read``.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.core import RetryPolicy
from repro.core.interpose import Interposer
from repro.faults import FaultInjector, FaultSpec
from repro.plfs import api as plfs_api


@pytest.fixture
def f(mnt):
    return f"{mnt}/file"


class TestPolicySchedule:
    def test_delays_backoff_and_cap(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=0.01, backoff_factor=4.0, backoff_max=0.1
        )
        assert policy.delays() == [0.01, 0.04, 0.1, 0.1]

    def test_one_attempt_never_sleeps(self):
        assert RetryPolicy(max_attempts=1).delays() == []


@pytest.fixture
def slept():
    return []


@pytest.fixture
def shim_under(mnt, backend, slept):
    """An installed interposer whose retry policy records sleeps instead
    of sleeping."""
    policy = RetryPolicy(backoff_base=0.001, backoff_factor=2.0)
    policy.sleep = slept.append
    ip = Interposer([(mnt, backend)])
    ip.shim.retry = policy
    ip.install()
    try:
        yield ip.shim
    finally:
        ip.drain()
        ip.uninstall()


class TestTransientAbsorption:
    def test_single_eintr_absorbed(self, shim_under, slept, f):
        inj = FaultInjector([FaultSpec("data_write", "eintr", op=1)])
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_WRONLY)
            assert os.write(fd, b"A" * 64) == 64
            os.close(fd)
        assert shim_under.stats["transient_retries"] == 1
        assert slept == shim_under.retry.delays()[:1]

    def test_repeated_eintr_backs_off_exponentially(self, shim_under, slept, f):
        inj = FaultInjector([FaultSpec("data_write", "eintr", every=1, count=3)])
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_WRONLY)
            assert os.write(fd, b"B" * 16) == 16
            os.close(fd)
        assert shim_under.stats["transient_retries"] == 3
        assert slept == shim_under.retry.delays()[:3]
        assert slept == [0.001, 0.002, 0.004]

    def test_eagain_also_transient(self, shim_under, f):
        inj = FaultInjector([FaultSpec("data_write", "eagain", op=1)])
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_WRONLY)
            assert os.write(fd, b"C" * 8) == 8
            os.close(fd)
        assert shim_under.stats["transient_retries"] == 1

    def test_short_write_resumed_to_completion(self, shim_under, f):
        inj = FaultInjector(
            [FaultSpec("data_write", "short", op=1, short_bytes=10)]
        )
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_RDWR)
            assert os.write(fd, b"D" * 64) == 64  # one call, fully written
            assert os.pread(fd, 100, 0) == b"D" * 64
            os.close(fd)
        assert shim_under.stats["short_write_resumes"] == 1

    def test_exhaustion_surfaces_the_errno(self, shim_under, slept, f):
        shim_under.retry.max_attempts = 3
        inj = FaultInjector(
            [FaultSpec("data_write", "eintr", every=1, count=None)]
        )
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_WRONLY)
            with pytest.raises(InterruptedError):
                os.write(fd, b"x")
            os.close(fd)
        assert len(slept) == 2  # max_attempts - 1 sleeps, then it raises
        assert shim_under.stats["transient_retries"] == 2

    def test_nontransient_not_retried(self, shim_under, slept, f):
        inj = FaultInjector([FaultSpec("data_write", "enospc", op=1)])
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_WRONLY)
            with pytest.raises(OSError) as exc:
                os.write(fd, b"x")
            assert exc.value.errno == errno.ENOSPC
            os.close(fd)
        assert slept == []
        assert shim_under.stats["transient_retries"] == 0

    def test_faulted_write_is_fully_consistent_after(self, shim_under, f):
        """After absorption, container state equals an unfaulted run."""
        inj = FaultInjector(
            "data_write:eintr:every=3:count=inf;"
            "data_write:short:every=4:count=inf:bytes=5",
            seed=1,
        )
        payload = bytes(range(256)) * 4
        with inj.armed():
            fd = os.open(f, os.O_CREAT | os.O_RDWR)
            for i in range(8):
                assert os.write(fd, payload) == len(payload)
            assert os.pread(fd, 8 * len(payload), 0) == payload * 8
            os.close(fd)
        assert shim_under.stats["transient_retries"] > 0
        assert shim_under.stats["short_write_resumes"] > 0


class TestReadAbsorption:
    """Reads make their first attempt directly and enter the policy's loop
    only from its ``except``: same attempts, sleeps and counters as writes."""

    @pytest.fixture
    def flaky(self, monkeypatch):
        """``flaky(name, failures, err)``: the next *failures* calls of
        ``plfs_api.<name>`` raise *err*; returns the list of attempts."""

        def arm(name, failures, err=InterruptedError(errno.EINTR, "interrupted")):
            real, attempts = getattr(plfs_api, name), []

            def call(*args):
                attempts.append(args)
                if len(attempts) <= failures:
                    raise err
                return real(*args)

            monkeypatch.setattr(plfs_api, name, call)
            return attempts

        return arm

    @pytest.fixture
    def fd(self, shim_under, f):
        fd = os.open(f, os.O_CREAT | os.O_RDWR)
        os.write(fd, b"0123456789")
        os.lseek(fd, 0, os.SEEK_SET)
        yield fd
        os.close(fd)

    def test_pread_and_read_absorb_transients(self, shim_under, slept, fd, flaky):
        attempts = flaky("plfs_read", 2)
        assert os.pread(fd, 4, 3) == b"3456"
        assert len(attempts) == 3 and slept == [0.001, 0.002]
        assert shim_under.stats["transient_retries"] == 2
        attempts = flaky("plfs_read", 1, BlockingIOError(errno.EAGAIN, "again"))
        assert os.read(fd, 4) == b"0123" and os.lseek(fd, 0, os.SEEK_CUR) == 4
        assert len(attempts) == 2 and shim_under.stats["transient_retries"] == 3

    def test_readv_and_file_objects_absorb_transients(self, shim_under, fd, flaky, f):
        attempts = flaky("plfs_read_into", 1)
        head, tail = bytearray(2), bytearray(3)
        assert os.readv(fd, [head, tail]) == 5 and head + tail == b"01234"
        assert os.preadv(fd, [head], 8) == 2 and head == b"89"
        assert len(attempts) == 3 and shim_under.stats["transient_retries"] == 1
        attempts = flaky("plfs_read_into", 1)
        with open(f, "rb", buffering=0) as raw:
            dest = bytearray(4)
            assert raw.readinto(dest) == 4 and dest == b"0123"
        assert shim_under.stats["transient_retries"] == 2

    def test_exhaustion_and_nontransient_surface(
        self, shim_under, slept, fd, flaky, monkeypatch
    ):
        shim_under.retry.max_attempts = 3
        attempts = flaky("plfs_read", 99)
        with pytest.raises(InterruptedError):
            os.pread(fd, 4, 0)
        assert len(attempts) == 3 and len(slept) == 2  # max_attempts in all
        assert shim_under.stats["transient_retries"] == 2
        attempts = flaky("plfs_read", 99, OSError(errno.EIO, "bad"))
        with pytest.raises(OSError) as exc:
            os.pread(fd, 4, 0)
        assert exc.value.errno == errno.EIO and len(attempts) == 1 and len(slept) == 2
        # a transient first failure followed by a hard one: the hard one wins
        errors = iter([InterruptedError(errno.EINTR, "x"), OSError(errno.EIO, "bad")])

        def failing(*args):
            raise next(errors)

        monkeypatch.setattr(plfs_api, "plfs_read", failing)
        with pytest.raises(OSError) as exc:
            os.pread(fd, 4, 0)
        assert exc.value.errno == errno.EIO
