"""Tests for the fault injector itself: specs, determinism, arming."""

from __future__ import annotations

import errno
import os

import pytest

from repro import plfs
from repro.faults import (
    FaultInjector,
    FaultSpec,
    FaultyBackingStore,
    InjectedCrash,
    injector_from_env,
)
from repro.faults.injector import ENV_SEED, ENV_SPECS, parse_specs
from repro.plfs import backing
from repro.plfs.index import RECORD_SIZE


class TestFaultSpec:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("frobnicate", "crash")

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("data_write", "explode")

    def test_spent_after_count(self):
        spec = FaultSpec("data_write", "eintr", every=1, count=2)
        inj = FaultInjector([spec])
        hits = [inj.decide("data_write")[0] for _ in range(5)]
        assert [s is not None for s in hits] == [True, True, False, False, False]
        assert spec.spent()


class TestParseSpecs:
    def test_round_trip(self):
        [a, b] = parse_specs(
            "data_write:eintr:every=5;data_write:short:every=7:bytes=3"
        )
        assert (a.point, a.behavior, a.every) == ("data_write", "eintr", 5)
        assert (b.behavior, b.every, b.short_bytes) == ("short", 7, 3)

    def test_all_keys(self):
        [s] = parse_specs("index_flush:torn:op=2:count=inf:prob=0.5")
        assert s.op == 2 and s.count is None and s.prob == 0.5

    def test_empty_parts_skipped(self):
        assert parse_specs(";data_write:crash;") != []

    def test_missing_behavior_rejected(self):
        with pytest.raises(ValueError):
            parse_specs("data_write")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_specs("data_write:crash:when=later")


class TestDeterminism:
    def run_decisions(self, seed: int) -> list[bool]:
        inj = FaultInjector(
            [FaultSpec("data_write", "eintr", prob=0.3, count=None)], seed=seed
        )
        return [inj.decide("data_write")[0] is not None for _ in range(50)]

    def test_same_seed_same_decisions(self):
        assert self.run_decisions(7) == self.run_decisions(7)

    def test_different_seed_different_decisions(self):
        assert self.run_decisions(7) != self.run_decisions(8)

    def test_op_predicate_is_exact(self):
        inj = FaultInjector([FaultSpec("data_write", "crash", op=3)])
        fired = [inj.decide("data_write")[0] is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_points_count_independently(self):
        inj = FaultInjector([FaultSpec("index_flush", "crash", op=1)])
        assert inj.decide("data_write")[0] is None
        spec, n = inj.decide("index_flush")
        assert spec is not None and n == 1


class TestArmed:
    def test_armed_installs_and_restores(self):
        before = backing.installed
        inj = FaultInjector([])
        with inj.armed():
            assert isinstance(backing.installed, FaultyBackingStore)
        assert backing.installed is before

    def test_armed_restores_after_crash(self):
        before = backing.installed
        inj = FaultInjector([FaultSpec("data_write", "crash", op=1)])
        with pytest.raises(InjectedCrash):
            with inj.armed():
                backing.installed.write_data(-1, b"x", "/nope")
        assert backing.installed is before

    def test_armed_wraps_the_store_installed_at_arming_time(self):
        """Arming over another interposer injects into its operations,
        not around them into a fresh default store."""

        class Recording(backing.BackingStore):
            def __init__(self):
                self.writes = []

            def write_data(self, fd, buf, path):
                self.writes.append(bytes(buf))
                return len(buf)

        recording = Recording()
        previous = backing.install(recording)
        try:
            inj = FaultInjector([FaultSpec("data_write", "enospc", op=2)])
            with inj.armed():
                assert backing.installed.inner is recording
                assert backing.installed.write_data(-1, b"first", "/nope") == 5
                with pytest.raises(OSError):
                    backing.installed.write_data(-1, b"second", "/nope")
            assert backing.installed is recording and recording.writes == [b"first"]
        finally:
            backing.install(previous)

    def test_injected_crash_is_not_an_exception(self):
        # Library except-Exception cleanup must not swallow the "kill".
        assert not issubclass(InjectedCrash, Exception)


class TestBehaviorsThroughPlfs:
    """Each behaviour observed through a real plfs_write."""

    def write_under(self, path, spec, payload=b"A" * 64):
        inj = FaultInjector([spec])
        fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
        try:
            with inj.armed():
                return inj, plfs.plfs_write(fd, payload, len(payload), 0)
        finally:
            try:
                plfs.plfs_close(fd)
            except OSError:
                pass

    def test_short_write_persists_prefix(self, container_path):
        inj, n = self.write_under(
            container_path, FaultSpec("data_write", "short", op=1, short_bytes=3)
        )
        assert n == 3
        [event] = inj.fired("data_write")
        assert (event.requested, event.actual) == (64, 3)

    @pytest.mark.parametrize(
        "behavior,expected_errno",
        [("eintr", errno.EINTR), ("eagain", errno.EAGAIN), ("enospc", errno.ENOSPC)],
    )
    def test_errno_behaviors(self, container_path, behavior, expected_errno):
        with pytest.raises(OSError) as exc:
            self.write_under(
                container_path, FaultSpec("data_write", behavior, op=1)
            )
        assert exc.value.errno == expected_errno

    def test_torn_index_tears_mid_record(self, container_path):
        inj = FaultInjector([FaultSpec("index_flush", "torn", op=1)])
        fd = plfs.plfs_open(container_path, os.O_CREAT | os.O_WRONLY)
        plfs.plfs_write(fd, b"B" * 32, 32, 0)
        with pytest.raises(InjectedCrash):
            with inj.armed():
                plfs.plfs_sync(fd)
        [event] = inj.fired("index_flush")
        assert 0 < event.actual < event.requested
        assert event.actual % RECORD_SIZE != 0  # a genuinely partial record
        [(index_path, _)] = plfs.Container(container_path).droppings()
        assert os.path.getsize(index_path) == event.actual


class TestEnvActivation:
    def test_unset_gives_none(self):
        assert injector_from_env({}) is None

    def test_specs_and_seed(self):
        inj = injector_from_env(
            {ENV_SPECS: "data_write:eintr:every=5", ENV_SEED: "42"}
        )
        assert inj is not None and inj.seed == 42
        assert inj.specs[0].every == 5
