"""Tests for the severity-graded issue detectors."""

from __future__ import annotations

import pytest

from repro.cluster import SIERRA
from repro.insights import ALL_RULES, run_rules, validate_thresholds
from repro.insights.metrics import IORunProfile
from repro.insights.rules import (
    detect_buffered_opacity,
    detect_fault_degraded_run,
    detect_fuse_request_chunking,
    detect_mds_create_storm,
    detect_metadata_heavy,
    detect_random_access,
    detect_rank_imbalance,
    detect_shared_file_lock_serialisation,
    detect_small_writes_shared_file,
    detect_stream_overprovision,
    detect_uncollective_strided_writes,
    detect_unflattened_index_reopen,
)
from repro.lint.findings import RULES, Severity
from repro.mpiio import LDPLFS, MPIIO
from repro.workloads import run_bt


def make_profile(**kwargs) -> IORunProfile:
    return IORunProfile(source=kwargs.pop("source", "simulation"), **kwargs)


def test_thresholds_valid():
    validate_thresholds()


class TestSmallWritesSharedFile:
    def test_high_when_dominant_and_write_through(self):
        p = make_profile(
            shared_file=True,
            write_calls=100,
            small_write_fraction=0.95,
            write_through_shared=True,
        )
        f = detect_small_writes_shared_file(p)
        assert f is not None and f.severity is Severity.HIGH
        assert "use PLFS via LDPLFS" in f.recommendation
        assert f.evidence["small_write_fraction"] == 0.95

    def test_recommend_at_moderate_fraction(self):
        p = make_profile(
            shared_file=True, write_calls=100, small_write_fraction=0.6
        )
        f = detect_small_writes_shared_file(p)
        assert f is not None and f.severity is Severity.RECOMMEND

    def test_silent_below_threshold(self):
        p = make_profile(
            shared_file=True, write_calls=100, small_write_fraction=0.3
        )
        assert detect_small_writes_shared_file(p) is None

    def test_silent_when_already_plfs(self):
        p = make_profile(
            uses_plfs=True,
            shared_file=True,
            write_calls=100,
            small_write_fraction=1.0,
        )
        assert detect_small_writes_shared_file(p) is None


class TestMdsCreateStorm:
    def test_high_when_mds_saturated(self):
        p = make_profile(
            uses_plfs=True,
            mds_dedicated=True,
            dropping_creates=6144,
            writers=3072,
            mds_utilisation=0.97,
        )
        f = detect_mds_create_storm(p)
        assert f is not None and f.severity is Severity.HIGH
        assert (f.rule, f.name) == ("LDP402", "mds-create-storm")
        assert RULES[f.rule].summary == "PLFS harmful: dedicated-MDS create storm"
        assert f.evidence["dropping_creates"] == 6144

    def test_warn_at_moderate_utilisation(self):
        p = make_profile(
            uses_plfs=True,
            mds_dedicated=True,
            dropping_creates=100,
            mds_utilisation=0.3,
        )
        f = detect_mds_create_storm(p)
        assert f is not None and f.severity is Severity.WARN

    def test_silent_at_low_utilisation(self):
        p = make_profile(
            uses_plfs=True,
            mds_dedicated=True,
            dropping_creates=100,
            mds_utilisation=0.05,
        )
        assert detect_mds_create_storm(p) is None

    def test_silent_with_distributed_metadata(self):
        # "On a file system like GPFS ... these performance decreases may
        # not materialise" (paper §IV).
        p = make_profile(
            uses_plfs=True,
            mds_dedicated=False,
            dropping_creates=6144,
            mds_utilisation=0.97,
        )
        assert detect_mds_create_storm(p) is None


class TestUncollectiveStridedWrites:
    def test_fires_with_cb_hint_evidence(self):
        p = make_profile(
            collective=False,
            strided_independent=True,
            ranks=16,
            nodes=2,
            ppn=8,
            write_calls=320,
            typical_write_size=1e6,
        )
        f = detect_uncollective_strided_writes(p)
        assert f is not None and f.severity is Severity.RECOMMEND
        assert f.evidence["suggested_cb_nodes"] == 2
        assert "romio_cb_write=enable" in f.recommendation

    def test_silent_when_collective(self):
        p = make_profile(collective=True, strided_independent=True, ranks=16)
        assert detect_uncollective_strided_writes(p) is None


class TestFuseChunking:
    def test_fires_when_writes_exceed_max_write(self):
        p = make_profile(
            fuse_transport=True,
            fuse_max_write=128 * 1024,
            typical_write_size=1024 * 1024,
        )
        f = detect_fuse_request_chunking(p)
        assert f is not None and f.severity is Severity.WARN
        assert f.evidence["chunks_per_call"] == 8

    def test_silent_for_small_writes(self):
        p = make_profile(
            fuse_transport=True,
            fuse_max_write=128 * 1024,
            typical_write_size=64 * 1024,
        )
        assert detect_fuse_request_chunking(p) is None

    def test_silent_without_fuse(self):
        p = make_profile(fuse_transport=False, typical_write_size=1e7)
        assert detect_fuse_request_chunking(p) is None


class TestUnflattenedIndex:
    def test_fires_on_read_heavy_reopen(self):
        p = make_profile(
            uses_plfs=True, read_calls=100, index_rebuild_ops=8, writers=128
        )
        f = detect_unflattened_index_reopen(p)
        assert f is not None
        assert "plfs_flatten_index" in f.recommendation

    def test_silent_with_few_droppings(self):
        p = make_profile(
            uses_plfs=True, read_calls=100, index_rebuild_ops=8, writers=16
        )
        assert detect_unflattened_index_reopen(p) is None


class TestLockSerialisation:
    @pytest.mark.parametrize(
        "share,severity",
        [(0.6, Severity.HIGH), (0.3, Severity.WARN), (0.1, None)],
    )
    def test_grading(self, share, severity):
        p = make_profile(shared_file=True, writers=32, lock_wait_share=share)
        f = detect_shared_file_lock_serialisation(p)
        if severity is None:
            assert f is None
        else:
            assert f is not None and f.severity is severity


class TestMetadataHeavy:
    def test_fires_on_high_rate(self):
        p = make_profile(metadata_ops=1000, metadata_op_rate=800.0)
        f = detect_metadata_heavy(p)
        assert f is not None and f.severity is Severity.WARN

    def test_silent_on_low_rate_or_few_ops(self):
        assert (
            detect_metadata_heavy(
                make_profile(metadata_ops=1000, metadata_op_rate=100.0)
            )
            is None
        )
        assert (
            detect_metadata_heavy(
                make_profile(metadata_ops=50, metadata_op_rate=9000.0)
            )
            is None
        )


class TestRankImbalance:
    def test_fires_on_skew(self):
        p = make_profile(file_count=4, per_file_skew=3.5)
        f = detect_rank_imbalance(p)
        assert f is not None and f.severity is Severity.INFO

    def test_silent_when_balanced_or_single_file(self):
        assert detect_rank_imbalance(make_profile(file_count=4, per_file_skew=2.0)) is None
        assert detect_rank_imbalance(make_profile(file_count=1, per_file_skew=9.0)) is None


class TestRandomAccess:
    def test_fires_on_scattered_offsets(self):
        p = make_profile(write_calls=50, sequentiality=0.2, seeks=40)
        f = detect_random_access(p)
        assert f is not None
        assert "PLFS" in f.recommendation

    def test_silent_when_sequential_or_tiny(self):
        assert detect_random_access(make_profile(write_calls=50, sequentiality=0.9)) is None
        assert detect_random_access(make_profile(write_calls=3, sequentiality=0.0)) is None


class TestBufferedOpacity:
    def test_fires_only_for_traces(self):
        p = make_profile(source="trace", buffered_opaque_files=2)
        f = detect_buffered_opacity(p)
        assert f is not None and f.severity is Severity.INFO
        assert detect_buffered_opacity(make_profile(buffered_opaque_files=2)) is None


class TestStreamOverprovision:
    def test_fires_when_droppings_swamp_channels(self):
        p = make_profile(
            uses_plfs=True, io_servers=24, server_concurrency=8, writers=3072
        )
        f = detect_stream_overprovision(p)
        assert f is not None
        assert f.evidence["server_channels"] == 192

    def test_silent_within_provisioning(self):
        p = make_profile(
            uses_plfs=True, io_servers=24, server_concurrency=8, writers=500
        )
        assert detect_stream_overprovision(p) is None


class TestRunRules:
    def test_sorted_most_severe_first(self):
        p = make_profile(
            source="trace",
            shared_file=True,
            write_calls=100,
            small_write_fraction=1.0,
            write_through_shared=True,
            lock_wait_share=0.3,
            buffered_opaque_files=1,
            file_count=4,
            per_file_skew=5.0,
        )
        findings = run_rules(p)
        severities = [int(f.severity) for f in findings]
        assert severities == sorted(severities, reverse=True)
        assert findings[0].name == "small-writes-shared-file"

    def test_healthy_profile_has_no_findings(self):
        p = make_profile(
            collective=True,
            write_calls=100,
            typical_write_size=64 * 1024 * 1024,
            sequentiality=0.9,
        )
        assert run_rules(p) == []

    def test_rule_subset(self):
        p = make_profile(
            shared_file=True, write_calls=100, small_write_fraction=1.0
        )
        findings = run_rules(p, rules=[detect_mds_create_storm])
        assert findings == []

    def test_every_rule_registered_once(self):
        assert len(ALL_RULES) == len(set(ALL_RULES)) == 12
        # the catalogue numbers the detectors in registration order, so the
        # report's rule-ID tiebreak is this list's
        assert [r for r in RULES if r.startswith("LDP4")] == [
            f"LDP{401 + i}" for i in range(12)
        ]


class TestFaultDegradedRun:
    def test_silent_on_healthy_run(self):
        assert detect_fault_degraded_run(make_profile()) is None

    def test_warns_on_injected_faults(self):
        p = make_profile(
            injected_faults=3, fault_points={"data_write": 2, "index_flush": 1}
        )
        f = detect_fault_degraded_run(p)
        assert f is not None and f.severity is Severity.WARN
        assert "3 fault(s)" in f.detail
        assert "repro-fsck" in f.recommendation
        assert f.evidence["fault_points"] == {"data_write": 2, "index_flush": 1}

    def test_warns_on_mds_outage(self):
        p = make_profile(
            mds_outages=1, mds_outage_seconds=5.0, mds_ops_delayed_by_outage=40
        )
        f = detect_fault_degraded_run(p)
        assert f is not None and f.severity is Severity.WARN
        assert "5.0s" in f.detail
        assert f.evidence["mds_ops_delayed_by_outage"] == 40

    def test_info_on_absorbed_transients_only(self):
        p = make_profile(transient_retries=4, short_write_resumes=1)
        f = detect_fault_degraded_run(p)
        assert f is not None and f.severity is Severity.INFO
        assert "retried 4" in f.detail

    def test_attach_fault_evidence_feeds_the_detector(self):
        from repro.faults.injector import FaultEvent
        from repro.insights import attach_fault_evidence

        p = make_profile()
        attach_fault_evidence(
            p,
            events=[
                FaultEvent("data_write", "eintr", 1, "/d", 10, 0),
                FaultEvent("data_write", "short", 2, "/d", 10, 3),
            ],
            shim_stats={"transient_retries": 1, "short_write_resumes": 1},
        )
        assert p.injected_faults == 2
        assert p.fault_points == {"data_write": 2}
        f = detect_fault_degraded_run(p)
        assert f is not None and f.severity is Severity.WARN


class TestPaperVerdictsFromSimulation:
    """The acceptance split: detectors reach the paper's verdicts from
    run data alone."""

    def test_bt_small_writes_recommend_plfs(self):
        # Fig. 4 regime: BT class C strong-scaled to 256 cores pushes the
        # per-call write size under the write-through threshold.
        result = run_bt(SIERRA, MPIIO, 256, "C")
        from repro.insights import profile_from_run

        p = profile_from_run(result, SIERRA, MPIIO)
        findings = run_rules(p)
        small = next(
            f for f in findings if f.name == "small-writes-shared-file"
        )
        assert small.severity is Severity.HIGH
        assert "use PLFS via LDPLFS" in small.recommendation
        assert small.evidence["small_write_fraction"] >= 0.9

    def test_bt_under_plfs_raises_no_small_write_issue(self):
        from repro.insights import profile_from_run

        result = run_bt(SIERRA, LDPLFS, 256, "C")
        p = profile_from_run(result, SIERRA, LDPLFS)
        assert not any(
            f.name == "small-writes-shared-file" for f in run_rules(p)
        )
