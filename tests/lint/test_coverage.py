"""Tests for the interposition-coverage audit.

The headline regression test mandated by the issue: against the live
tree the audit reports **zero uncovered symbols**, and a seeded gap (a
symbol deliberately removed from ``_OS_PATCHES``) is detected — so the
vectored-I/O class of bug can never silently reappear.
"""

from __future__ import annotations

import os

from repro.core import interpose
from repro.lint import audit_findings, audit_interposition
from repro.lint.coverage import ACKNOWLEDGED_PASSTHROUGH, FILE_TOUCHING_OS
from repro.plfs.route import RealOS

VECTORED = ["readv", "writev", "preadv", "pwritev"]


class TestLiveTree:
    def test_zero_uncovered_after_vectored_fix(self):
        report = audit_interposition()
        assert report.uncovered == []
        assert report.clean

    def test_no_patch_is_missing_its_shim(self):
        report = audit_interposition()
        assert report.missing_shim == []
        assert report.stale == []

    def test_builtin_surfaces_rebound(self):
        report = audit_interposition()
        assert report.builtin_covered == ["builtins.open", "io.open"]
        assert report.builtin_uncovered == []

    def test_vectored_symbols_are_patched(self):
        report = audit_interposition()
        for name in VECTORED:
            if hasattr(os, name):
                assert name in report.patched

    def test_live_tree_produces_no_findings(self):
        assert audit_findings(audit_interposition()) == []

    def test_realos_snapshots_complete(self):
        # read off the same table as the patch list: nothing to compare
        real = vars(RealOS.snapshot())
        assert set(real) == set(interpose._OS_PATCHES) - {"remove"} | {"builtins_open"}


class TestSeededGap:
    def test_single_removed_symbol_detected(self):
        patches = [p for p in interpose._OS_PATCHES if p != "pwritev"]
        report = audit_interposition(patches=patches)
        assert report.uncovered == ["pwritev"]
        assert not report.clean

    def test_all_vectored_symbols_removed(self):
        patches = [p for p in interpose._OS_PATCHES if p not in VECTORED]
        report = audit_interposition(patches=patches)
        assert report.uncovered == sorted(
            v for v in VECTORED if hasattr(os, v)
        )
        findings = audit_findings(report)
        assert {f.rule for f in findings} == {"LDP001"}
        assert {f.evidence["symbol"] for f in findings} == {
            f"os.{v}" for v in VECTORED if hasattr(os, v)
        }

    def test_patch_without_shim_method_detected(self):
        report = audit_interposition(
            patches=list(interpose._OS_PATCHES) + ["walk"]
        )
        assert report.missing_shim == ["walk"]
        findings = audit_findings(report)
        assert any(
            f.rule == "LDP002" and f.evidence["symbol"] == "os.walk"
            for f in findings
        )

    def test_stale_patch_detected(self):
        report = audit_interposition(
            patches=list(interpose._OS_PATCHES) + ["frobnicate"]
        )
        assert report.stale == ["frobnicate"]
        findings = audit_findings(report)
        assert any(f.rule == "LDP005" for f in findings)

    def test_findings_sorted_and_deterministic(self):
        patches = [p for p in interpose._OS_PATCHES if p not in VECTORED]
        first = audit_findings(audit_interposition(patches=patches))
        second = audit_findings(audit_interposition(patches=patches))
        assert [f.as_dict() for f in first] == [f.as_dict() for f in second]


class TestCatalogueHygiene:
    def test_every_acknowledgement_has_a_written_reason(self):
        for name, reason in ACKNOWLEDGED_PASSTHROUGH.items():
            assert isinstance(reason, str) and len(reason) > 5, name

    def test_acknowledged_symbols_are_in_catalogue(self):
        assert set(ACKNOWLEDGED_PASSTHROUGH) <= FILE_TOUCHING_OS

    def test_no_symbol_both_patched_and_acknowledged(self):
        overlap = set(interpose._OS_PATCHES) & set(ACKNOWLEDGED_PASSTHROUGH)
        assert overlap == set()

    def test_report_dict_shape(self):
        data = audit_interposition().as_dict()
        assert data["clean"] is True
        assert set(data) == {
            "patched", "uncovered", "acknowledged", "missing_shim",
            "stale", "builtin_covered", "builtin_uncovered", "clean",
        }
