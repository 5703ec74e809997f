"""Tests for report rendering and determinism."""

from __future__ import annotations

import json

from repro.cluster import MINERVA, SIERRA
from repro.insights import (
    profile_from_run,
    render_profile,
    render_report,
    report_to_dict,
    report_to_json,
    run_rules,
)
from repro.lint.findings import RULES, Finding, render_findings
from repro.mpiio import LDPLFS, MPIIO
from repro.workloads import run_flashio, run_mpiio_test


def sample_finding() -> Finding:
    return RULES["LDP405"].finding(
        "demo detail.",
        recommendation="do the thing",
        ratio=0.5,
        count=3,
        flag=True,
    )


class TestRendering:
    def test_profile_header(self):
        result = run_flashio(SIERRA, LDPLFS, 2)
        p = profile_from_run(result, SIERRA, LDPLFS, workload="flashio")
        text = render_profile(p)
        assert "flashio Sierra LDPLFS [simulation]" in text
        assert "24 ranks on 2 node(s) x 12 ppn" in text
        assert "dropping creates" in text
        assert "write sizes:" in text

    def test_finding_render_includes_evidence(self):
        text = sample_finding().render()
        assert text.startswith("[WARN] LDP405 fuse-request-chunking\n")
        assert "-> do the thing" in text
        assert "count=3" in text and "ratio=0.5" in text and "flag=true" in text

    def test_findings_summary_counts(self):
        f = sample_finding()
        text = render_findings([f, f])
        assert text.startswith("2 finding(s): 2 WARN")

    def test_no_findings_message(self):
        assert "looks healthy" in render_findings([])

    def test_report_combines_both(self):
        result = run_mpiio_test(MINERVA, MPIIO, 2, 1)
        p = profile_from_run(result, MINERVA, MPIIO, workload="mpiio-test")
        text = render_report(p, run_rules(p))
        assert "I/O insights" in text
        assert "-" * 72 in text


class TestJsonReport:
    def test_structure(self):
        result = run_mpiio_test(MINERVA, MPIIO, 2, 1)
        p = profile_from_run(result, MINERVA, MPIIO, workload="mpiio-test")
        findings = run_rules(p)
        d = report_to_dict(p, findings)
        assert set(d) == {
            "target", "finding_count", "severity_counts", "findings", "profile"
        }
        assert d["target"] == "mpiio-test Minerva MPI-IO"
        assert d["profile"]["workload"] == "mpiio-test"
        assert d["finding_count"] == len(findings)
        for f in d["findings"]:
            assert set(f) == {
                "rule",
                "name",
                "severity",
                "file",
                "line",
                "col",
                "detail",
                "recommendation",
                "evidence",
            }

    def test_json_parses_and_keys_sorted(self):
        result = run_flashio(SIERRA, LDPLFS, 2)
        p = profile_from_run(result, SIERRA, LDPLFS, workload="flashio")
        text = report_to_json(p, run_rules(p))
        parsed = json.loads(text)
        keys = list(parsed["profile"])
        assert keys == sorted(keys)

    def test_byte_identical_across_runs(self):
        # The determinism guarantee the archived artefacts rely on: two
        # runs of the same seeded simulation render identical reports.
        def one() -> str:
            result = run_flashio(SIERRA, LDPLFS, 4)
            p = profile_from_run(result, SIERRA, LDPLFS, workload="flashio")
            return report_to_json(p, run_rules(p))

        assert one() == one()
