"""Script findings in run reports and in the autotuner's explanation."""

from __future__ import annotations

import json

from repro.cluster import SIERRA
from repro.insights import profile_from_run, report_to_dict, report_to_json, run_rules
from repro.lint import lint_source
from repro.model import WorkloadPattern, choose_method
from repro.model.autotune import advise_from_profile
from repro.mpiio import LDPLFS
from repro.sim.stats import MB
from repro.workloads import run_flashio

SMALL_WRITE_SRC = (
    "import os\n"
    "fd = os.open('/mnt/plfs/bt.out', os.O_WRONLY)\n"
    "for _ in range(1000):\n"
    "    os.write(fd, b'x' * 1640)\n"
    "os.close(fd)\n"
)


def flash_pattern(nodes: int) -> WorkloadPattern:
    ranks = nodes * 12
    return WorkloadPattern(
        nodes=nodes, writers=ranks, openers=ranks,
        total_bytes=205 * MB * ranks, write_size=205 * MB / 24,
        collective=False,
    )


def _profile_and_findings():
    result = run_flashio(SIERRA, LDPLFS, 2)
    profile = profile_from_run(result, SIERRA, LDPLFS, workload="flashio")
    return profile, run_rules(profile)


class TestInsightsMerge:
    def test_report_dict_gains_static_section(self):
        # the script's findings join the run's in one list: no side section
        profile, findings = _profile_and_findings()
        static = lint_source(SMALL_WRITE_SRC, "bt.py")
        report = report_to_dict(profile, findings + static)
        assert "static" not in report
        assert report["finding_count"] == len(findings) + 1
        (row,) = [f for f in report["findings"] if f["file"] == "bt.py"]
        assert row["rule"] == "LDP107"

    def test_report_without_static_is_unchanged(self):
        profile, findings = _profile_and_findings()
        report = report_to_dict(profile, findings)
        assert "static" not in report
        assert not any(f["file"] for f in report["findings"])

    def test_json_round_trip(self):
        profile, findings = _profile_and_findings()
        static = lint_source(SMALL_WRITE_SRC, "bt.py")
        data = json.loads(report_to_json(profile, findings + static))
        (row,) = [f for f in data["findings"] if f["file"] == "bt.py"]
        assert (row["rule"], row["severity"]) == ("LDP107", "RECOMMEND")


class TestAutotuneCitation:
    def test_choose_method_cites_static_evidence(self):
        static = lint_source(SMALL_WRITE_SRC, "bt.py")
        rec = choose_method(SIERRA, flash_pattern(8), static_findings=static)
        assert rec.static_findings == static
        assert "Static evidence" in rec.explanation
        assert "LDP107" in rec.explanation
        assert "bt.py" in rec.explanation

    def test_most_severe_finding_cited(self):
        src = SMALL_WRITE_SRC + (
            "import mmap\n"
            "with open('/mnt/plfs/m', 'r+b') as fh:\n"
            "    mm = mmap.mmap(fh.fileno(), 0)\n"
            "mm.close()\n"
        )
        static = lint_source(src, "bt.py")
        rec = choose_method(SIERRA, flash_pattern(8), static_findings=static)
        assert "LDP101" in rec.explanation
        assert "[HIGH]" in rec.explanation

    def test_without_static_explanation_unchanged(self):
        rec = choose_method(SIERRA, flash_pattern(8))
        assert rec.static_findings == []
        assert "Static evidence" not in rec.explanation

    def test_advise_from_profile_passthrough(self):
        profile, _ = _profile_and_findings()
        static = lint_source(SMALL_WRITE_SRC, "bt.py")
        rec = advise_from_profile(SIERRA, profile, static_findings=static)
        assert "Static evidence" in rec.explanation
