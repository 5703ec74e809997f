"""Tests for the ``repro-lint`` command-line front end."""

from __future__ import annotations

import json
import os

import pytest

from repro.lint.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


class TestSelfAuditMode:
    def test_exit_zero_and_pass_text(self, capsys):
        assert main(["--self-audit"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "0 uncovered" in out
        assert "builtins.open, io.open" in out

    def test_json_report_parses(self, capsys):
        assert main(["--self-audit", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["coverage"]["clean"] is True
        assert data["coverage"]["uncovered"] == []

    def test_deterministic_output(self, capsys):
        main(["--self-audit", "--json"])
        first = capsys.readouterr().out
        main(["--self-audit", "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestScriptMode:
    def test_clean_script_exits_zero(self, capsys):
        assert main([fixture("clean.py")]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_high_finding_fails_default_threshold(self, capsys):
        assert main([fixture("mmap_on_mount.py")]) == 1
        out = capsys.readouterr().out
        assert "LDP101" in out

    def test_recommend_finding_passes_default_threshold(self, capsys):
        # default --fail-on warn: a RECOMMEND finding is reported, exit 0
        assert main([fixture("small_write_loop.py")]) == 0
        assert "LDP107" in capsys.readouterr().out

    def test_fail_on_recommend_tightens(self, capsys):
        assert (
            main(["--fail-on", "recommend", fixture("small_write_loop.py")])
            == 1
        )

    def test_fail_on_never_always_passes(self, capsys):
        assert main(["--fail-on", "never", fixture("mmap_on_mount.py")]) == 0

    def test_json_mode_emits_findings(self, capsys):
        assert main(["--json", fixture("fd_arithmetic.py")]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["finding_count"] == 1
        assert data["findings"][0]["rule"] == "LDP104"
        assert data["severity_counts"] == {"WARN": 1}

    def test_multiple_scripts_merge(self, capsys):
        code = main(
            ["--json", fixture("fd_leak.py"), fixture("zero_copy.py")]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in data["findings"]} == {"LDP109", "LDP102"}

    def test_mount_flag_forwarded(self, tmp_path, capsys):
        script = tmp_path / "app.py"
        script.write_text(
            'import subprocess\nsubprocess.run(["cp", "/x/plfs/a", "/tmp"])\n'
        )
        assert main([str(script)]) == 0
        capsys.readouterr()
        assert main(["--mount", "/x/plfs", str(script)]) == 1
        assert "LDP103" in capsys.readouterr().out


class TestUsageErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main([fixture("does_not_exist.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_fail_on_rejected(self):
        with pytest.raises(SystemExit):
            main(["--fail-on", "bogus", fixture("clean.py")])


class TestListRules:
    def test_catalogue_printed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LDP001", "LDP006", "LDP101", "LDP111", "LDP204", "LDP412"):
            assert rule_id in out
        for gone in ("LDP108", "LDP110", "LDP112", "LDP113"):
            assert gone not in out
