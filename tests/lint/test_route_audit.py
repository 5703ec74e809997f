"""LDP006 — the one-route audit: no bare OS call in PLFS or the shim.

The live tree must be clean; a seeded fixture must be caught symbol by
symbol, and its canonical JSON report is pinned like the other rules'.
"""

from __future__ import annotations

import os

from repro.lint import audit_route, findings_to_json, self_audit
from repro.lint.coverage import routed_modules

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _fixture() -> str:
    with open(os.path.join(FIXTURES, "off_route.py"), encoding="utf-8") as fh:
        return fh.read()


def _seeded():
    return audit_route({"off_route.py": _fixture()})


class TestLiveTree:
    def test_routed_modules_cover_plfs_and_the_shim(self):
        modules = routed_modules()
        assert "repro.plfs.route" not in modules
        assert {"repro.core.shim", "repro.core.fdtable", "repro.plfs.container",
                "repro.plfs.backing", "repro.plfs.reader", "repro.plfs.writer",
                "repro.plfs.cache", "repro.plfs.index", "repro.plfs.api",
                "repro.plfs.fsck"} <= set(modules)

    def test_no_bare_os_call_left(self):
        assert audit_route() == []

    def test_self_audit_runs_the_rule(self, monkeypatch):
        import repro.lint.analyzer as analyzer

        monkeypatch.setattr(analyzer, "audit_route", lambda trees: _seeded())
        assert "LDP006" in {f.rule for f in self_audit().findings}


class TestSeededViolations:
    def test_each_symbol_is_named(self):
        findings = _seeded()
        assert {f.rule for f in findings} == {"LDP006"}
        assert [f.evidence["symbol"] for f in findings] == [
            "os.path.exists", "os.stat", "os.makedirs", "open",
            "tempfile.mkstemp", "os.close", "shutil.rmtree",
        ]

    def test_routed_calls_and_constants_are_not_flagged(self):
        routed_from = next(
            i for i, line in enumerate(_fixture().splitlines(), 1) if line.startswith("def routed")
        )
        assert all(f.line < routed_from for f in _seeded())

    def test_report_matches_golden(self):
        got = findings_to_json(_seeded(), target="off_route.py")
        with open(os.path.join(GOLDEN, "off_route.json"), encoding="utf-8") as fh:
            assert got == fh.read()
