"""The whole-system self-audit: coverage + lock analysis + contracts.

``repro-lint --self-audit`` is the CI gate; these tests pin that it walks
all three packages, stays clean on HEAD, reports the static summary in
both renderings, and fails loudly when fed a seeded violation.
"""

from __future__ import annotations

from repro.lint import render_self_audit, self_audit, self_audit_to_dict, self_audit_to_json
from repro.lint.contracts import DEFAULT_CONTRACTS, OrderingContract


class TestCleanHead:
    def test_audit_passes(self):
        audit = self_audit()
        assert audit.findings == []
        assert audit.passed

    def test_audit_walks_all_three_packages(self):
        audit = self_audit()
        assert audit.static is not None
        prefixes = {m.split(".")[1] for m in audit.static.modules}
        assert {"core", "plfs", "plfsd"} <= prefixes
        assert "repro.plfsd.server" in audit.static.modules

    def test_render_mentions_lock_analysis(self):
        audit = self_audit()
        text = render_self_audit(audit)
        assert "PASS" in text
        assert "lock analysis:" in text
        assert "lock-order edges" in text

    def test_dict_and_json_carry_static_section(self):
        audit = self_audit()
        data = self_audit_to_dict(audit)
        assert data["passed"] is True
        static = data["static"]
        assert static["summary"]["findings"] == 0
        assert static["summary"]["modules"] == len(static["modules"])
        assert isinstance(static["lock_order_edges"], list)
        first = self_audit_to_json(audit)
        second = self_audit_to_json(self_audit())
        assert first.encode() == second.encode()


class TestSeededViolations:
    def test_violated_contract_fails_the_audit(self):
        bad = DEFAULT_CONTRACTS + [
            OrderingContract(
                "repro.plfs.writer",
                "_Dropping",
                "append",
                ("write_data",),  # inverted on purpose
                ("_promise",),
                "deliberately inverted for the regression test",
            )
        ]
        audit = self_audit(contracts=bad)
        assert not audit.passed
        assert "LDP301" in {f.rule for f in audit.findings}

    def test_stale_contract_fails_the_audit(self):
        bad = DEFAULT_CONTRACTS + [
            OrderingContract(
                "repro.plfs.writer",
                "_Dropping",
                "no_such_method",
                ("a",),
                ("b",),
                "stale on purpose",
            )
        ]
        audit = self_audit(contracts=bad)
        assert not audit.passed
        assert "LDP302" in {f.rule for f in audit.findings}

    def test_narrowed_targets_still_audit_core(self):
        audit = self_audit(targets=("repro.core",))
        assert audit.static is not None
        assert all(m.startswith("repro.core") for m in audit.static.modules)
        assert audit.passed
