"""Orchestration: scripts in, sorted findings out.

Two front doors, matching the two halves of the subsystem:

- :func:`lint_source` / :func:`lint_path` — the application linter: parse
  a workload script, build its :class:`~repro.lint.visitors.ScriptContext`
  (including the mount prefixes the script declares), run every registered
  rule visitor.
- :func:`self_audit` — the repo's own static gate: the interposition
  coverage audit, the one-route audit (no bare OS call in PLFS or the
  shim), the whole-system interprocedural lock analysis and the
  ordering-contract checker (both from :mod:`repro.sanitize`), combined
  into one finding list so CI has a single pass/fail.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .coverage import AuditReport, audit_findings, audit_interposition, audit_route
from .findings import LintFinding, RULES, sort_findings
from .rules import run_rule_visitors
from .visitors import ScriptContext

if TYPE_CHECKING:
    from repro.sanitize.registry import GuardSpec


def lint_source(
    source: str,
    filename: str = "<script>",
    mounts: tuple[str, ...] | None = None,
) -> list[LintFinding]:
    """Lint one script's source text; never executes it."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        spec = RULES["LDP111"]
        return [
            LintFinding(
                rule=spec.rule_id,
                name=spec.name,
                severity=spec.severity,
                file=filename,
                line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
                detail=f"syntax error: {exc.msg}",
                recommendation=spec.recommendation,
                evidence={},
            )
        ]
    ctx = ScriptContext.build(tree, filename, mounts)
    return sort_findings(run_rule_visitors(ctx))


def lint_path(
    path: str, mounts: tuple[str, ...] | None = None
) -> list[LintFinding]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, filename=path, mounts=mounts)


@dataclass
class SelfAudit:
    """Combined result of the repo's own static gate."""

    coverage: AuditReport
    findings: list[LintFinding] = field(default_factory=list)
    #: the interprocedural pass's StaticAnalysis
    static: Any = None

    @property
    def passed(self) -> bool:
        return not self.findings


def self_audit(
    patches: list[str] | None = None,
    guards: list[GuardSpec] | None = None,
    *,
    targets: tuple[str, ...] | None = None,
    contracts: list | None = None,
) -> SelfAudit:
    """Coverage audit + whole-system concurrency and ordering contracts.

    The concurrency half is the interprocedural analysis from
    :mod:`repro.sanitize.static` — call-graph held-lock propagation,
    lock-order cycles, await-under-lock — over ``repro.core`` +
    ``repro.plfs`` + ``repro.plfsd``, plus the crash-ordering contracts
    from :mod:`repro.sanitize.contracts`.

    *patches*, *guards*, *targets* and *contracts* default to the live
    tree; tests seed gaps through them to prove regressions are caught.
    """
    # imported lazily: repro.sanitize depends on repro.lint.findings
    from repro.sanitize.contracts import check_contracts
    from repro.sanitize.static import analyze

    coverage = audit_interposition(patches=patches)
    findings = audit_findings(coverage)
    findings.extend(audit_route())
    static = analyze(targets, guards=guards)
    findings.extend(static.findings)
    findings.extend(check_contracts(contracts))
    return SelfAudit(
        coverage=coverage,
        findings=sort_findings(findings),
        static=static,
    )
