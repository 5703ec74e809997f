"""Orchestration: scripts and source in, sorted findings out.

Two front doors besides the run report (:mod:`repro.insights`):

- :func:`lint_source` / :func:`lint_path` — the application linter: parse
  a workload script, build its :class:`~repro.lint.visitors.ScriptContext`
  (including the mount prefixes the script declares), run every registered
  rule visitor.
- :func:`self_audit` — the repo's own static gate: the interposition
  coverage audit, the one-route audit (no bare OS call in PLFS or the
  shim), the whole-system interprocedural lock analysis and the
  ordering-contract checker, over one :class:`~repro.lint.static.ModuleTrees`
  so each module is parsed once, combined into one finding list so CI has
  a single pass/fail.

Reports render deterministically: text for consoles, and JSON through
:func:`repro.analysis.export.canonical_json`, byte-identical for
identical inputs — the property the golden-file tests assert.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.export import canonical_json
from repro.sanitize.registry import GuardSpec

from .contracts import OrderingContract, check_contracts
from .coverage import AuditReport, audit_findings, audit_interposition, audit_route
from .findings import RULES, Finding, findings_to_dict, render_findings, sort_findings
from .rules import run_rule_visitors
from .static import ModuleTrees, StaticAnalysis, analyze
from .visitors import ScriptContext


def lint_source(
    source: str,
    filename: str = "<script>",
    mounts: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Lint one script's source text; never executes it."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            RULES["LDP111"].finding(
                f"syntax error: {exc.msg}",
                file=filename,
                line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
            )
        ]
    ctx = ScriptContext.build(tree, filename, mounts)
    return sort_findings(run_rule_visitors(ctx))


def lint_path(path: str, mounts: tuple[str, ...] | None = None) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, filename=path, mounts=mounts)


def findings_to_json(findings: list[Finding], target: str = "") -> str:
    """Canonical JSON (byte-identical for identical findings)."""
    return canonical_json(findings_to_dict(findings, target))


@dataclass
class SelfAudit:
    """Combined result of the repo's own static gate."""

    coverage: AuditReport
    static: StaticAnalysis
    findings: list[Finding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings


def self_audit(
    patches: list[str] | None = None,
    guards: list[GuardSpec] | None = None,
    *,
    targets: tuple[str, ...] | None = None,
    contracts: list[OrderingContract] | None = None,
) -> SelfAudit:
    """Coverage audit + whole-system concurrency and ordering contracts.

    The concurrency half is the interprocedural analysis of
    :mod:`repro.lint.static` — call-graph held-lock propagation,
    lock-order cycles, await-under-lock — over ``repro.core`` +
    ``repro.plfs`` + ``repro.plfsd``, plus the crash-ordering contracts
    of :mod:`repro.lint.contracts`.

    *patches*, *guards*, *targets* and *contracts* default to the live
    tree; tests seed gaps through them to prove regressions are caught.
    """
    trees = ModuleTrees()
    coverage = audit_interposition(patches=patches)
    static = analyze(targets, guards=guards, sources=trees)
    findings = audit_findings(coverage) + audit_route(trees) + static.findings
    findings += check_contracts(contracts, sources=trees)
    return SelfAudit(coverage=coverage, static=static, findings=sort_findings(findings))


def render_self_audit(audit: SelfAudit) -> str:
    cov = audit.coverage
    static = audit.static
    lines = [
        "repro-lint self-audit — interposition coverage + shim concurrency",
        (
            f"  os surface: {len(cov.patched)} patched, "
            f"{len(cov.acknowledged)} acknowledged passthrough, "
            f"{len(cov.uncovered)} uncovered"
        ),
        (
            f"  builtin surfaces: "
            f"{', '.join(cov.builtin_covered) or '(none)'} rebound"
        ),
    ]
    if cov.stale:
        lines.append(f"  stale patches: {', '.join(cov.stale)}")
    lines.append(
        f"  lock analysis: {len(static.modules)} modules, "
        f"{static.functions} functions, {static.call_edges} resolved "
        f"call edges, {len(static.lock_edges)} lock-order edges"
    )
    lines.append("-" * 72)
    if audit.passed:
        lines.append(
            "PASS — every file-touching symbol is interposed or "
            "acknowledged; all guarded-field contracts hold"
        )
    else:
        lines.append(render_findings(audit.findings, target="self-audit"))
        lines.append("FAIL")
    return "\n".join(lines)


def self_audit_to_dict(audit: SelfAudit) -> dict:
    data = findings_to_dict(audit.findings, target="self-audit")
    data["coverage"] = audit.coverage.as_dict()
    data["passed"] = audit.passed
    data["static"] = {
        "modules": list(audit.static.modules),
        "summary": audit.static.summary(),
        "lock_order_edges": [list(edge) for edge in audit.static.lock_edges],
    }
    return data


def self_audit_to_json(audit: SelfAudit) -> str:
    return canonical_json(self_audit_to_dict(audit))
