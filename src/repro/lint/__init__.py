"""``repro.lint`` — static I/O analysis for LDPLFS.

PR 1's :mod:`repro.insights` diagnoses I/O issues *after* a run; this
package is the ahead-of-run counterpart (IOPathTune-style): it inspects
code, not traces, and catches the two failure classes interposition-based
deployment is exposed to before a job is ever submitted:

1. **Bypass risk in our own core** — the interposition-coverage audit
   (:mod:`~repro.lint.coverage`) cross-checks every file-touching
   ``os``/``builtins``/``io`` symbol against the interposed-symbol table
   (``_OS_PATCHES``) and the ``Shim`` method set; the whole-system
   concurrency analysis and ordering-contract checker from :mod:`repro.sanitize` prove the lock
   discipline and crash-ordering invariants across ``repro.core`` +
   ``repro.plfs`` + ``repro.plfsd``.  Together they are
   ``repro-lint --self-audit``, the CI gate that caught (and now pins)
   the vectored-I/O gap.
2. **Anti-patterns in application scripts** — the AST linter
   (:mod:`~repro.lint.rules` on the :mod:`~repro.lint.visitors`
   framework) flags code that would bypass PLFS (mmap, subprocess with
   mount paths, import-time bindings) or hit the regimes the paper
   grades (small-write loops → deploy LDPLFS; seek churn → positional
   I/O).

Findings are severity-graded on the same scale as ``repro.insights``,
render deterministically (text or canonical JSON), and merge into
insights reports / autotune explanations as ``static`` evidence.
"""

from .analyzer import SelfAudit, lint_path, lint_source, self_audit
from .coverage import (
    ACKNOWLEDGED_PASSTHROUGH,
    FILE_TOUCHING_OS,
    AuditReport,
    audit_findings,
    audit_interposition,
    audit_route,
)
from .findings import RULES, LintFinding, RuleSpec, Severity, sort_findings
from .reporter import (
    as_static_evidence,
    findings_to_dict,
    findings_to_json,
    render_findings,
    render_self_audit,
    self_audit_to_json,
)
from .rules import ALL_RULE_VISITORS, rule_catalogue

__all__ = [
    "ACKNOWLEDGED_PASSTHROUGH",
    "ALL_RULE_VISITORS",
    "AuditReport",
    "FILE_TOUCHING_OS",
    "LintFinding",
    "RULES",
    "RuleSpec",
    "SelfAudit",
    "Severity",
    "as_static_evidence",
    "audit_findings",
    "audit_interposition",
    "audit_route",
    "findings_to_dict",
    "findings_to_json",
    "lint_path",
    "lint_source",
    "render_findings",
    "render_self_audit",
    "rule_catalogue",
    "self_audit",
    "self_audit_to_json",
    "sort_findings",
]
