"""``repro.lint`` — the one checker: §V.A's "highlight where PLFS may
hurt", from three inputs, as one kind of finding.

- **Application scripts**, before a run: the AST linter
  (:mod:`~repro.lint.rules` on the :mod:`~repro.lint.visitors`
  framework) flags the shapes no interposer can retarget — mmap, kernel
  zero-copy, mount paths handed to a child, captured bindings, leaked
  handles — and the small-write loop of the regime the paper grades
  (LDP1xx).  Each bypass rule has a test showing the divergence on a
  flat file and a mount (``tests/lint/test_boundary.py``).
- **Our own source**: ``repro-lint --self-audit``, the CI gate — the
  interposition-coverage and one-route audits (:mod:`~repro.lint.coverage`,
  LDP0xx), the interprocedural lock analysis (:mod:`~repro.lint.static`,
  LDP2xx) and the crash-ordering contracts (:mod:`~repro.lint.contracts`,
  LDP3xx), each module parsed once.
- **An observed run**: ``repro-lint --workload …`` simulates one of the
  paper's workloads and runs the :mod:`repro.insights` detectors (LDP4xx)
  over its profile; scripts named alongside land in the same report.

Every finding comes from :data:`~repro.lint.findings.RULES` and renders
one way (text or canonical JSON).  Names resolve on first touch (PEP 562),
so :mod:`repro.lint.findings` loads without the analyzers.
"""

_HOMES = {
    "Finding": "findings",
    "RULES": "findings",
    "RuleSpec": "findings",
    "Severity": "findings",
    "findings_to_dict": "findings",
    "render_findings": "findings",
    "sort_findings": "findings",
    "SelfAudit": "analyzer",
    "findings_to_json": "analyzer",
    "lint_path": "analyzer",
    "lint_source": "analyzer",
    "render_self_audit": "analyzer",
    "self_audit": "analyzer",
    "self_audit_to_dict": "analyzer",
    "self_audit_to_json": "analyzer",
    "ACKNOWLEDGED_PASSTHROUGH": "coverage",
    "FILE_TOUCHING_OS": "coverage",
    "AuditReport": "coverage",
    "audit_findings": "coverage",
    "audit_interposition": "coverage",
    "audit_route": "coverage",
    "ALL_RULE_VISITORS": "rules",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)
