"""``repro.insights`` — I/O characterisation, issue detection & advisory.

The paper's §V.A asks for a tool that "highlights systems where PLFS may
have a negative effect on performance".  This package is that tool's
observability half (Drishti-style): it unifies real traced runs and
simulated benchmark runs into one :class:`IORunProfile`, runs a rule
engine of severity-graded issue detectors keyed to the paper's
phenomena, and renders deterministic text/JSON advisory reports.

- :mod:`repro.insights.metrics` — the unified profile and its builders
- :mod:`repro.insights.rules` — the detectors (small writes, MDS create
  storm, uncollective strided writes, FUSE chunking, unflattened index…)
- :mod:`repro.insights.reporter` — deterministic text/JSON reports
- :mod:`repro.insights.cli` — the ``repro-insights`` console entry point
"""

from .metrics import (
    IORunProfile,
    attach_fault_evidence,
    profile_from_run,
    profile_from_trace,
)
from .reporter import (
    render_findings,
    render_profile,
    render_report,
    report_to_dict,
    report_to_json,
)
from .rules import ALL_RULES, Finding, Severity, run_rules, validate_thresholds

__all__ = [
    "IORunProfile",
    "attach_fault_evidence",
    "profile_from_run",
    "profile_from_trace",
    "Finding",
    "Severity",
    "ALL_RULES",
    "run_rules",
    "validate_thresholds",
    "render_profile",
    "render_findings",
    "render_report",
    "report_to_dict",
    "report_to_json",
]
