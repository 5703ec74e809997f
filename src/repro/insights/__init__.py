"""``repro.insights`` — what an observed run says about PLFS.

The paper's §V.A asks for a tool that "highlights systems where PLFS may
have a negative effect on performance".  This package is that tool's
run-reading half (Drishti-style): it unifies real traced runs and
simulated benchmark runs into one :class:`IORunProfile` and runs a rule
engine of severity-graded detectors keyed to the paper's phenomena.  Its
findings are the ``LDP4xx`` rows of the one catalogue
(:mod:`repro.lint.findings`) and reach the console through the one
checker, ``repro-lint --workload …``.

- :mod:`repro.insights.metrics` — the unified profile, its builders and
  its report
- :mod:`repro.insights.rules` — the detectors (small writes, MDS create
  storm, uncollective strided writes, FUSE chunking, unflattened index…)
"""

from .metrics import (
    IORunProfile,
    attach_fault_evidence,
    profile_from_run,
    profile_from_trace,
    render_profile,
    render_report,
    report_to_dict,
    report_to_json,
)
from .rules import ALL_RULES, run_rules, validate_thresholds

__all__ = [
    "IORunProfile",
    "attach_fault_evidence",
    "profile_from_run",
    "profile_from_trace",
    "ALL_RULES",
    "run_rules",
    "validate_thresholds",
    "render_profile",
    "render_report",
    "report_to_dict",
    "report_to_json",
]
