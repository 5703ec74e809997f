"""``repro-lint`` — the one checker, on scripts, on our own source, on a run.

::

    # lint application workload scripts for LDPLFS bypasses (LDP1xx)
    repro-lint app.py [more.py ...] [--mount /mnt/plfs] [--json]

    # audit our own interposition coverage, lock discipline and write-path
    # ordering contracts (LDP0xx, LDP2xx, LDP3xx: the CI gate)
    repro-lint --self-audit [--json]

    # simulate one of the paper's workloads, characterise the run and
    # report what the detectors find (LDP4xx); scripts named alongside are
    # linted into the same report
    repro-lint --workload flashio --machine sierra --method LDPLFS --nodes 256
    repro-lint --workload bt --method MPI-IO --cores 1024 --advise app.py

Exit status: 0 when no finding reaches ``--fail-on`` (default: warn),
1 when one does, 2 on usage errors.  Output is deterministic — identical
inputs produce byte-identical reports, JSON included.
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster.machine import MACHINES
from repro.insights import profile_from_run, render_report, report_to_json, run_rules
from repro.model.autotune import advise_from_profile
from repro.mpiio.methods import BY_NAME
from repro.workloads import run_bt, run_flashio, run_mpiio_test

from .analyzer import (
    findings_to_json,
    lint_path,
    render_self_audit,
    self_audit,
    self_audit_to_json,
)
from .findings import RULES, Finding, Severity, render_findings

WORKLOADS = ("flashio", "bt", "mpiio-test")

_SEVERITY_CHOICES = {
    "info": Severity.INFO,
    "recommend": Severity.RECOMMEND,
    "warn": Severity.WARN,
    "high": Severity.HIGH,
    # "error" is the CI-facing alias: HIGH is the top of the scale, and
    # every LDP2xx/LDP3xx concurrency or ordering finding lands there
    "error": Severity.HIGH,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Where PLFS may hurt, from three inputs: application scripts "
            "(bypass shapes), our own source (--self-audit) and a simulated "
            "run (--workload)"
        ),
    )
    parser.add_argument("scripts", nargs="*", help="workload scripts to lint")
    parser.add_argument(
        "--self-audit",
        action="store_true",
        help=(
            "audit interposition coverage, whole-system lock discipline "
            "(repro.core + repro.plfs + repro.plfsd) and ordering contracts"
        ),
    )
    parser.add_argument(
        "--mount",
        action="append",
        default=[],
        metavar="PREFIX",
        help="treat paths under PREFIX as PLFS mount paths (repeatable)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the canonical JSON report"
    )
    parser.add_argument(
        "--fail-on",
        choices=sorted(_SEVERITY_CHOICES) + ["never"],
        default="warn",
        help="lowest severity that fails the run (default: warn)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule registry"
    )
    run = parser.add_argument_group(
        "observed run", "simulate one of the paper's workloads and check the run"
    )
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--machine", choices=sorted(MACHINES), default="sierra")
    run.add_argument("--method", choices=sorted(BY_NAME), default="LDPLFS")
    run.add_argument("--nodes", type=int, default=16)
    run.add_argument("--ppn", type=int, default=12)
    run.add_argument("--cores", type=int, default=None, help="BT total cores (square)")
    run.add_argument("--bt-class", choices=("C", "D"), default="C", dest="bt_class")
    run.add_argument(
        "--advise",
        action="store_true",
        help="append the model-based method recommendation",
    )
    return parser


def _exit_code(findings: list[Finding], fail_on: str) -> int:
    if fail_on == "never":
        return 0
    threshold = _SEVERITY_CHOICES[fail_on]
    return 1 if any(f.severity >= threshold for f in findings) else 0


def _error(message: object) -> int:
    print(f"repro-lint: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for spec in RULES.values():
            print(
                f"{spec.rule_id}  {spec.name:<22} "
                f"[{spec.severity.name}] {spec.summary}"
            )
        return 0

    if args.self_audit:
        audit = self_audit()
        print(self_audit_to_json(audit) if args.json else render_self_audit(audit))
        return _exit_code(audit.findings, args.fail_on)

    if not args.scripts and args.workload is None:
        parser.print_usage(sys.stderr)
        return _error("provide scripts to lint, --workload or --self-audit")

    mounts = tuple(args.mount) or None
    script_findings: list[Finding] = []
    for path in args.scripts:
        try:
            script_findings.extend(lint_path(path, mounts=mounts))
        except OSError as exc:
            return _error(exc)

    if args.workload is None:
        target = ", ".join(args.scripts)
        print(
            findings_to_json(script_findings, target)
            if args.json
            else render_findings(script_findings, target)
        )
        return _exit_code(script_findings, args.fail_on)

    machine = MACHINES[args.machine]
    method = BY_NAME[args.method]
    try:
        if args.workload == "flashio":
            result = run_flashio(machine, method, args.nodes, args.ppn)
            workload = "flashio"
        elif args.workload == "bt":
            result = run_bt(machine, method, args.cores or 256, args.bt_class)
            workload = f"bt.{args.bt_class}"
        else:
            result = run_mpiio_test(machine, method, args.nodes, args.ppn)
            workload = "mpiio-test"
    except ValueError as exc:
        return _error(exc)

    profile = profile_from_run(result, machine, method, workload=workload)
    findings = run_rules(profile) + script_findings
    print(
        report_to_json(profile, findings)
        if args.json
        else render_report(profile, findings)
    )
    if args.advise:
        rec = advise_from_profile(machine, profile, static_findings=script_findings)
        print()
        print(f"model advice: use {rec.method.name} — {rec.explanation}")
    return _exit_code(findings, args.fail_on)


if __name__ == "__main__":
    sys.exit(main())
