"""One finding, one catalogue: what every checker in the repository reports.

The paper's §V.A asks for one tool that highlights where PLFS may hurt.
Here that tool reads three inputs — an application script (the AST
linter), our own source (the self-audit) and an observed run (the
insights detectors, plus the runtime race detector) — and all of them
speak through this module: one :class:`Severity` scale, one
:class:`Finding`, and one registry of rules keyed by stable IDs, whose
:meth:`RuleSpec.finding` is the only way a finding is made.  Reports
stay byte-identical across runs; the golden-file tests pin them.

ID ranges: ``LDP0xx`` audit our own core (interposition coverage, the
one route to the OS); ``LDP1xx`` are application-script shapes the AST
linter finds; ``LDP2xx`` are whole-system concurrency findings (the
interprocedural lock analysis in :mod:`repro.lint.static`, the runtime
lockset detector in :mod:`repro.sanitize.runtime`); ``LDP3xx`` are
crash-ordering contract violations (:mod:`repro.lint.contracts`);
``LDP4xx`` are the run detectors of :mod:`repro.insights.rules`.

This module imports nothing from the repository, so every checker can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

__all__ = [
    "Finding",
    "RULES",
    "RuleSpec",
    "Severity",
    "findings_to_dict",
    "render_findings",
    "sort_findings",
]


class Severity(IntEnum):
    """Graded like Drishti's report: informational → critical."""

    INFO = 1
    RECOMMEND = 2
    WARN = 3
    HIGH = 4


@dataclass
class Finding:
    """One detected issue with the evidence that triggered it; a script or
    source finding also carries its location (an observed-run one has none)."""

    rule: str
    name: str
    severity: Severity
    detail: str
    recommendation: str
    evidence: dict[str, Any] = field(default_factory=dict)
    file: str = ""
    line: int = 0
    col: int = 0

    def location(self) -> str:
        if self.line:
            return f"{self.file}:{self.line}"
        return self.file

    def render(self) -> str:
        where = f"  {self.location()}" if self.file else ""
        lines = [
            f"[{self.severity.name}] {self.rule} {self.name}{where}",
            f"  {self.detail}",
            f"  -> {self.recommendation}",
        ]
        if self.evidence:
            ev = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(self.evidence.items())
            )
            lines.append(f"  evidence: {ev}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.name,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "detail": self.detail,
            "recommendation": self.recommendation,
            "evidence": self.evidence,
        }


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


@dataclass(frozen=True)
class RuleSpec:
    """Registry entry: the per-rule constants every finding inherits."""

    rule_id: str
    name: str
    severity: Severity
    summary: str
    recommendation: str

    def finding(
        self,
        detail: str,
        *,
        file: str = "",
        line: int = 0,
        col: int = 0,
        severity: Severity | None = None,
        recommendation: str | None = None,
        **evidence: Any,
    ) -> Finding:
        """This rule's finding; *severity* and *recommendation* override the
        row's for checkers that grade or compute them."""
        return Finding(
            rule=self.rule_id,
            name=self.name,
            severity=severity or self.severity,
            detail=detail,
            recommendation=recommendation or self.recommendation,
            evidence=dict(sorted(evidence.items())),
            file=file,
            line=line,
            col=col,
        )


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: most severe first, then location, then
    rule ID (the registration order of the run detectors)."""
    return sorted(
        findings,
        key=lambda f: (-int(f.severity), f.file, f.line, f.col, f.rule),
    )


def _severity_counts(findings: list[Finding]) -> dict[str, int]:
    counts = {s.name: 0 for s in sorted(Severity, reverse=True)}
    for f in findings:
        counts[f.severity.name] += 1
    return {k: v for k, v in counts.items() if v}


def render_findings(findings: list[Finding], target: str = "") -> str:
    """Console report: a count line, then each finding most severe first."""
    lines = [f"repro-lint — {target}"] if target else []
    if not findings:
        lines.append("no issues found — everything checked looks healthy")
        return "\n".join(lines)
    summary = ", ".join(f"{n} {s}" for s, n in _severity_counts(findings).items())
    lines += [f"{len(findings)} finding(s): {summary}", ""]
    lines.extend(f.render() for f in sort_findings(findings))
    return "\n".join(lines)


def findings_to_dict(findings: list[Finding], target: str = "") -> dict[str, Any]:
    return {
        "target": target,
        "finding_count": len(findings),
        "severity_counts": _severity_counts(findings),
        "findings": [f.as_dict() for f in sort_findings(findings)],
    }


#: the rule registry (stable IDs; golden tests pin them)
RULES: dict[str, RuleSpec] = {
    spec.rule_id: spec
    for spec in [
        # -- self-audit rules (coverage + one route) ---------------------- #
        RuleSpec(
            "LDP001",
            "uninterposed-symbol",
            Severity.HIGH,
            "a file-touching os symbol is not interposed",
            "add a tagged, keyed row to plfs.route.INTERPOSED with a Shim method "
            "(or record a justified entry in coverage.ACKNOWLEDGED_PASSTHROUGH)",
        ),
        RuleSpec(
            "LDP002",
            "patch-without-shim",
            Severity.HIGH,
            "a patched symbol has no Shim implementation",
            "implement the same-named Shim method (the PLFS half: the dispatch "
            "generates the pass-through) "
            "or drop the row from plfs.route.INTERPOSED",
        ),
        RuleSpec(
            "LDP005",
            "stale-patch",
            Severity.INFO,
            "an interposed-symbol table row does not exist in the os module",
            "remove the dead entry (or gate it per platform)",
        ),
        RuleSpec(
            "LDP006",
            "off-route-os-call",
            Severity.HIGH,
            "PLFS or shim code reaches the OS around repro.plfs.route",
            "spell it posix.<call> (repro.plfs.route: posix.stat, "
            "posix.builtins_open, posix.ensure_dir, posix.rmtree, ...) or, "
            "for the shim's own pass-through, self.real.<call>; a bare os "
            "call re-enters the installed shim",
        ),
        RuleSpec(
            "LDP007",
            "unkeyed-row",
            Severity.HIGH,
            "an interposed-symbol table row has no key kind the dispatch builds",
            "give the row in plfs.route.INTERPOSED one of core.interpose.KEY_KINDS "
            "(its descriptor or path arguments), or \"none\" for a whole Shim method",
        ),
        # -- application scripts (AST linter) ----------------------------- #
        RuleSpec(
            "LDP101",
            "mmap-on-mount",
            Severity.HIGH,
            "mmap bypasses the interposed I/O path",
            "replace the mapping with read/write (or pread/pwrite) calls, "
            "which the shim retargets to PLFS",
        ),
        RuleSpec(
            "LDP102",
            "zero-copy-bypass",
            Severity.WARN,
            "kernel zero-copy cannot see PLFS data",
            "copy with a read/write loop (shutil.copyfileobj) for files "
            "under a PLFS mount; the shim refuses zero-copy on PLFS fds",
        ),
        RuleSpec(
            "LDP103",
            "subprocess-on-mount",
            Severity.HIGH,
            "a child process is handed a logical mount path",
            "do the I/O in-process, pass the backend path instead, or "
            "activate preload in the child (LDPLFS_PRELOAD=1 plus "
            "import repro.core.preload)",
        ),
        RuleSpec(
            "LDP104",
            "fd-arithmetic",
            Severity.WARN,
            "arithmetic on a file-descriptor value",
            "treat descriptors as opaque handles; derive new ones only via "
            "dup/dup2 (both interposed)",
        ),
        RuleSpec(
            "LDP105",
            "import-time-binding",
            Severity.HIGH,
            "a POSIX entry point was captured at import time",
            "call through the module (os.open) so install() can rebind it, "
            "or pass this module to Interposer.wrap_module() after install",
        ),
        RuleSpec(
            "LDP106",
            "open-aliasing",
            Severity.WARN,
            "a file object is constructed outside builtins.open",
            "use builtins.open (or os.fdopen, which calls it) — it is "
            "rebound by install() and handles PLFS descriptors — instead "
            "of io.FileIO",
        ),
        RuleSpec(
            "LDP107",
            "small-write-loop",
            Severity.RECOMMEND,
            "a loop issues fixed small writes (the BT regime)",
            "deploy PLFS via LDPLFS (no code change needed): small strided "
            "writes become buffered per-process log appends — the paper "
            "measures up to ~20x in this regime",
        ),
        RuleSpec(
            "LDP109",
            "fd-leak",
            Severity.WARN,
            "a descriptor is opened but never closed",
            "use 'with open(...)' or close explicitly; a PLFS index "
            "dropping only reaches the backend at close/flush",
        ),
        RuleSpec(
            "LDP111",
            "syntax-error",
            Severity.HIGH,
            "the script cannot be parsed",
            "fix the syntax error; nothing was analysed beyond it",
        ),
        # -- whole-system concurrency ------------------------------------- #
        RuleSpec(
            "LDP201",
            "interprocedural-guard-bypass",
            Severity.HIGH,
            "registered shared state mutated with its guard provably unheld",
            "acquire the field's guarding lock on every call path to the "
            "mutation (see sanitize.registry.EXTENDED_GUARDS), or register "
            "the field's actual ownership discipline",
        ),
        RuleSpec(
            "LDP202",
            "lock-order-cycle",
            Severity.HIGH,
            "the lock-order graph contains a cycle (deadlock candidate)",
            "break the cycle: pick one global acquisition order for the "
            "locks involved and restructure the nesting sites to follow it",
        ),
        RuleSpec(
            "LDP203",
            "await-holding-threading-lock",
            Severity.HIGH,
            "an async function awaits while a threading lock is held",
            "release the thread lock before the await (the event loop "
            "parks holding it, deadlocking executor threads), or make the "
            "critical section synchronous",
        ),
        RuleSpec(
            "LDP204",
            "lockset-violation",
            Severity.HIGH,
            "runtime accesses to shared state share no common lock",
            "serialize the accesses under one lock (or a documented "
            "single-owner discipline) and register it in _SANITIZE_SHARED",
        ),
        # -- ordering contracts (crash-consistency invariants) ------------ #
        RuleSpec(
            "LDP301",
            "ordering-contract-violation",
            Severity.HIGH,
            "a declared crash-ordering invariant is violated by call order",
            "restore the contracted order (the 'first' operation must "
            "complete before the 'then' operation); these orders are what "
            "recovery correctness is proved against",
        ),
        RuleSpec(
            "LDP302",
            "ordering-contract-missing-op",
            Severity.HIGH,
            "a contracted operation no longer appears in its function",
            "update lint.contracts.DEFAULT_CONTRACTS deliberately "
            "alongside the code change; a stale contract silently stops "
            "guarding the invariant it encodes",
        ),
        # -- observed runs (repro.insights.rules, in ALL_RULES order) ----- #
        RuleSpec(
            "LDP401",
            "fault-degraded-run",
            Severity.WARN,
            "the run was degraded by storage faults",
            "treat this run's bandwidth as a lower bound, not a pattern "
            "diagnosis; run repro-fsck on containers touched by crashed "
            "writers, and open writers with write_ahead_index if torn "
            "writes must stay recoverable",
        ),
        RuleSpec(
            "LDP402",
            "mds-create-storm",
            Severity.HIGH,
            "PLFS harmful: dedicated-MDS create storm",
            "disable PLFS at this scale (fall back to plain MPI-IO), cap the "
            "writer count, or move the container to a file system with "
            "distributed metadata (GPFS-style), where the paper notes the "
            "decrease may not materialise",
        ),
        RuleSpec(
            "LDP403",
            "small-writes-shared-file",
            Severity.HIGH,
            "small writes dominate a write-through shared file",
            "use PLFS via LDPLFS: per-process log droppings need no "
            "inter-client locks and small appends are absorbed by the "
            "client write-back cache (no relink or code change needed)",
        ),
        RuleSpec(
            "LDP404",
            "shared-file-lock-serialisation",
            Severity.HIGH,
            "shared-file extent locks serialise the writers",
            "partition the output per process — use PLFS via LDPLFS so each "
            "rank appends to its own dropping and the locks disappear",
        ),
        RuleSpec(
            "LDP405",
            "fuse-request-chunking",
            Severity.WARN,
            "FUSE transport chunks every request",
            "reach PLFS through LDPLFS (or the ROMIO driver) instead of the "
            "FUSE mount; interposition keeps requests whole",
        ),
        RuleSpec(
            "LDP406",
            "uncollective-strided-writes",
            Severity.RECOMMEND,
            "independent strided writes bypass collective buffering",
            "use collective MPI-IO calls with ROMIO collective buffering "
            "(romio_cb_write=enable)",
        ),
        RuleSpec(
            "LDP407",
            "unflattened-index-reopen",
            Severity.RECOMMEND,
            "reopen for read rebuilds the index from every dropping",
            "flatten the index after the write phase (plfs_flatten_index) so "
            "read-heavy reopens load one contiguous index instead of "
            "scanning every dropping",
        ),
        RuleSpec(
            "LDP408",
            "random-access-pattern",
            Severity.RECOMMEND,
            "accesses are mostly non-consecutive",
            "write log-structured — PLFS (via LDPLFS) turns any logical "
            "pattern into sequential per-process appends",
        ),
        RuleSpec(
            "LDP409",
            "metadata-heavy",
            Severity.WARN,
            "metadata operations dominate the data moved",
            "batch opens/creates, keep files open across phases, or reduce "
            "the number of distinct files the run touches",
        ),
        RuleSpec(
            "LDP410",
            "per-file-skew",
            Severity.INFO,
            "traffic is skewed across files",
            "balance data volume per process, or let aggregation (collective "
            "buffering / PLFS droppings) even the load",
        ),
        RuleSpec(
            "LDP411",
            "stream-overprovision",
            Severity.INFO,
            "dropping streams oversubscribe the disk arrays",
            "cap the writers per container (collective buffering with fewer "
            "aggregators) — past this point more droppings add seek cost, "
            "not bandwidth",
        ),
        RuleSpec(
            "LDP412",
            "buffered-opacity",
            Severity.INFO,
            "buffered file objects with no visible I/O",
            "treat these files' byte counts as unknown, not zero; os-level "
            "I/O or the tracer's file-object proxy is needed for full "
            "visibility",
        ),
    ]
}
