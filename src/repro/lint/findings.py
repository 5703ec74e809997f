"""Finding type and the severity-graded rule registry.

Mirrors :mod:`repro.insights.rules`: one shared :class:`Severity` scale,
one dataclass per detected issue carrying the evidence that triggered it,
and a registry keyed by stable rule IDs so reports (and the golden-file
tests) stay byte-identical across runs.

ID ranges: ``LDP0xx`` are self-audit rules (interposition coverage and
the one-route audit over our own core); ``LDP1xx`` are application-script
anti-patterns found by the AST linter; ``LDP2xx`` are whole-system
concurrency findings from :mod:`repro.sanitize` (interprocedural guard
analysis, lock-order cycles, the runtime lockset detector); ``LDP3xx``
are ordering-contract violations (crash-consistency invariants declared
in :mod:`repro.sanitize.contracts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.insights.rules import Severity

__all__ = ["Severity", "LintFinding", "RuleSpec", "RULES", "sort_findings"]


@dataclass
class LintFinding:
    """One statically detected issue, pinned to a source location."""

    rule: str
    name: str
    severity: Severity
    file: str
    line: int
    col: int
    detail: str
    recommendation: str
    evidence: dict = field(default_factory=dict)

    def location(self) -> str:
        if self.line:
            return f"{self.file}:{self.line}"
        return self.file

    def render(self) -> str:
        lines = [
            f"[{self.severity.name}] {self.rule} {self.name}  {self.location()}"
        ]
        lines.append(f"  {self.detail}")
        lines.append(f"  -> {self.recommendation}")
        if self.evidence:
            ev = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(self.evidence.items())
            )
            lines.append(f"  evidence: {ev}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
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


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def sort_findings(findings: list[LintFinding]) -> list[LintFinding]:
    """Deterministic report order: most severe first, then location."""
    return sorted(
        findings,
        key=lambda f: (-int(f.severity), f.file, f.line, f.col, f.rule),
    )


@dataclass(frozen=True)
class RuleSpec:
    """Registry entry: the per-rule constants every finding inherits."""

    rule_id: str
    name: str
    severity: Severity
    summary: str
    recommendation: str


def _spec(rule_id, name, severity, summary, recommendation) -> RuleSpec:
    return RuleSpec(rule_id, name, severity, summary, recommendation)


#: the rule registry (stable IDs; golden tests pin them)
RULES: dict[str, RuleSpec] = {
    spec.rule_id: spec
    for spec in [
        # -- self-audit rules (coverage + one route) ---------------------- #
        _spec(
            "LDP001",
            "uninterposed-symbol",
            Severity.HIGH,
            "a file-touching os symbol is not interposed",
            "add a tagged, keyed row to plfs.route.INTERPOSED with a Shim method "
            "(or record a justified entry in coverage.ACKNOWLEDGED_PASSTHROUGH)",
        ),
        _spec(
            "LDP002",
            "patch-without-shim",
            Severity.HIGH,
            "a patched symbol has no Shim implementation",
            "implement the same-named Shim method (the PLFS half: the dispatch "
            "generates the pass-through) "
            "or drop the row from plfs.route.INTERPOSED",
        ),
        _spec(
            "LDP005",
            "stale-patch",
            Severity.INFO,
            "an interposed-symbol table row does not exist in the os module",
            "remove the dead entry (or gate it per platform)",
        ),
        _spec(
            "LDP006",
            "off-route-os-call",
            Severity.HIGH,
            "PLFS or shim code reaches the OS around repro.plfs.route",
            "spell it posix.<call> (repro.plfs.route: posix.stat, "
            "posix.builtins_open, posix.ensure_dir, posix.rmtree, ...) or, "
            "for the shim's own pass-through, self.real.<call>; a bare os "
            "call re-enters the installed shim",
        ),
        _spec(
            "LDP007",
            "unkeyed-row",
            Severity.HIGH,
            "an interposed-symbol table row has no key kind the dispatch builds",
            "give the row in plfs.route.INTERPOSED one of core.interpose.KEY_KINDS "
            "(its descriptor or path arguments), or \"none\" for a whole Shim method",
        ),
        # -- application anti-patterns (AST linter) ----------------------- #
        _spec(
            "LDP101",
            "mmap-on-mount",
            Severity.HIGH,
            "mmap bypasses the interposed I/O path",
            "replace the mapping with read/write (or pread/pwrite) calls, "
            "which the shim retargets to PLFS",
        ),
        _spec(
            "LDP102",
            "zero-copy-bypass",
            Severity.WARN,
            "kernel zero-copy cannot see PLFS data",
            "copy with a read/write loop (shutil.copyfileobj) for files "
            "under a PLFS mount; the shim refuses zero-copy on PLFS fds",
        ),
        _spec(
            "LDP103",
            "subprocess-on-mount",
            Severity.HIGH,
            "a child process is handed a logical mount path",
            "do the I/O in-process, pass the backend path instead, or "
            "activate preload in the child (LDPLFS_PRELOAD=1 plus "
            "import repro.core.preload)",
        ),
        _spec(
            "LDP104",
            "fd-arithmetic",
            Severity.WARN,
            "arithmetic on a file-descriptor value",
            "treat descriptors as opaque handles; derive new ones only via "
            "dup/dup2 (both interposed)",
        ),
        _spec(
            "LDP105",
            "import-time-binding",
            Severity.HIGH,
            "a POSIX entry point was captured at import time",
            "call through the module (os.open) so install() can rebind it, "
            "or pass this module to Interposer.wrap_module() after install",
        ),
        _spec(
            "LDP106",
            "open-aliasing",
            Severity.WARN,
            "a file object is constructed outside builtins.open",
            "use builtins.open — it is rebound by install() and handles "
            "PLFS descriptors — instead of os.fdopen/io.FileIO",
        ),
        _spec(
            "LDP107",
            "small-write-loop",
            Severity.RECOMMEND,
            "a loop issues fixed small writes (the BT regime)",
            "deploy PLFS via LDPLFS (no code change needed): small strided "
            "writes become buffered per-process log appends — the paper "
            "measures up to ~20x in this regime",
        ),
        _spec(
            "LDP108",
            "seek-churn",
            Severity.WARN,
            "per-iteration seeks churn the emulated cursor",
            "use positional I/O (os.pread/os.pwrite/os.preadv/os.pwritev — "
            "all interposed) instead of seek+read/write pairs",
        ),
        _spec(
            "LDP109",
            "fd-leak",
            Severity.WARN,
            "a descriptor is opened but never closed",
            "use 'with open(...)' or close explicitly; a PLFS index "
            "dropping only reaches the backend at close/flush",
        ),
        _spec(
            "LDP110",
            "unbalanced-install",
            Severity.HIGH,
            "install() has no matching uninstall()",
            "use 'with interposed(...)' for scoped activation, or pair "
            "install() with uninstall() in a finally block",
        ),
        _spec(
            "LDP111",
            "syntax-error",
            Severity.HIGH,
            "the script cannot be parsed",
            "fix the syntax error; nothing was analysed beyond it",
        ),
        _spec(
            "LDP112",
            "blocking-call-in-async",
            Severity.HIGH,
            "blocking I/O or sleep inside an async function",
            "move the call into loop.run_in_executor (or use the asyncio "
            "equivalent, e.g. asyncio.sleep); a blocking call in a handler "
            "stalls every client the event loop serves",
        ),
        _spec(
            "LDP113",
            "await-under-lock",
            Severity.HIGH,
            "await inside a synchronous 'with <lock>:' block",
            "release the thread lock before awaiting, or replace it with "
            "an asyncio.Lock; suspending while holding a thread lock "
            "deadlocks any worker thread contending for it",
        ),
        # -- whole-system concurrency (repro.sanitize) -------------------- #
        _spec(
            "LDP201",
            "interprocedural-guard-bypass",
            Severity.HIGH,
            "registered shared state mutated with its guard provably unheld",
            "acquire the field's guarding lock on every call path to the "
            "mutation (see sanitize.registry.EXTENDED_GUARDS), or register "
            "the field's actual ownership discipline",
        ),
        _spec(
            "LDP202",
            "lock-order-cycle",
            Severity.HIGH,
            "the lock-order graph contains a cycle (deadlock candidate)",
            "break the cycle: pick one global acquisition order for the "
            "locks involved and restructure the nesting sites to follow it",
        ),
        _spec(
            "LDP203",
            "await-holding-threading-lock",
            Severity.HIGH,
            "an async function awaits while a threading lock is held",
            "release the thread lock before the await (the event loop "
            "parks holding it, deadlocking executor threads), or make the "
            "critical section synchronous",
        ),
        _spec(
            "LDP204",
            "lockset-violation",
            Severity.HIGH,
            "runtime accesses to shared state share no common lock",
            "serialize the accesses under one lock (or a documented "
            "single-owner discipline) and register it in _SANITIZE_SHARED",
        ),
        # -- ordering contracts (crash-consistency invariants) ------------ #
        _spec(
            "LDP301",
            "ordering-contract-violation",
            Severity.HIGH,
            "a declared crash-ordering invariant is violated by call order",
            "restore the contracted order (the 'first' operation must "
            "complete before the 'then' operation); these orders are what "
            "recovery correctness is proved against",
        ),
        _spec(
            "LDP302",
            "ordering-contract-missing-op",
            Severity.HIGH,
            "a contracted operation no longer appears in its function",
            "update sanitize.contracts.DEFAULT_CONTRACTS deliberately "
            "alongside the code change; a stale contract silently stops "
            "guarding the invariant it encodes",
        ),
    ]
}
