"""The interposition-coverage audit.

The paper's premise is *no application modification*: whatever POSIX entry
point the application reaches for, the preloaded shim must catch it, or
the call silently operates on the real file system and the PLFS container
never sees it.  The C shim gets this wrong by omission (a libc symbol
nobody thought to wrap); the Python analogue is an ``os`` function missing
from the interposed-symbol table (:data:`repro.plfs.route.INTERPOSED`,
which :data:`repro.core.interpose._OS_PATCHES` is the names of).

This audit makes the omission class mechanical: a curated catalogue of
every file-touching symbol on the ``os``/``builtins``/``io`` surfaces is
cross-checked against the patch list and the :class:`~repro.core.shim.Shim`
method set.  Every catalogue symbol must be either *patched* (with a shim
implementation behind it) or *acknowledged* — an explicit entry with a
written justification for why passthrough is safe.  Anything else is a
bypass risk and fails the self-audit.  This is the check that caught the
vectored-I/O gap (``os.readv``/``os.writev``/``os.preadv``/``os.pwritev``)
closed in PR 2.  What it compares is what is still written by hand: the
catalogue and the ``Shim`` methods.  The ``RealOS`` snapshot and the
tracer's calls are generated from the table and need no audit.
"""

from __future__ import annotations

import ast
import builtins
import io
import os
import pkgutil
from dataclasses import dataclass, field

import repro.plfs
from repro.core import interpose
from repro.core.shim import Shim
from repro.plfs.route import ALIAS_OF

from .findings import LintFinding, RuleSpec, RULES, Severity, sort_findings

#: every symbol on the ``os`` surface that takes a path or descriptor and
#: reads, writes, or mutates file data or metadata (Linux + common POSIX)
FILE_TOUCHING_OS: frozenset[str] = frozenset(
    {
        # descriptors and data
        "open", "close", "read", "write", "readv", "writev",
        "pread", "pwrite", "preadv", "pwritev", "lseek",
        "dup", "dup2", "sendfile", "copy_file_range", "splice",
        "fsync", "fdatasync", "ftruncate", "truncate", "isatty",
        "posix_fallocate", "posix_fadvise", "fdopen",
        # path metadata
        "stat", "lstat", "fstat", "access", "chmod", "lchmod", "utime",
        "statvfs", "fstatvfs", "pathconf", "fpathconf",
        "chown", "lchown", "fchown", "fchmod",
        "getxattr", "setxattr", "listxattr", "removexattr",
        # namespace
        "unlink", "remove", "rename", "replace", "link", "symlink",
        "readlink", "mkdir", "rmdir", "listdir", "scandir",
        "makedirs", "removedirs", "renames", "walk", "fwalk",
        "mknod", "mkfifo",
        # process-wide
        "chdir", "fchdir", "chroot", "getcwd", "getcwdb",
        "sync", "system", "popen",
    }
)

#: catalogue symbols deliberately left unpatched, each with the written
#: justification the audit report carries verbatim
ACKNOWLEDGED_PASSTHROUGH: dict[str, str] = {
    "chdir": (
        "working-directory navigation: logical mount paths have no kernel "
        "presence, so chdir onto one fails loudly (ENOENT) instead of "
        "silently bypassing; resolution of logical paths is absolute"
    ),
    "fchdir": (
        "directory fds handed out for logical directories are real backend "
        "fds (see Shim.open), so fchdir lands inside the backend tree"
    ),
    "getcwd": "reports the real working directory; never retargeted",
    "getcwdb": "bytes variant of getcwd; never retargeted",
    "chroot": "process-level namespace change, outside interposition scope",
    "chown": (
        "ownership is not modelled by the container format (the ACCESS "
        "dropping records mode only); passthrough fails loudly (ENOENT) on "
        "logical paths"
    ),
    "lchown": "see chown; symlinks do not exist inside logical trees",
    "fchown": "applies to the shadow descriptor only; see chown",
    "fchmod": (
        "fd-based chmod lands on the shadow descriptor; container modes "
        "are path-based through the interposed chmod"
    ),
    "lchmod": "see chmod; symlinks do not exist inside logical trees",
    "mknod": (
        "special files cannot live inside a logical PLFS tree; passthrough "
        "fails loudly (ENOENT) on logical paths"
    ),
    "mkfifo": "see mknod",
    "makedirs": "pure-Python composite over the interposed mkdir",
    "removedirs": "pure-Python composite over the interposed rmdir",
    "renames": "pure-Python composite over the interposed rename",
    "walk": "pure-Python composite over the interposed scandir",
    "fwalk": (
        "opens real directory fds; logical directories resolve to backend "
        "directories through the interposed open"
    ),
    "pathconf": "limits query answered by the backend file system",
    "fpathconf": "limits query answered on the shadow descriptor",
    "isatty": (
        "query on the shadow descriptor; the answer (False) is correct "
        "for every PLFS file"
    ),
    "posix_fallocate": (
        "preallocation on the shadow fd; droppings grow by append, so "
        "allocation hints are meaningless for them"
    ),
    "posix_fadvise": "advisory only; ignoring it cannot corrupt data",
    "fdopen": (
        "looks up io.open at call time, which install() rebinds; the "
        "aliasing hazard is flagged per-script by lint rule LDP106"
    ),
    "system": (
        "spawns a child process the interposer cannot reach; mount paths "
        "crossing the process boundary are flagged by lint rule LDP103"
    ),
    "popen": "see system",
    "sync": (
        "global kernel flush; PLFS data is flushed per-descriptor by the "
        "interposed fsync/fdatasync"
    ),
    "getxattr": (
        "extended attributes are not part of the container format; "
        "passthrough fails loudly (ENOENT) on logical paths"
    ),
    "setxattr": "see getxattr",
    "listxattr": "see getxattr",
    "removexattr": "see getxattr",
}

#: file-opening callables on the ``io`` surface and their standing
IO_SURFACE: dict[str, str] = {
    "open": "patched",  # rebound alongside builtins.open: interpose.OPEN_SYMBOLS
    "open_code": (
        "interpreter-internal loader hook; reads real source files only"
    ),
    "FileIO": (
        "C-level constructor that install() cannot rebind; direct use is "
        "flagged per-script by lint rule LDP106"
    ),
}

@dataclass
class AuditReport:
    """Outcome of one coverage audit (all lists sorted, JSON-ready)."""

    patched: list[str] = field(default_factory=list)
    uncovered: list[str] = field(default_factory=list)
    acknowledged: dict[str, str] = field(default_factory=dict)
    missing_shim: list[str] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)
    builtin_covered: list[str] = field(default_factory=list)
    builtin_uncovered: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.uncovered or self.missing_shim or self.builtin_uncovered)

    def as_dict(self) -> dict:
        return {
            "patched": self.patched,
            "uncovered": self.uncovered,
            "acknowledged": self.acknowledged,
            "missing_shim": self.missing_shim,
            "stale": self.stale,
            "builtin_covered": self.builtin_covered,
            "builtin_uncovered": self.builtin_uncovered,
            "clean": self.clean,
        }


def audit_interposition(
    patches: list[str] | None = None,
    shim_cls: type = Shim,
    os_module=os,
    catalogue: frozenset[str] = FILE_TOUCHING_OS,
    acknowledged: dict[str, str] | None = None,
) -> AuditReport:
    """Cross-check the file-touching catalogue against the patch list.

    Every parameter defaults to the live tree; tests inject a seeded-gap
    patch list to prove a regression would be caught.
    """
    patches = list(interpose._OS_PATCHES if patches is None else patches)
    acknowledged = (
        ACKNOWLEDGED_PASSTHROUGH if acknowledged is None else acknowledged
    )
    patched_set = set(patches)
    present = {name for name in catalogue if hasattr(os_module, name)}

    report = AuditReport()
    report.patched = sorted(patched_set & present)
    report.stale = sorted(p for p in patches if not hasattr(os_module, p))
    report.uncovered = sorted(
        name
        for name in present
        if name not in patched_set and name not in acknowledged
    )
    report.acknowledged = {
        name: reason
        for name, reason in sorted(acknowledged.items())
        if name in present
    }
    report.missing_shim = sorted(
        name
        for name in patched_set
        if not callable(getattr(shim_cls, ALIAS_OF.get(name, name), None))
    )

    surfaces: dict[str, str] = {"builtins.open": "patched"}
    surfaces.update({f"io.{k}": v for k, v in IO_SURFACE.items()})
    for surface, standing in sorted(surfaces.items()):
        module, attr = surface.split(".", 1)
        if not hasattr(io if module == "io" else builtins, attr):
            continue  # pragma: no cover - platform dependent
        if standing == "patched":
            if surface in interpose.OPEN_SYMBOLS:
                report.builtin_covered.append(surface)
            else:
                report.builtin_uncovered.append(surface)
        else:
            report.acknowledged[surface] = standing
    return report


def _finding(
    spec: RuleSpec, detail: str, file: str = "repro.core.interpose", line: int = 0, col: int = 0,
    **evidence,
) -> LintFinding:
    return LintFinding(
        rule=spec.rule_id,
        name=spec.name,
        severity=spec.severity,
        file=file,
        line=line,
        col=col,
        detail=detail,
        recommendation=spec.recommendation,
        evidence=dict(sorted(evidence.items())),
    )


def audit_findings(report: AuditReport) -> list[LintFinding]:
    """Render an audit's failures as lint findings (empty when clean)."""
    findings: list[LintFinding] = []
    for name in report.uncovered:
        findings.append(
            _finding(
                RULES["LDP001"],
                f"os.{name} touches files but is neither patched nor "
                "acknowledged: while interposition is installed it runs "
                "against the real OS, so a PLFS-backed path or fd "
                "silently bypasses the container",
                symbol=f"os.{name}",
            )
        )
    for surface in report.builtin_uncovered:
        findings.append(
            _finding(
                RULES["LDP001"],
                f"{surface} is not among interpose.OPEN_SYMBOLS; "
                "applications opening through it bypass PLFS",
                symbol=surface,
            )
        )
    for name in report.missing_shim:
        findings.append(
            _finding(
                RULES["LDP002"],
                f"os.{name} is listed in _OS_PATCHES but the Shim class "
                "has no matching method; install() would bind None",
                symbol=f"os.{name}",
            )
        )
    for name in report.stale:
        findings.append(
            _finding(
                RULES["LDP005"],
                f"_OS_PATCHES lists os.{name}, which does not exist on "
                "this platform's os module; the entry is dead weight",
                symbol=f"os.{name}",
            )
        )
    return sort_findings(findings)


#: beyond ``os.<patched name>`` and the builtin ``open``: the stdlib
#: composites that call those by name underneath
OFF_ROUTE_COMPOSITES = frozenset(
    "os.makedirs os.path.exists os.path.isfile os.path.isdir os.path.getsize shutil.rmtree "
    "shutil.copy shutil.copy2 shutil.copyfile shutil.copytree tempfile.mkstemp".split()
)


def routed_modules() -> list[str]:
    """The modules that may touch files only through ``repro.plfs.route``:
    ``repro/plfs/*.py`` (bar the route itself), the shim's two, and the two
    fsck modules (recovery runs in-process, under an installed interposer)."""
    plfs = pkgutil.iter_modules(repro.plfs.__path__, "repro.plfs.")
    names = [m.name for m in plfs if not m.ispkg and m.name != "repro.plfs.route"]
    return sorted(names + ["repro.core.shim", "repro.core.fdtable",
                           "repro.faults.fsck", "repro.plfs.objectstore.fsckx"])


def audit_route(sources: dict[str, str] | None = None) -> list[LintFinding]:
    """LDP006: every bare OS call in the routed modules (or in *sources*,
    name -> text, which is how the seeded-violation fixture is checked)."""
    from repro.sanitize.static import _load_source

    if sources is None:
        sources = {name: _load_source(name) for name in routed_modules()}
    patched = set(interpose._OS_PATCHES)
    findings: list[LintFinding] = []
    for name, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text, filename=name)):
            if not isinstance(node, (ast.Attribute, ast.Name)) or not isinstance(node.ctx, ast.Load):
                continue
            symbol = ast.unparse(node)  # "os.path.exists", "open", "self.real.stat", ...
            if (
                symbol == "open"
                or symbol in OFF_ROUTE_COMPOSITES
                or (symbol.startswith("os.") and symbol[3:] in patched)
            ):
                findings.append(_finding(
                    RULES["LDP006"],
                    f"{symbol} is called by name: under an installed "
                    "Interposer it dispatches through the shim and the mount "
                    "table just to be passed through to the real function",
                    name, node.lineno, node.col_offset, symbol=symbol,
                ))
    return sort_findings(findings)
