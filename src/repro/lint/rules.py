"""The AST script rules (``LDP1xx``).

Each rule is a :class:`~repro.lint.visitors.LintVisitor` keyed to an
LDPLFS failure mode: either a program shape whose outcome, bytes or errno
differ on a flat file and on a mount — a call that escapes the
interposition layer, the static analogue of the bypasses the coverage
audit hunts in our own core — or the access pattern the paper shows PLFS
turns from a pathology into a win (the BT small-write regime, Fig. 4).
A rule stays only on one of those grounds: every bypass rule has a
boundary test showing its divergence (``tests/lint/test_boundary.py``;
DESIGN §5 decision 21).  Rules only *read* the script — they never
execute it — so ``repro-lint`` can advise before a job is submitted,
IOPathTune-style.
"""

from __future__ import annotations

import ast

from repro.core.interpose import _OS_PATCHES
from repro.insights.metrics import DEFAULT_SMALL_WRITE

from .findings import Finding, Severity
from .visitors import LintVisitor, call_name, estimate_size, string_constants

#: writes at or below this are "small" (matches the insights profile)
SMALL_WRITE_THRESHOLD = DEFAULT_SMALL_WRITE

_SUBPROCESS_CALLS = {
    "subprocess.run",
    "subprocess.Popen",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.getoutput",
    "os.system",
    "os.popen",
    "os.posix_spawn",
    "os.execv",
    "os.execve",
    "os.spawnv",
}

_ZERO_COPY_CALLS = {"os.sendfile", "os.splice", "os.copy_file_range"}

_RAW_CONSTRUCTORS = {"io.FileIO", "io.open_code"}

_OPEN_CALLS = {"open", "os.open", "builtins.open", "io.open"}


class BypassCallsRule(LintVisitor):
    """LDP101/LDP102/LDP106: calls that escape the interposition layer.

    ``os.fdopen`` is not among them: it calls ``io.open``, which install()
    rebinds, so a PLFS descriptor gets a PLFS file object."""

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        near_mount = bool(self.ctx.mount_literals)
        if name == "mmap.mmap":
            self.emit(
                "LDP101",
                node,
                "mmap maps kernel pages of the raw descriptor; a PLFS "
                "logical file has no single backing inode, so mapped "
                "reads and writes silently miss the container",
                severity=Severity.HIGH if near_mount else Severity.WARN,
                call=name,
                mount_paths_in_script=len(self.ctx.mount_literals),
            )
        elif name in _ZERO_COPY_CALLS:
            self.emit(
                "LDP102",
                node,
                f"{name} moves bytes in the kernel, below the shim: on a "
                "PLFS descriptor the interposed version refuses "
                "(EINVAL/EXDEV) and the call fails at runtime",
                call=name,
            )
        elif name in _RAW_CONSTRUCTORS:
            self.emit(
                "LDP106",
                node,
                f"{name} constructs a file object through the C-level "
                "opener, which install() cannot rebind — a mount path "
                "here bypasses PLFS silently",
                severity=Severity.HIGH if near_mount else Severity.WARN,
                call=name,
            )
        self.generic_visit(node)


class SubprocessMountRule(LintVisitor):
    """LDP103: child processes handed logical mount paths."""

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in _SUBPROCESS_CALLS:
            touched = sorted(
                {
                    s
                    for arg in list(node.args) + [kw.value for kw in node.keywords]
                    for s in string_constants(arg)
                    if self.ctx.is_mount_path(s)
                }
            )
            if touched:
                self.emit(
                    "LDP103",
                    node,
                    f"{name} passes the logical path {touched[0]!r} to a "
                    "child process; the child inherits no interposition, "
                    "so the path does not exist there",
                    call=name,
                    path=touched[0],
                )
        self.generic_visit(node)


class FdArithmeticRule(LintVisitor):
    """LDP104: arithmetic on values known to be file descriptors."""

    _ARITH = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)

    def run(self) -> list[Finding]:
        self._fd_names = set()
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if not isinstance(target, ast.Name) or not isinstance(
                    value, ast.Call
                ):
                    continue
                if call_name(value) == "os.open" or (
                    isinstance(value.func, ast.Attribute)
                    and value.func.attr == "fileno"
                ):
                    self._fd_names.add(target.id)
        return super().run()

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, self._ARITH):
            for side in (node.left, node.right):
                if isinstance(side, ast.Name) and side.id in self._fd_names:
                    self.emit(
                        "LDP104",
                        node,
                        f"{side.id!r} holds a file descriptor but is used "
                        "in arithmetic; LDPLFS shadow descriptors make "
                        "any adjacency or density assumption wrong",
                        fd_name=side.id,
                    )
                    break
        self.generic_visit(node)


class ImportBindingRule(LintVisitor):
    """LDP105: POSIX entry points captured at import time."""

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        captured: list[str] = []
        if node.module == "os":
            captured = sorted(
                {a.name for a in node.names} & set(_OS_PATCHES)
            )
        elif node.module in ("builtins", "io"):
            captured = sorted(
                {a.name for a in node.names} & {"open"}
            )
        if captured:
            names = ", ".join(captured)
            self.emit(
                "LDP105",
                node,
                f"'from {node.module} import {names}' copies the real "
                "function into this module before install() can rebind "
                "it — calls through the copy bypass PLFS, exactly like a "
                "statically linked binary bypasses LD_PRELOAD",
                module=node.module,
                symbols=names,
            )
        self.generic_visit(node)


class SmallWriteLoopRule(LintVisitor):
    """LDP107: fixed small writes inside a loop — the BT regime."""

    def visit_Call(self, node: ast.Call) -> None:
        if self.in_loop():
            size = self._write_size(node)
            if size is not None and 0 < size <= SMALL_WRITE_THRESHOLD:
                self.emit(
                    "LDP107",
                    node,
                    f"this loop writes a fixed {size}-byte payload per "
                    "iteration; on a write-through shared file every such "
                    "write pays a synchronous backend round trip (the "
                    "paper's BT small-write regime, Fig. 4)",
                    write_size=size,
                    threshold=int(SMALL_WRITE_THRESHOLD),
                    loop_line=self.loop_line(),
                )
        self.generic_visit(node)

    def _write_size(self, node: ast.Call) -> int | None:
        name = call_name(node)
        data: ast.AST | None = None
        if name in ("os.write", "os.pwrite") and len(node.args) >= 2:
            data = node.args[1]
        elif name.endswith(".write") and name != "os.write" and node.args:
            data = node.args[0]
        elif name in ("os.writev", "os.pwritev") and len(node.args) >= 2:
            vec = node.args[1]
            if isinstance(vec, (ast.List, ast.Tuple)):
                sizes = [
                    estimate_size(e, self.ctx.size_bindings) for e in vec.elts
                ]
                if all(s is not None for s in sizes):
                    return sum(sizes)  # type: ignore[arg-type]
            return None
        if data is None:
            return None
        return estimate_size(data, self.ctx.size_bindings)


class FdLeakRule(LintVisitor):
    """LDP109: open without close/with — flushed only by the atexit drain."""

    def run(self) -> list[Finding]:
        self._seen: set[tuple] = set()
        self._check_scope(self.ctx.tree)
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(node)
        return self.findings

    def _scope_nodes(self, scope: ast.AST):
        """Walk *scope* without descending into nested function scopes."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, scope: ast.AST) -> None:
        opened: dict[str, ast.AST] = {}
        closed: set[str] = set()
        escaped: set[str] = set()
        with_items: set[int] = set()
        for node in self._scope_nodes(scope):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        closed.add(item.context_expr.id)
        for node in self._scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Call)
                    and call_name(value) in _OPEN_CALLS
                ):
                    opened[target.id] = node
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name == "os.close" and node.args:
                    if isinstance(node.args[0], ast.Name):
                        closed.add(node.args[0].id)
                elif name.endswith(".close") and isinstance(
                    node.func, ast.Attribute
                ):
                    receiver = node.func.value
                    if isinstance(receiver, ast.Name):
                        closed.add(receiver.id)
                elif name == "os.fdopen" and node.args:
                    # fdopen takes ownership: the file object closes the fd
                    if isinstance(node.args[0], ast.Name):
                        escaped.add(node.args[0].id)
                elif (
                    name not in _OPEN_CALLS
                    and not name.startswith("os.")
                    and not name.endswith(".close")
                ):
                    # passing the handle to non-os code transfers ownership
                    # (os.* calls merely *use* the descriptor)
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            escaped.add(arg.id)
            elif isinstance(node, ast.Return) and isinstance(
                node.value, ast.Name
            ):
                escaped.add(node.value.id)
        for name, node in sorted(opened.items()):
            if name not in closed and name not in escaped:
                self.emit(
                    "LDP109",
                    node,
                    f"{name!r} is opened here and never closed in this "
                    "scope; the PLFS index dropping stays in memory until "
                    "the atexit drain (and is lost on abnormal exit)",
                    fd_name=name,
                )
        # inline `open(...).read()`-style chains leak the handle instantly
        for node in self._scope_nodes(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and call_name(node.func.value) in _OPEN_CALLS
                and id(node.func.value) not in with_items
            ):
                self.emit(
                    "LDP109",
                    node,
                    f"'open(...).{node.func.attr}()' drops the file object "
                    "without closing it; finalisation (and the PLFS index "
                    "flush) is left to the garbage collector",
                    call=f"open().{node.func.attr}",
                )

    def emit(self, rule_id, node, detail, **kw):
        # module scope re-walks function bodies: flag each site only once
        key = (rule_id, getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if key in self._seen:
            return None
        self._seen.add(key)
        return super().emit(rule_id, node, detail, **kw)


#: registration order is the tiebreak inside one severity grade
ALL_RULE_VISITORS: list[type[LintVisitor]] = [
    BypassCallsRule,
    SubprocessMountRule,
    FdArithmeticRule,
    ImportBindingRule,
    SmallWriteLoopRule,
    FdLeakRule,
]


def run_rule_visitors(ctx) -> list[Finding]:
    """Run every registered rule over one script context."""
    findings: list[Finding] = []
    for visitor_cls in ALL_RULE_VISITORS:
        findings.extend(visitor_cls(ctx).run())
    return findings
