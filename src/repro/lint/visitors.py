"""The AST visitor framework the lint rules are built on.

A :class:`ScriptContext` carries everything a rule may need to know about
the script under analysis — source, filename, the PLFS mount prefixes the
script appears to target — and collects the emitted findings.  Rules are
:class:`LintVisitor` subclasses; the base class adds what ``ast.NodeVisitor``
lacks for I/O linting: dotted call-name resolution, loop depth tracking,
static size estimation for write payloads, and an ``emit()`` that makes
each finding from its catalogue row.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .findings import RULES, Finding

#: mount prefixes assumed when the script does not declare its own
DEFAULT_MOUNT_HINTS = ("/mnt/plfs",)

#: call names whose string arguments declare mount points
_MOUNT_DECLARING_CALLS = {
    "interposed",
    "interpose.interposed",
    "install",
    "interpose.install",
    "add_mount",
}


def dotted_name(node: ast.AST) -> str:
    """``os.path.join`` for an ``ast.Attribute``/``ast.Name`` chain, or ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    return dotted_name(node.func)


def string_constants(node: ast.AST):
    """Every ``str`` constant reachable under *node* (f-string parts too)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def estimate_size(node: ast.AST, bindings: dict[str, int]) -> int | None:
    """Static byte-size of a write payload expression, or None.

    Handles ``b"..."``/``"..."`` literals, ``literal * N`` repetition, and
    names whose single assignment had an estimable size (*bindings*).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, (bytes, str)):
        return len(node.value)
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left = estimate_size(node.left, bindings)
        right = estimate_size(node.right, bindings)
        lint = _const_int(node.left)
        rint = _const_int(node.right)
        if left is not None and rint is not None:
            return left * rint
        if right is not None and lint is not None:
            return lint * right
    return None


def _const_int(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


@dataclass
class ScriptContext:
    """One script under analysis plus the findings gathered so far."""

    filename: str
    tree: ast.AST
    mount_prefixes: tuple[str, ...] = DEFAULT_MOUNT_HINTS
    #: string constants in the script that resolve under a mount prefix
    mount_literals: list[str] = field(default_factory=list)
    #: name -> statically estimated size, from single constant assignments
    size_bindings: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        tree: ast.AST,
        filename: str,
        mounts: tuple[str, ...] | None = None,
    ) -> "ScriptContext":
        prefixes = tuple(mounts or ()) + cls._declared_mounts(tree)
        if not prefixes:
            prefixes = DEFAULT_MOUNT_HINTS
        ctx = cls(filename=filename, tree=tree, mount_prefixes=prefixes)
        ctx.mount_literals = sorted(
            {s for s in string_constants(tree) if ctx.is_mount_path(s)}
        )
        ctx.size_bindings = cls._collect_size_bindings(tree)
        return ctx

    @staticmethod
    def _declared_mounts(tree: ast.AST) -> tuple[str, ...]:
        """Mount points the script itself declares (interposed/install/add_mount)."""
        found: list[str] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in _MOUNT_DECLARING_CALLS:
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    found.append(arg.value)
                    break  # only the mount point, never the backend
                if isinstance(arg, (ast.List, ast.Tuple)):
                    for elt in arg.elts:
                        if isinstance(elt, (ast.Tuple, ast.List)) and elt.elts:
                            first = elt.elts[0]
                            if isinstance(first, ast.Constant) and isinstance(
                                first.value, str
                            ):
                                found.append(first.value)
        return tuple(dict.fromkeys(found))

    @staticmethod
    def _collect_size_bindings(tree: ast.AST) -> dict[str, int]:
        assigned: dict[str, int | None] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    size = estimate_size(node.value, {})
                    if target.id in assigned:
                        assigned[target.id] = None  # reassigned: unknown
                    else:
                        assigned[target.id] = size
        return {k: v for k, v in assigned.items() if v is not None}

    def is_mount_path(self, s: str) -> bool:
        return any(
            s == p or s.startswith(p.rstrip("/") + "/")
            for p in self.mount_prefixes
        )


class LintVisitor(ast.NodeVisitor):
    """Base class for lint rules: context, loop tracking, emit()."""

    def __init__(self, ctx: ScriptContext):
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._loop_stack: list[ast.AST] = []

    # -- traversal hooks ------------------------------------------------ #

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_loop(self, node) -> None:
        self._loop_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._loop_stack.pop()

    # -- helpers --------------------------------------------------------- #

    def in_loop(self) -> bool:
        return bool(self._loop_stack)

    def loop_line(self) -> int:
        """Line of the innermost enclosing loop (0 when not in one)."""
        if not self._loop_stack:
            return 0
        return getattr(self._loop_stack[-1], "lineno", 0)

    def emit(self, rule_id: str, node: ast.AST, detail: str, **kw) -> Finding:
        finding = RULES[rule_id].finding(
            detail,
            file=self.ctx.filename,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            **kw,
        )
        self.findings.append(finding)
        return finding
