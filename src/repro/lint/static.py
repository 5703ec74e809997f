"""Cross-module static lock analysis (the LDP2xx passes).

The concurrent stack spans modules — the interposition core's tables, the
daemon's asyncio locks, the shared index cache, the backing global — and
a helper called *under* a lock is exactly the shape a lexical
one-``with``-at-a-time check cannot see.  This module is interprocedural:

1. **Call graph** over the target packages (``repro.core`` + ``repro.plfs``
   + ``repro.plfsd`` by default), resolved through ``self`` dispatch,
   module-level functions, import aliases and module-global instances —
   never by guessing on bare attribute names, so every edge is one we can
   defend.
2. **Held-lock propagation** along that graph, two ways.  *Must-hold* (set
   intersection over all known call sites) soundly excuses a guarded-field
   mutation inside a helper that is only ever called under the guard —
   the LDP201 guard-bypass pass.  *May-hold* (set union) feeds the
   lock-order graph: an acquisition of ``B`` anywhere under ``A`` — even
   through a call chain — records the edge ``A -> B``, and any cycle in
   the resulting graph is a deadlock candidate (LDP202).
3. **Await-under-lock** detection (LDP203): an ``await`` lexically inside
   a ``with <threading lock>:`` block parks the entire event loop on a
   lock a worker thread may hold — the asyncio-era deadlock the lexical
   pass had no concept for.  Asyncio locks are exempt (awaiting under
   them is their purpose).

Functions reachable from outside the analyzed packages are treated as
having no caller-held locks (must-hold starts empty at graph roots), so
the pass errs toward reporting; the runtime detector covers what static
resolution cannot reach.  All findings are deterministic: modules are
walked in sorted order and cycle findings are sorted by (file, line,
lock pair) so ``--json`` output is byte-stable across Python versions.
"""

from __future__ import annotations

import ast
import importlib.util
import pkgutil
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.sanitize.registry import (
    DEFAULT_LOCKS,
    DEFAULT_TARGETS,
    EXTENDED_GUARDS,
    GuardSpec,
    LockSpec,
    lock_from_guard,
)

from .findings import RULES, Finding, sort_findings

__all__ = ["ModuleTrees", "StaticAnalysis", "analyze", "discover_modules"]


# ---------------------------------------------------------------------- #
# module loading
# ---------------------------------------------------------------------- #


def discover_modules(targets: tuple[str, ...]) -> list[str]:
    """Every analyzable module under the target packages, sorted."""
    names: set[str] = set()
    for root in targets:
        spec = importlib.util.find_spec(root)
        if spec is None:
            raise ImportError(f"cannot locate package {root!r}")
        names.add(root)
        search = spec.submodule_search_locations
        if search:
            for info in pkgutil.iter_modules(list(search)):
                sub = f"{root}.{info.name}"
                if info.ispkg:
                    names.update(discover_modules((sub,)))
                else:
                    names.add(sub)
    return sorted(names)


class ModuleTrees(dict[str, ast.Module]):
    """Module name -> parsed tree, each module read and parsed on first use.

    The one loader of every source pass: ``repro-lint --self-audit`` hands
    one instance to the route audit, the lock analysis and the contracts,
    so a module they share is parsed once.  *texts* (name -> source) stand
    in for, or add to, the modules on disk — how the regression tests seed
    violations without touching the tree.
    """

    def __init__(self, texts: Mapping[str, str] | None = None) -> None:
        super().__init__()
        self.texts = dict(texts or {})

    @classmethod
    def of(cls, sources: Mapping[str, str] | ModuleTrees | None) -> ModuleTrees:
        return sources if isinstance(sources, ModuleTrees) else cls(sources)

    def __missing__(self, module: str) -> ast.Module:
        text = self.texts.get(module)
        if text is None:
            spec = importlib.util.find_spec(module)
            if spec is None or spec.origin is None:
                raise ImportError(f"cannot locate source for {module!r}")
            with open(spec.origin, "r", encoding="utf-8") as fh:
                text = fh.read()
        tree = self[module] = ast.parse(text, filename=module)
        return tree


# ---------------------------------------------------------------------- #
# per-module index
# ---------------------------------------------------------------------- #


@dataclass
class _Module:
    name: str
    tree: ast.Module
    #: local alias -> module path (``plfs_api`` -> ``repro.plfs.api``)
    imports: dict[str, str] = field(default_factory=dict)
    #: local alias -> (module path, attribute) for ``from m import a``
    from_attrs: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: class name -> method names
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: module-level function names
    functions: set[str] = field(default_factory=set)
    #: module-global name -> class name (``_shared`` -> ``IndexCache``)
    instance_types: dict[str, str] = field(default_factory=dict)


@dataclass
class _Func:
    fq: str  # "repro.plfs.writer:WriteFile.sync"
    module: str
    cls: str  # "" for module-level functions
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool


def _package_of(module: str) -> list[str]:
    return module.split(".")[:-1]


def _index_module(name: str, tree: ast.Module, known: set[str]) -> _Module:
    mod = _Module(name=name, tree=tree)
    # a "module" that other known modules nest under is a package, and
    # its relative imports resolve against itself, not its parent
    is_pkg = any(other.startswith(name + ".") for other in known)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mod.imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    mod.imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            parts = name.split(".") if is_pkg else _package_of(name)
            if node.level:
                base_parts = (
                    parts[: len(parts) - (node.level - 1)] if node.level > 1 else parts
                )
                base = ".".join(base_parts)
            else:
                base = ""
            target = node.module or ""
            if base and target:
                target = f"{base}.{target}"
            elif base:
                target = base
            for alias in node.names:
                local = alias.asname or alias.name
                as_module = f"{target}.{alias.name}" if target else alias.name
                if as_module in known:
                    mod.imports[local] = as_module
                elif target in known:
                    mod.from_attrs[local] = (target, alias.name)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            mod.classes[node.name] = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.functions.add(node.name)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target_node = node.targets[0]
            value = node.value
            if (
                isinstance(target_node, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
            ):
                mod.instance_types[target_node.id] = value.func.id
    return mod


def _collect_functions(mod: _Module) -> list[_Func]:
    out: list[_Func] = []
    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(
                _Func(
                    fq=f"{mod.name}:{node.name}",
                    module=mod.name,
                    cls="",
                    name=node.name,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                )
            )
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append(
                        _Func(
                            fq=f"{mod.name}:{node.name}.{item.name}",
                            module=mod.name,
                            cls=node.name,
                            name=item.name,
                            node=item,
                            is_async=isinstance(item, ast.AsyncFunctionDef),
                        )
                    )
    return out


# ---------------------------------------------------------------------- #
# lexical facts gathered per function
# ---------------------------------------------------------------------- #

_MUTATING_METHODS = frozenset(
    {
        "pop", "popitem", "clear", "update", "setdefault",
        "append", "extend", "insert", "remove", "sort",
        "add", "discard",
    }
)

#: constructors touch state no other thread can see yet
_EXEMPT_METHODS = frozenset({"__init__", "__new__"})


def _is_field_ref(node: ast.AST, guard: GuardSpec) -> bool:
    """Does *node* denote the guarded field (``self.field`` or global)?"""
    if guard.owner:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == guard.field
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )
    return isinstance(node, ast.Name) and node.id == guard.field


def _mutation_targets(node: ast.AST, guard: GuardSpec) -> Iterator[ast.AST]:
    """Yield the mutated-field references found directly at *node*."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if _is_field_ref(target, guard):
                yield target
            elif isinstance(target, ast.Subscript) and _is_field_ref(
                target.value, guard
            ):
                yield target
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and _is_field_ref(
                target.value, guard
            ):
                yield target
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and _is_field_ref(func.value, guard)
        ):
            yield node


@dataclass(frozen=True)
class _CallSite:
    caller: str
    callee: str
    held: frozenset[str]


@dataclass(frozen=True)
class _Acquire:
    func: str
    lock: str
    kind: str
    held_before: frozenset[str]
    module: str
    line: int
    col: int


@dataclass(frozen=True)
class _Mutation:
    guard: GuardSpec
    func: str
    qualname: str
    held: frozenset[str]
    module: str
    line: int
    col: int


@dataclass(frozen=True)
class _AwaitSite:
    func: str
    qualname: str
    held_threading: frozenset[str]
    module: str
    line: int
    col: int


class _LockIndex:
    """Recognizes known-lock acquisition expressions."""

    def __init__(self, locks: list[LockSpec]) -> None:
        self._self_attrs: dict[tuple[str, str, str], LockSpec] = {}
        self._globals: dict[tuple[str, str], LockSpec] = {}
        self.kinds: dict[str, str] = {}
        for spec in locks:
            self.kinds[spec.label] = spec.kind
            if spec.owner:
                self._self_attrs[(spec.module, spec.owner, spec.attr)] = spec
            else:
                self._globals[(spec.module, spec.attr)] = spec

    def match(self, expr: ast.expr, module: str, cls: str) -> LockSpec | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return self._self_attrs.get((module, cls, expr.attr))
        if isinstance(expr, ast.Name):
            return self._globals.get((module, expr.id))
        return None


def _resolve_call(
    call: ast.Call,
    mod: _Module,
    cls: str,
    modules: dict[str, _Module],
) -> str | None:
    """Fully-qualified callee of *call*, or None when unresolvable.

    Resolution is conservative by design: ``self`` methods, module-level
    functions, import aliases, and module-global instances.  A call we
    cannot pin to a definition contributes no edge (never a guessed one).
    """
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in mod.from_attrs:
            target_mod, attr = mod.from_attrs[name]
            target = modules.get(target_mod)
            if target is not None:
                if attr in target.functions:
                    return f"{target_mod}:{attr}"
                if attr in target.classes and "__init__" in target.classes[attr]:
                    return f"{target_mod}:{attr}.__init__"
            return None
        if name in mod.functions:
            return f"{mod.name}:{name}"
        if name in mod.classes and "__init__" in mod.classes[name]:
            return f"{mod.name}:{name}.__init__"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Name):
        rid = receiver.id
        if rid == "self" and cls:
            if func.attr in mod.classes.get(cls, set()):
                return f"{mod.name}:{cls}.{func.attr}"
            return None
        if rid in mod.imports:
            target_mod = mod.imports[rid]
            target = modules.get(target_mod)
            if target is not None and func.attr in target.functions:
                return f"{target_mod}:{func.attr}"
            return None
        if rid in mod.instance_types:
            cls_name = mod.instance_types[rid]
            if func.attr in mod.classes.get(cls_name, set()):
                return f"{mod.name}:{cls_name}.{func.attr}"
        return None
    return None


class _FunctionScan:
    def __init__(
        self,
        fi: _Func,
        mod: _Module,
        modules: dict[str, _Module],
        locks: _LockIndex,
        guards: list[GuardSpec],
    ) -> None:
        self.fi = fi
        self.mod = mod
        self.modules = modules
        self.locks = locks
        self.guards = guards
        self.calls: list[_CallSite] = []
        self.acquires: list[_Acquire] = []
        self.mutations: list[_Mutation] = []
        self.awaits: list[_AwaitSite] = []
        self._guards_cache: list[GuardSpec] = []

    def run(self) -> None:
        self._guards_cache = self._applicable_guards()
        for stmt in self.fi.node.body:
            self._walk(stmt, ())

    def _applicable_guards(self) -> list[GuardSpec]:
        out: list[GuardSpec] = []
        for guard in self.guards:
            if guard.module != self.mod.name:
                continue
            if guard.owner:
                if (
                    guard.owner == self.fi.cls
                    and self.fi.name not in _EXEMPT_METHODS
                ):
                    out.append(guard)
            else:
                declares = any(
                    isinstance(n, ast.Global) and guard.field in n.names
                    for n in ast.walk(self.fi.node)
                )
                if declares:
                    out.append(guard)
        return out

    def _record_facts(self, node: ast.AST, held: tuple[str, ...]) -> None:
        held_set = frozenset(held)
        if isinstance(node, ast.Call):
            callee = _resolve_call(node, self.mod, self.fi.cls, self.modules)
            if callee is not None:
                self.calls.append(_CallSite(self.fi.fq, callee, held_set))
        if isinstance(node, ast.Await):
            threading_held = frozenset(
                label
                for label in held
                if self.locks.kinds.get(label) == "threading"
            )
            self.awaits.append(
                _AwaitSite(
                    func=self.fi.fq,
                    qualname=self._qualname(),
                    held_threading=threading_held,
                    module=self.mod.name,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
        for guard in self._guards_cache:
            for target in _mutation_targets(node, guard):
                self.mutations.append(
                    _Mutation(
                        guard=guard,
                        func=self.fi.fq,
                        qualname=self._qualname(),
                        held=held_set,
                        module=self.mod.name,
                        line=getattr(target, "lineno", node.lineno),
                        col=getattr(target, "col_offset", node.col_offset),
                    )
                )

    def _qualname(self) -> str:
        return f"{self.fi.cls}.{self.fi.name}" if self.fi.cls else self.fi.name

    def _walk(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes run at another time, under other locks
        self._record_facts(node, held)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                spec = self.locks.match(item.context_expr, self.mod.name, self.fi.cls)
                if spec is not None:
                    self.acquires.append(
                        _Acquire(
                            func=self.fi.fq,
                            lock=spec.label,
                            kind=spec.kind,
                            held_before=frozenset(held) | frozenset(acquired),
                            module=self.mod.name,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )
                    acquired.append(spec.label)
                self._walk_children(item.context_expr, held)
                if item.optional_vars is not None:
                    self._walk_children(item.optional_vars, held)
            inner = held + tuple(acquired)
            for stmt in node.body:
                self._walk(stmt, inner)
            return
        self._walk_children(node, held)

    def _walk_children(self, node: ast.AST, held: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            self._walk(child, held)


# ---------------------------------------------------------------------- #
# the analysis
# ---------------------------------------------------------------------- #


@dataclass
class StaticAnalysis:
    """Everything the interprocedural pass learned, findings included."""

    findings: list[Finding]
    modules: list[str]
    functions: int
    call_edges: int
    lock_edges: list[tuple[str, str]]

    def summary(self) -> dict:
        return {
            "modules": len(self.modules),
            "functions": self.functions,
            "call_edges": self.call_edges,
            "lock_edges": len(self.lock_edges),
            "findings": len(self.findings),
        }


def _must_held(
    funcs: list[_Func], calls: list[_CallSite], all_locks: frozenset[str]
) -> dict[str, frozenset[str]]:
    """Locks held at *every* known call site, propagated transitively.

    Functions with no internal caller are graph roots (assumed called with
    nothing held).  Everything else starts at ⊤ and is intersected down to
    a fixpoint; cycles converge because the meet only shrinks the set.
    """
    in_edges: dict[str, list[_CallSite]] = {}
    for site in calls:
        in_edges.setdefault(site.callee, []).append(site)
    must: dict[str, frozenset[str]] = {
        f.fq: (all_locks if f.fq in in_edges else frozenset()) for f in funcs
    }
    changed = True
    while changed:
        changed = False
        for fq, sites in in_edges.items():
            new = frozenset(all_locks)
            for site in sites:
                new &= site.held | must.get(site.caller, frozenset())
            if new != must.get(fq):
                must[fq] = new
                changed = True
    return must


def _may_held(
    funcs: list[_Func], calls: list[_CallSite]
) -> dict[str, frozenset[str]]:
    """Locks possibly held at some call site, propagated transitively."""
    may: dict[str, set[str]] = {f.fq: set() for f in funcs}
    changed = True
    while changed:
        changed = False
        for site in calls:
            if site.callee not in may:
                continue
            incoming = site.held | frozenset(may.get(site.caller, set()))
            if not incoming <= may[site.callee]:
                may[site.callee] |= incoming
                changed = True
    return {fq: frozenset(held) for fq, held in may.items()}


def _sccs(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan strongly-connected components, deterministic order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    out: list[list[str]] = []

    def strong(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph.get(v, ())):
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp: list[str] = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(sorted(comp))
    for v in sorted(graph):
        if v not in index:
            strong(v)
    return out


def analyze(
    targets: tuple[str, ...] | None = None,
    *,
    guards: list[GuardSpec] | None = None,
    locks: list[LockSpec] | None = None,
    sources: Mapping[str, str] | ModuleTrees | None = None,
) -> StaticAnalysis:
    """Run the whole-system static lock analysis.

    *sources* maps module name -> source text, overriding (or standing in
    for) on-disk modules — how the regression tests seed guard bypasses
    and lock-order inversions without touching the tree — or is the
    self-audit's shared :class:`ModuleTrees`.
    """
    targets = DEFAULT_TARGETS if targets is None else targets
    guards = EXTENDED_GUARDS if guards is None else guards
    locks = DEFAULT_LOCKS if locks is None else locks
    trees = ModuleTrees.of(sources)

    names: set[str] = set(trees.texts)
    for root in targets:
        if root in trees.texts:
            names.add(root)
        else:
            names.update(discover_modules((root,)))
    module_names = sorted(names)
    modules = {
        name: _index_module(name, trees[name], set(module_names))
        for name in module_names
    }

    lock_index = _LockIndex(locks)
    all_funcs: list[_Func] = []
    calls: list[_CallSite] = []
    acquires: list[_Acquire] = []
    mutations: list[_Mutation] = []
    awaits: list[_AwaitSite] = []
    for name in module_names:
        mod = modules[name]
        for fi in _collect_functions(mod):
            all_funcs.append(fi)
            scan = _FunctionScan(fi, mod, modules, lock_index, guards)
            scan.run()
            calls.extend(scan.calls)
            acquires.extend(scan.acquires)
            mutations.extend(scan.mutations)
            awaits.extend(scan.awaits)

    all_labels = frozenset(lock_index.kinds)
    must = _must_held(all_funcs, calls, all_labels)
    may = _may_held(all_funcs, calls)

    findings: list[Finding] = []

    # -- LDP201: guard bypass, interprocedural ------------------------- #
    for mut in sorted(
        mutations, key=lambda m: (m.module, m.line, m.col, m.qualname)
    ):
        guard_lock = lock_from_guard(mut.guard).label
        effective = mut.held | must.get(mut.func, frozenset())
        if guard_lock not in effective:
            scope = f"{mut.guard.owner}." if mut.guard.owner else ""
            findings.append(
                RULES["LDP201"].finding(
                    f"{mut.qualname} mutates {scope}{mut.guard.field} "
                    f"without {guard_lock} held on any path to this "
                    "statement (checked lexically and through every "
                    "resolved caller)",
                    file=mut.module,
                    line=mut.line,
                    col=mut.col,
                    field=mut.guard.field,
                    function=mut.qualname,
                    guard=guard_lock,
                    held=",".join(sorted(effective)) or "(none)",
                )
            )

    # -- LDP202: lock-order graph + deadlock cycles -------------------- #
    edge_sites: dict[tuple[str, str], tuple[str, int, int]] = {}
    for acq in acquires:
        # lexically-held locks plus anything a resolved caller may hold
        outer_set = acq.held_before | may.get(acq.func, frozenset())
        for outer in outer_set:
            if outer == acq.lock:
                continue
            site = (acq.module, acq.line, acq.col)
            key = (outer, acq.lock)
            if key not in edge_sites or site < edge_sites[key]:
                edge_sites[key] = site
    graph: dict[str, set[str]] = {}
    for outer, inner in edge_sites:
        graph.setdefault(outer, set()).add(inner)
        graph.setdefault(inner, set())
    cycle_findings: list[Finding] = []
    for comp in _sccs(graph):
        in_cycle = len(comp) > 1 or (
            comp and comp[0] in graph.get(comp[0], set())
        )
        if not in_cycle:
            continue
        comp_edges = sorted(
            (pair, site)
            for pair, site in edge_sites.items()
            if pair[0] in comp and pair[1] in comp
        )
        module, line, col = min(site for _, site in comp_edges)
        cycle = " -> ".join(comp + [comp[0]])
        cycle_findings.append(
            RULES["LDP202"].finding(
                f"locks {', '.join(comp)} form an acquisition cycle "
                f"({cycle}); two tasks taking the paths in opposite "
                "order deadlock",
                file=module,
                line=line,
                col=col,
                cycle=cycle,
                locks=",".join(comp),
                sites=";".join(
                    f"{pair[0]}->{pair[1]}@{site[0]}:{site[1]}"
                    for pair, site in comp_edges
                ),
            )
        )
    cycle_findings.sort(key=lambda f: (f.file, f.line, str(f.evidence["locks"])))
    findings.extend(cycle_findings)

    # -- LDP203: await while holding a threading lock ------------------ #
    for aw in sorted(awaits, key=lambda a: (a.module, a.line, a.col)):
        if aw.held_threading:
            locks_held = ", ".join(sorted(aw.held_threading))
            findings.append(
                RULES["LDP203"].finding(
                    f"{aw.qualname} awaits while holding {locks_held}: "
                    "the event loop parks with the thread lock held, "
                    "and any worker thread contending for it deadlocks "
                    "the loop",
                    file=aw.module,
                    line=aw.line,
                    col=aw.col,
                    function=aw.qualname,
                    locks=locks_held,
                )
            )

    lock_edges = sorted(edge_sites)
    return StaticAnalysis(
        findings=sort_findings(findings),
        modules=module_names,
        functions=len(all_funcs),
        call_edges=len(calls),
        lock_edges=lock_edges,
    )
