"""Declared ordering contracts over the write path (the LDP3xx pass).

PR 5's crash-consistency story rests on a handful of *orderings*: the WAL
record reaches the journal before the data bytes it describes, the index
is flushed before the cross-process generation counter announces it, data
is durable before the barrier that claims it is.  Those invariants are
enforced today by the order of two adjacent calls in ``writer.py`` — one
well-meaning refactor away from silent corruption that only a crash at
the wrong instant would ever reveal.

This pass turns each invariant into an :class:`OrderingContract` — "in
this function, every call to *first* precedes every call to *then*" — and
verifies it by statement-order dataflow over the function body.  Call
sites are matched by the final dotted component (``store.write_data`` and
``self.store.write_data`` both match ``write_data``) and compared by
source position, so swapping the two statements fails
``repro-lint --self-audit`` (LDP301) and deleting one of them outright is
also a violation (LDP302): a contract whose operations vanished is stale
authority and must be updated deliberately, not ignored.

The contract list is the authority; the detector output is evidence that
HEAD currently satisfies it.  Extend :data:`DEFAULT_CONTRACTS` whenever a
new ordering invariant is introduced.
"""

from __future__ import annotations

import ast
from collections.abc import Mapping
from dataclasses import dataclass

from .findings import RULES, Finding, sort_findings
from .static import ModuleTrees

__all__ = ["OrderingContract", "DEFAULT_CONTRACTS", "check_contracts"]


@dataclass(frozen=True)
class OrderingContract:
    """Every *first* call precedes every *then* call inside *function*."""

    module: str
    owner: str  # class name, "" for module-level functions
    function: str
    first: tuple[str, ...]  # call names (final dotted component)
    then: tuple[str, ...]
    rationale: str

    @property
    def qualname(self) -> str:
        return f"{self.owner}.{self.function}" if self.owner else self.function

    @property
    def evidence(self) -> dict[str, str]:
        """What every finding against this contract cites."""
        return {
            "contract": f"{self.qualname}: {' < '.join(self.first)}"
            f" before {' < '.join(self.then)}",
            "rationale": self.rationale,
        }


#: the PR-5 recovery invariants, written down as machine-checked contracts
DEFAULT_CONTRACTS: list[OrderingContract] = [
    OrderingContract(
        "repro.plfs.writer",
        "_Dropping",
        "append",
        ("_promise",),
        ("write_data",),
        "WAL promise persists before the data bytes it describes",
    ),
    OrderingContract(
        "repro.plfs.writer",
        "_Dropping",
        "append_many",
        ("_promise",),
        ("write_datav",),
        "WAL promises persist before the vectored data they describe",
    ),
    OrderingContract(
        "repro.plfs.writer",
        "_Dropping",
        "flush_index",
        ("flush_wal",),
        ("append_index",),
        "group-commit WAL batch is durable before index records land",
    ),
    OrderingContract(
        "repro.plfs.writer",
        "_Dropping",
        "sync",
        ("flush_index",),
        ("fsync",),
        "index records are written before the sync barrier claims them",
    ),
    OrderingContract(
        "repro.plfs.writer",
        "WriteFile",
        "_account",
        ("flush_index",),
        ("_invalidate",),
        "index flush precedes the cross-process generation bump",
    ),
    OrderingContract(
        "repro.plfs.writer",
        "WriteFile",
        "sync",
        ("sync",),
        ("_invalidate",),
        "per-dropping sync barriers complete before readers are signalled",
    ),
    OrderingContract(
        "repro.plfs.writer",
        "WriteFile",
        "close",
        ("close",),
        ("_invalidate",),
        "droppings are sealed before the generation bump publishes them",
    ),
    OrderingContract(
        "repro.plfs.cache",
        "",
        "invalidate_cross_process",
        ("bump",),
        ("bump_generation",),
        "local handles are behind before the generation file tells peers",
    ),
    OrderingContract(
        "repro.plfs.backing",
        "BackingStore",
        "write_global_index",
        ("write",),
        ("replace",),
        "compacted index payload is complete before the atomic rename",
    ),
]


def _find_function(
    tree: ast.Module, owner: str, function: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    if owner:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == owner:
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name == function
                    ):
                        return item
        return None
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == function
        ):
            return node
    return None


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _first_positions(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, tuple[int, int]]:
    """Source position of the first call to each name inside *fn*."""
    out: dict[str, tuple[int, int]] = {}
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
    for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
        name = _call_name(call)
        if name is not None and name not in out:
            out[name] = (call.lineno, call.col_offset)
    return out


def check_contracts(
    contracts: list[OrderingContract] | None = None,
    *,
    sources: Mapping[str, str] | ModuleTrees | None = None,
) -> list[Finding]:
    """Verify every ordering contract against module source.

    *sources* overrides on-disk module source (module name -> text), which
    is how the regression tests prove a swapped WAL-write/data-append
    order is caught without mutating the tree — or is the self-audit's
    shared :class:`~repro.lint.static.ModuleTrees`.
    """
    contracts = DEFAULT_CONTRACTS if contracts is None else contracts
    trees = ModuleTrees.of(sources)
    findings: list[Finding] = []

    for contract in contracts:
        fn = _find_function(trees[contract.module], contract.owner, contract.function)
        if fn is None:
            findings.append(
                RULES["LDP302"].finding(
                    f"contracted function {contract.qualname} no longer "
                    f"exists in {contract.module}; the ordering contract "
                    "is stale and must be updated deliberately",
                    file=contract.module,
                    line=1,
                    missing=contract.qualname,
                    **contract.evidence,
                )
            )
            continue
        positions = _first_positions(fn)
        missing = [
            op
            for op in (*contract.first, *contract.then)
            if op not in positions
        ]
        if missing:
            findings.append(
                RULES["LDP302"].finding(
                    f"{contract.qualname} no longer calls "
                    f"{', '.join(missing)}; the ordering contract cannot "
                    "be verified and must be updated deliberately",
                    file=contract.module,
                    line=fn.lineno,
                    col=fn.col_offset,
                    missing=",".join(missing),
                    **contract.evidence,
                )
            )
            continue
        latest_first = max(positions[op] for op in contract.first)
        for op in contract.then:
            pos = positions[op]
            if pos <= latest_first:
                findings.append(
                    RULES["LDP301"].finding(
                        f"{contract.qualname} calls {op} at line {pos[0]} "
                        f"before the contracted prerequisite "
                        f"({', '.join(contract.first)} must complete "
                        f"first): {contract.rationale}",
                        file=contract.module,
                        line=pos[0],
                        col=pos[1],
                        observed=op,
                        observed_line=pos[0],
                        required_after=",".join(contract.first),
                        **contract.evidence,
                    )
                )
    return sort_findings(findings)
