"""The interprocedural static lock analysis (LDP2xx pass).

Synthetic modules prove each rule in isolation — including the
interprocedural cases a lexical checker cannot see — and the live tree
is pinned clean plus byte-stable, so any future locking change that
introduces a guard bypass or an ordering inversion fails here first.
"""

from __future__ import annotations

import importlib.util
import json

from repro.analysis.export import canonical_json
from repro.sanitize.registry import GuardSpec, LockSpec
from repro.sanitize.static import analyze

GUARDED_TABLE = '''
import threading


class Table:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def put(self, key, value):
        with self._lock:
            self._unsafe_put(key, value)

    def _unsafe_put(self, key, value):
        self._items[key] = value

    def evil(self, key):
        self._items.pop(key, None)
'''

LOCK_ORDER_CYCLE = '''
import threading

lock_a = threading.Lock()
lock_b = threading.Lock()


def forward():
    with lock_a:
        with lock_b:
            pass


def backward():
    with lock_b:
        with lock_a:
            pass
'''

INTERPROCEDURAL_NESTING = '''
import threading

lock_a = threading.Lock()
lock_b = threading.Lock()


def outer():
    with lock_a:
        inner()


def inner():
    with lock_b:
        pass
'''

AWAIT_HOLDING_LOCK = '''
import asyncio
import threading


class Server:
    def __init__(self):
        self._lock = threading.Lock()

    async def bad(self):
        with self._lock:
            await asyncio.sleep(0)
'''


def _module_source(module: str) -> str:
    spec = importlib.util.find_spec(module)
    assert spec is not None and spec.origin is not None
    with open(spec.origin, "r", encoding="utf-8") as fh:
        return fh.read()


class TestGuardBypass:
    GUARDS = [GuardSpec("synth.tables", "Table", "_items", "self._lock")]
    LOCKS = [LockSpec("synth.tables", "Table", "_lock")]

    def _analyze(self, source: str):
        return analyze(
            (),
            guards=self.GUARDS,
            locks=self.LOCKS,
            sources={"synth.tables": source},
        )

    def test_unguarded_mutation_is_ldp201(self):
        findings = self._analyze(GUARDED_TABLE).findings
        assert [f.rule for f in findings] == ["LDP201"]
        (f,) = findings
        assert f.file == "synth.tables"
        assert f.evidence["function"] == "Table.evil"
        assert f.evidence["guard"] == "Table._lock"

    def test_callee_guarded_through_callers_is_clean(self):
        # _unsafe_put never takes the lock itself; every resolved caller
        # does, so the interprocedural MUSTHELD pass must excuse it.
        clean = GUARDED_TABLE.replace(
            "    def evil(self, key):\n"
            "        self._items.pop(key, None)\n",
            "",
        )
        assert "evil" not in clean
        assert self._analyze(clean).findings == []

    def test_lexically_guarded_baseline_is_clean(self):
        direct = GUARDED_TABLE.replace(
            "self._unsafe_put(key, value)", "self._items[key] = value"
        ).replace(
            "    def _unsafe_put(self, key, value):\n"
            "        self._items[key] = value\n",
            "",
        ).replace(
            "    def evil(self, key):\n"
            "        self._items.pop(key, None)\n",
            "",
        )
        assert self._analyze(direct).findings == []


class TestLockOrder:
    LOCKS = [
        LockSpec("synth.order", "", "lock_a"),
        LockSpec("synth.order", "", "lock_b"),
    ]

    def _analyze(self, source: str):
        return analyze(
            (), guards=[], locks=self.LOCKS,
            sources={"synth.order": source},
        )

    def test_opposite_nesting_is_an_ldp202_cycle(self):
        findings = self._analyze(LOCK_ORDER_CYCLE).findings
        assert [f.rule for f in findings] == ["LDP202"]
        (f,) = findings
        assert "order.lock_a" in f.detail
        assert "order.lock_b" in f.detail

    def test_consistent_nesting_is_clean_but_edges_recorded(self):
        consistent = LOCK_ORDER_CYCLE.replace(
            "def backward():\n"
            "    with lock_b:\n"
            "        with lock_a:",
            "def backward_too():\n"
            "    with lock_a:\n"
            "        with lock_b:",
        )
        analysis = self._analyze(consistent)
        assert analysis.findings == []
        assert ("order.lock_a", "order.lock_b") in analysis.lock_edges

    def test_nesting_through_a_call_is_seen(self):
        # outer() holds lock_a while calling inner(), which takes lock_b:
        # the edge only exists interprocedurally (MAYHELD propagation).
        analysis = self._analyze(INTERPROCEDURAL_NESTING)
        assert ("order.lock_a", "order.lock_b") in analysis.lock_edges

    def test_interprocedural_cycle_detected(self):
        source = INTERPROCEDURAL_NESTING + (
            "\n\ndef backward():\n"
            "    with lock_b:\n"
            "        with lock_a:\n"
            "            pass\n"
        )
        findings = self._analyze(source).findings
        assert [f.rule for f in findings] == ["LDP202"]


class TestAwaitHoldingLock:
    def test_await_under_threading_lock_is_ldp203(self):
        analysis = analyze(
            (),
            guards=[],
            locks=[LockSpec("synth.aw", "Server", "_lock")],
            sources={"synth.aw": AWAIT_HOLDING_LOCK},
        )
        assert [f.rule for f in analysis.findings] == ["LDP203"]
        (f,) = analysis.findings
        assert "Server._lock" in f.detail

    def test_asyncio_lock_is_exempt(self):
        analysis = analyze(
            (),
            guards=[],
            locks=[LockSpec("synth.aw", "Server", "_lock", kind="asyncio")],
            sources={"synth.aw": AWAIT_HOLDING_LOCK},
        )
        assert analysis.findings == []


class TestLiveTree:
    def test_head_is_clean(self):
        analysis = analyze()
        assert analysis.findings == []

    def test_covers_all_three_packages(self):
        analysis = analyze()
        assert "repro.core.fdtable" in analysis.modules
        assert "repro.plfs.writer" in analysis.modules
        assert "repro.plfsd.server" in analysis.modules
        # subpackages recurse: the objectstore backend is in the audit
        assert "repro.plfs.objectstore.tier" in analysis.modules
        assert "repro.plfs.objectstore.store" in analysis.modules
        assert analysis.functions > 0
        assert analysis.call_edges > 0

    def test_seeded_guard_bypass_in_fdtable_is_caught(self):
        source = _module_source("repro.core.fdtable")
        seeded = source.replace(
            "    def insert(",
            "    def _evil(self, fd):\n"
            "        self._entries.pop(fd, None)\n"
            "\n"
            "    def insert(",
            1,
        )
        assert seeded != source
        analysis = analyze(sources={"repro.core.fdtable": seeded})
        assert [f.rule for f in analysis.findings] == ["LDP201"]
        (f,) = analysis.findings
        assert f.file == "repro.core.fdtable"
        assert f.evidence["function"] == "FdTable._evil"


class TestDeterminism:
    def test_lock_edges_byte_stable_across_runs(self):
        first = canonical_json(
            {"lock_order_edges": [list(e) for e in analyze().lock_edges]}
        )
        second = canonical_json(
            {"lock_order_edges": [list(e) for e in analyze().lock_edges]}
        )
        assert first.encode() == second.encode()

    def test_lock_edges_match_golden(self, request):
        golden = request.path.parent / "golden" / "lock_order.json"
        got = canonical_json(
            {"lock_order_edges": [list(e) for e in analyze().lock_edges]}
        )
        assert got == golden.read_text(encoding="utf-8")
        # and the golden itself is canonical (regenerate with
        # canonical_json if the locking structure legitimately changes)
        assert json.loads(got) == json.loads(golden.read_text())

    def test_findings_sorted_by_file_line_locks(self):
        source = LOCK_ORDER_CYCLE + AWAIT_HOLDING_LOCK.replace(
            "import asyncio\nimport threading\n", ""
        )
        analysis = analyze(
            (),
            guards=[],
            locks=[
                LockSpec("synth.mixed", "", "lock_a"),
                LockSpec("synth.mixed", "", "lock_b"),
                LockSpec("synth.mixed", "Server", "_lock"),
            ],
            sources={"synth.mixed": source},
        )
        keys = [(f.file, f.line, f.col) for f in analysis.findings]
        assert keys == sorted(keys)
        assert {f.rule for f in analysis.findings} == {"LDP202", "LDP203"}
