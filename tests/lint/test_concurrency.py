"""The interposition core's guarded-field contracts, fed to the
interprocedural analyzer (:mod:`repro.lint.static`).

These are the single-module inputs the retired lexical checker was
written against; the one analyzer ``repro-lint --self-audit`` runs must
reach the same verdicts on them (LDP201 guard bypass, LDP202 lock-order
cycle).
"""

from __future__ import annotations

import textwrap

from repro.lint import self_audit
from repro.sanitize.registry import EXTENDED_GUARDS, GuardSpec, lock_from_guard
from repro.lint.static import analyze

TABLE_GUARD = GuardSpec("fake.table", "FdTable", "_entries", "self._lock")
GLOBAL_GUARD = GuardSpec("fake.table", "", "_installed", "_install_lock")


def _check(source: str, guards=None) -> list:
    guards = guards or [TABLE_GUARD]
    return analyze(
        (),
        guards=guards,
        locks=[lock_from_guard(g) for g in guards],
        sources={"fake.table": textwrap.dedent(source)},
    ).findings


class TestGuardedFields:
    def test_unguarded_mutation_is_flagged(self):
        findings = _check(
            """
            class FdTable:
                def register(self, fd, entry):
                    self._entries[fd] = entry
            """
        )
        assert [f.rule for f in findings] == ["LDP201"]
        assert findings[0].evidence["function"] == "FdTable.register"
        assert findings[0].evidence["guard"] == "FdTable._lock"

    def test_guarded_mutation_is_clean(self):
        assert (
            _check(
                """
                class FdTable:
                    def register(self, fd, entry):
                        with self._lock:
                            self._entries[fd] = entry
                """
            )
            == []
        )

    def test_mutating_method_call_needs_lock(self):
        findings = _check(
            """
            class FdTable:
                def drop(self, fd):
                    self._entries.pop(fd, None)
            """
        )
        assert [f.rule for f in findings] == ["LDP201"]

    def test_init_is_exempt(self):
        assert (
            _check(
                """
                class FdTable:
                    def __init__(self):
                        self._entries = {}
                """
            )
            == []
        )

    def test_read_access_is_not_a_mutation(self):
        assert (
            _check(
                """
                class FdTable:
                    def get(self, fd):
                        return self._entries.get(fd)
                """
            )
            == []
        )

    def test_other_classes_are_out_of_scope(self):
        assert (
            _check(
                """
                class Unrelated:
                    def register(self, fd, entry):
                        self._entries[fd] = entry
                """
            )
            == []
        )

    def test_module_global_contract(self):
        findings = _check(
            """
            _installed = None

            def install(ip):
                global _installed
                _installed = ip
            """,
            guards=[GLOBAL_GUARD],
        )
        assert [f.rule for f in findings] == ["LDP201"]

        clean = _check(
            """
            def install(ip):
                global _installed
                with _install_lock:
                    _installed = ip
            """,
            guards=[GLOBAL_GUARD],
        )
        assert clean == []


class TestLockOrder:
    def test_inversion_is_flagged(self):
        findings = _check(
            """
            class FdTable:
                def a(self):
                    with self._lock:
                        with other_lock:
                            self._entries.clear()

                def b(self):
                    with other_lock:
                        with self._lock:
                            self._entries.clear()
            """,
            guards=[
                TABLE_GUARD,
                GuardSpec("fake.table", "", "_x", "other_lock"),
            ],
        )
        assert [f.rule for f in findings] == ["LDP202"]

    def test_consistent_nesting_is_clean(self):
        findings = _check(
            """
            class FdTable:
                def a(self):
                    with self._lock:
                        with other_lock:
                            self._entries.clear()

                def b(self):
                    with self._lock:
                        with other_lock:
                            self._entries.clear()
            """,
            guards=[
                TABLE_GUARD,
                GuardSpec("fake.table", "", "_x", "other_lock"),
            ],
        )
        assert findings == []


class TestSelfAudit:
    def test_real_tree_holds_all_contracts(self):
        assert analyze().findings == []

    def test_default_guards_cover_the_core_structures(self):
        covered = {(g.module, g.field) for g in EXTENDED_GUARDS}
        assert ("repro.core.fdtable", "_entries") in covered
        assert ("repro.core.mounts", "_mounts") in covered
        assert ("repro.core.interpose", "_installed") in covered

    def test_combined_self_audit_passes(self):
        audit = self_audit()
        assert audit.passed
        assert audit.findings == []
        assert audit.coverage.clean
