"""The ordering-contract checker (LDP3xx pass).

The contracts are authority, the checker is evidence: HEAD must satisfy
every declared write-path ordering, a seeded swap of the WAL promise and
the data append must fail, and a deleted operation must surface as a
stale contract rather than silently passing.
"""

from __future__ import annotations

import importlib.util

from repro.sanitize.contracts import (
    DEFAULT_CONTRACTS,
    OrderingContract,
    check_contracts,
)

SYNTH = '''
class Journal:
    def commit(self):
        self.write_wal()
        self.write_data()
'''

SYNTH_SWAPPED = '''
class Journal:
    def commit(self):
        self.write_data()
        self.write_wal()
'''

SYNTH_CONTRACT = OrderingContract(
    "synth.journal",
    "Journal",
    "commit",
    ("write_wal",),
    ("write_data",),
    "journal record lands before the data it describes",
)


def _module_source(module: str) -> str:
    spec = importlib.util.find_spec(module)
    assert spec is not None and spec.origin is not None
    with open(spec.origin, "r", encoding="utf-8") as fh:
        return fh.read()


class TestSyntheticContracts:
    def test_correct_order_passes(self):
        assert (
            check_contracts(
                [SYNTH_CONTRACT], sources={"synth.journal": SYNTH}
            )
            == []
        )

    def test_swapped_order_is_ldp301(self):
        findings = check_contracts(
            [SYNTH_CONTRACT], sources={"synth.journal": SYNTH_SWAPPED}
        )
        assert [f.rule for f in findings] == ["LDP301"]
        (f,) = findings
        assert f.evidence["observed"] == "write_data"
        assert f.evidence["required_after"] == "write_wal"

    def test_deleted_operation_is_ldp302(self):
        gutted = SYNTH.replace("        self.write_wal()\n", "")
        findings = check_contracts(
            [SYNTH_CONTRACT], sources={"synth.journal": gutted}
        )
        assert [f.rule for f in findings] == ["LDP302"]
        assert findings[0].evidence["missing"] == "write_wal"

    def test_deleted_function_is_ldp302(self):
        findings = check_contracts(
            [SYNTH_CONTRACT], sources={"synth.journal": "class Journal:\n    pass\n"}
        )
        assert [f.rule for f in findings] == ["LDP302"]
        assert findings[0].evidence["missing"] == "Journal.commit"


class TestLiveTree:
    def test_head_satisfies_every_contract(self):
        assert check_contracts() == []

    def test_contracts_cover_the_wal_invariant(self):
        pairs = {
            (c.qualname, c.first, c.then) for c in DEFAULT_CONTRACTS
        }
        assert ("_Dropping.append", ("_promise",), ("write_data",)) in pairs
        assert (
            "invalidate_cross_process",
            ("bump",),
            ("bump_generation",),
        ) in pairs

    def test_swapped_wal_and_data_append_is_caught(self):
        source = _module_source("repro.plfs.writer")
        original = (
            "            self._promise(logical_offset, len(buf), pid)\n"
            "        written = store.write_data("
            "self.data_fd, buf, self.data_path)"
        )
        swapped = (
            "            pass\n"
            "        written = store.write_data("
            "self.data_fd, buf, self.data_path)\n"
            "        self._promise(logical_offset, len(buf), pid)"
        )
        assert original in source
        seeded = source.replace(original, swapped, 1)
        findings = check_contracts(sources={"repro.plfs.writer": seeded})
        assert [f.rule for f in findings] == ["LDP301"]
        (f,) = findings
        assert f.file == "repro.plfs.writer"
        assert f.evidence["observed"] == "write_data"

    def test_deleted_wal_promise_is_caught(self):
        source = _module_source("repro.plfs.writer")
        seeded = source.replace(
            "            self._promise(logical_offset, len(buf), pid)\n",
            "            pass\n",
            1,
        )
        assert seeded != source
        findings = check_contracts(sources={"repro.plfs.writer": seeded})
        assert [f.rule for f in findings] == ["LDP302"]
        assert findings[0].evidence["missing"] == "_promise"

    def test_findings_are_deterministically_sorted(self):
        first = check_contracts(
            [SYNTH_CONTRACT, SYNTH_CONTRACT],
            sources={"synth.journal": SYNTH_SWAPPED},
        )
        second = check_contracts(
            [SYNTH_CONTRACT, SYNTH_CONTRACT],
            sources={"synth.journal": SYNTH_SWAPPED},
        )
        assert [f.as_dict() for f in first] == [f.as_dict() for f in second]
