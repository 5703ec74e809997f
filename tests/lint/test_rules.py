"""Golden-file tests for the AST script rules.

One fixture script per rule (plus one clean script): each must trigger
exactly its own rule with the registered severity, and the canonical JSON
report must be byte-identical across runs — the determinism contract the
archived artefacts rely on.  Every bypass rule must also earn its place:
a boundary test in ``test_boundary.py`` shows its divergence.
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.lint import findings_to_json, lint_source
from repro.lint.findings import RULES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: fixture -> exact [(rule, severity)] outcome, sorted by rule id
EXPECTED: dict[str, list[tuple[str, str]]] = {
    "clean.py": [],
    "mmap_on_mount.py": [("LDP101", "HIGH")],
    "zero_copy.py": [("LDP102", "WARN")],
    "subprocess_on_mount.py": [("LDP103", "HIGH")],
    "fd_arithmetic.py": [("LDP104", "WARN")],
    "import_binding.py": [("LDP105", "HIGH")],
    "fdopen_alias.py": [("LDP106", "WARN")],
    "small_write_loop.py": [("LDP107", "RECOMMEND")],
    "fd_leak.py": [("LDP109", "WARN")],
}

#: script rules that claim no flat-vs-mount divergence: LDP107 is advice
#: Fig. 4 measures, LDP111 is the parser's own
NO_DIVERGENCE_CLAIMED = {"LDP107", "LDP111"}


def _fixture_source(name: str) -> str:
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def _lint_fixture(name: str):
    # a stable filename keeps reports independent of the checkout path
    return lint_source(_fixture_source(name), filename=name)


class TestFixtureOutcomes:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_rule_ids_and_severities(self, name):
        findings = _lint_fixture(name)
        got = sorted((f.rule, f.severity.name) for f in findings)
        assert got == sorted(EXPECTED[name])

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_recommendation_matches_registry(self, name):
        for f in _lint_fixture(name):
            assert f.recommendation  # never empty
            assert f.name == RULES[f.rule].name

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_json_byte_identical_across_runs(self, name):
        first = findings_to_json(_lint_fixture(name), target=name)
        second = findings_to_json(_lint_fixture(name), target=name)
        assert first == second
        assert first.encode() == second.encode()


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name", ["clean.py", "small_write_loop.py", "subprocess_on_mount.py"]
    )
    def test_report_matches_golden(self, name):
        got = findings_to_json(_lint_fixture(name), target=name)
        golden = os.path.join(GOLDEN, name.replace(".py", ".json"))
        with open(golden, "r", encoding="utf-8") as fh:
            assert got == fh.read()


class TestRuleMechanics:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", filename="broken.py")
        assert [f.rule for f in findings] == ["LDP111"]
        assert findings[0].severity.name == "HIGH"

    def test_mount_override_changes_verdict(self):
        src = 'import subprocess\nsubprocess.run(["rm", "/scratch/plfs/x"])\n'
        assert not [
            f for f in lint_source(src, "s.py") if f.rule == "LDP103"
        ]
        flagged = lint_source(src, "s.py", mounts=("/scratch/plfs",))
        assert [f.rule for f in flagged] == ["LDP103"]
        assert flagged[0].evidence["path"] == "/scratch/plfs/x"

    def test_declared_mounts_discovered_from_script(self):
        src = (
            "from repro.core.interpose import interposed\n"
            "import subprocess\n"
            'with interposed([("/gpfs/logical", "/gpfs/backend")]):\n'
            '    subprocess.run(["cat", "/gpfs/logical/out"])\n'
        )
        findings = lint_source(src, "declared.py")
        assert any(f.rule == "LDP103" for f in findings)

    def test_small_write_via_name_binding(self):
        src = (
            "import os\n"
            "chunk = b'a' * 4096\n"
            "fd = os.open('/tmp/x', os.O_WRONLY)\n"
            "while True:\n"
            "    os.write(fd, chunk)\n"
        )
        findings = lint_source(src, "w.py")
        small = [f for f in findings if f.rule == "LDP107"]
        assert len(small) == 1
        assert small[0].evidence["write_size"] == 4096

    def test_large_write_loop_not_flagged(self):
        src = (
            "import os\n"
            "chunk = b'a' * (8 * 1024 * 1024)\n"
            "fd = os.open('/tmp/x', os.O_WRONLY)\n"
            "for _ in range(4):\n"
            "    os.write(fd, chunk)\n"
            "os.close(fd)\n"
        )
        assert not [
            f for f in lint_source(src, "w.py") if f.rule == "LDP107"
        ]

    def test_writev_sizes_summed(self):
        src = (
            "import os\n"
            "fd = os.open('/tmp/x', os.O_WRONLY)\n"
            "for _ in range(10):\n"
            "    os.writev(fd, [b'ab', b'cd'])\n"
            "os.close(fd)\n"
        )
        small = [
            f for f in lint_source(src, "v.py") if f.rule == "LDP107"
        ]
        assert small and small[0].evidence["write_size"] == 4

    def test_with_open_never_leaks(self):
        src = "with open('/tmp/x') as fh:\n    fh.read()\n"
        assert not [
            f for f in lint_source(src, "ok.py") if f.rule == "LDP109"
        ]

    def test_inline_open_chain_leaks(self):
        src = "data = open('/tmp/x').read()\n"
        findings = [
            f for f in lint_source(src, "leak.py") if f.rule == "LDP109"
        ]
        assert len(findings) == 1

    def test_fdopen_is_not_an_alias(self):
        # os.fdopen calls the rebound io.open: a PLFS descriptor gets a PLFS
        # file object, so only the C-level constructor is flagged
        src = "import os\nfh = os.fdopen(3, 'wb')\nfh.close()\n"
        assert not lint_source(src, "ok.py")

    def test_bt_example_flagged_statically(self):
        # acceptance criterion: the BT small-write anti-pattern in
        # examples/ is detected without executing anything
        from repro.lint import lint_path

        example = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples",
            "bt_style_app.py",
        )
        findings = lint_path(os.path.normpath(example))
        small = [f for f in findings if f.rule == "LDP107"]
        assert small and small[0].evidence["write_size"] == 1640

    def test_findings_sorted_most_severe_first(self):
        name = "small_write_loop.py"
        src = _fixture_source(name) + (
            "\nimport mmap\n"
            "def extra():\n"
            "    with open('/mnt/plfs/m', 'r+b') as fh:\n"
            "        mmap.mmap(fh.fileno(), 0)\n"
        )
        findings = lint_source(src, name)
        severities = [int(f.severity) for f in findings]
        assert severities == sorted(severities, reverse=True)


class TestCensus:
    def test_every_bypass_rule_has_a_boundary_test(self):
        path = os.path.join(os.path.dirname(__file__), "test_boundary.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        tested = {
            node.name.split("_")[1].upper()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_ldp")
        }
        script_rules = {r for r in RULES if r.startswith("LDP1")}
        assert tested == script_rules - NO_DIVERGENCE_CLAIMED
