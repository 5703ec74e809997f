"""The observed-run half of the one checker: ``repro-lint --workload …``."""

from __future__ import annotations

import json
import os

import pytest

from repro.lint.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "lint", "fixtures")


class TestCli:
    def test_default_flashio_text_report(self, capsys):
        # a RECOMMEND finding passes the default --fail-on warn
        assert main(["--workload", "flashio", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "I/O insights — flashio Sierra LDPLFS" in out
        assert "[RECOMMEND] LDP406 uncollective-strided-writes" in out

    def test_json_output(self, capsys):
        main(["--workload", "mpiio-test", "--machine", "minerva",
              "--method", "MPI-IO", "--nodes", "2", "--ppn", "1", "--json"])
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["profile"]["workload"] == "mpiio-test"
        assert "static" not in parsed
        assert isinstance(parsed["findings"], list)

    def test_bt_with_cores(self, capsys):
        main(["--workload", "bt", "--machine", "sierra",
              "--method", "MPI-IO", "--cores", "16"])
        out = capsys.readouterr().out
        assert "bt.C" in out

    def test_advise_appends_model_recommendation(self, capsys):
        # BT's small writes on a shared file are HIGH: the shared --fail-on
        # grades a run like a script
        args = ["--workload", "bt", "--machine", "sierra", "--method", "MPI-IO",
                "--cores", "256", "--advise"]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "model advice: use" in out
        assert "Observed evidence [HIGH] LDP403 small-writes-shared-file" in out
        assert main(args + ["--fail-on", "never"]) == 0

    def test_bad_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "nope"])

    def test_invalid_scale_is_a_clean_error(self, capsys):
        # No traceback: workload validation surfaces as a CLI error.
        assert main(["--workload", "bt", "--cores", "10"]) == 2
        assert "square process count" in capsys.readouterr().err
        assert main(["--workload", "flashio", "--nodes", "0"]) == 2
        assert "at least one node" in capsys.readouterr().err

    def test_entry_point_registered(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            text = fh.read()
        assert 'repro-lint = "repro.lint.cli:main"' in text
        assert "repro-insights" not in text


class TestScriptsJoinTheRun:
    def test_one_report_carries_observed_and_script_findings(self, capsys):
        script = os.path.join(FIXTURES, "small_write_loop.py")
        main(["--workload", "bt", "--method", "MPI-IO", "--cores", "256",
              "--json", script])
        parsed = json.loads(capsys.readouterr().out)
        rules = [f["rule"] for f in parsed["findings"]]
        assert "LDP107" in rules and any(r.startswith("LDP4") for r in rules)
        script_rows = [f for f in parsed["findings"] if f["file"]]
        assert [f["rule"] for f in script_rows] == ["LDP107"]

    def test_advice_cites_the_script(self, capsys):
        script = os.path.join(FIXTURES, "small_write_loop.py")
        main(["--workload", "bt", "--method", "MPI-IO", "--cores", "16",
              "--advise", script])
        assert "Static evidence [RECOMMEND] LDP107" in capsys.readouterr().out
