"""The ``repro-bench`` CLI: run emits schema-valid records, guard's exit
code is the contract (0 against a true baseline, nonzero against a
seeded counter drift or a lost scenario)."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.bench import cli, record


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "out")


def _run_storm(out_dir):
    assert (
        cli.main(
            [
                "run",
                "--scenario",
                "metadata_storm",
                "--profile",
                "short",
                "--out",
                out_dir,
            ]
        )
        == 0
    )
    return record.load(f"{out_dir}/BENCH_metadata_storm.json")


def test_run_emits_schema_valid_record(out_dir, capsys):
    rec = _run_storm(out_dir)
    assert record.validate(rec) == []
    assert rec["scenario"] == "metadata_storm"
    assert rec["profile"] == "short"
    assert "metadata_storm/direct" in capsys.readouterr().out


def test_run_skips_unsupported_config(out_dir, capsys):
    # collective_io has no daemon config: selection is empty -> exit 2
    assert (
        cli.main(
            [
                "run",
                "--scenario",
                "collective_io",
                "--config",
                "daemon",
                "--out",
                out_dir,
            ]
        )
        == 2
    )
    assert "unsupported" in capsys.readouterr().err


def test_guard_passes_against_true_baseline(out_dir, tmp_path, capsys):
    _run_storm(out_dir)
    baseline = str(tmp_path / "baseline")
    shutil.copytree(out_dir, baseline)
    assert cli.main(["guard", "--baseline", baseline, "--out", out_dir]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_guard_fails_on_synthetic_2x_regression(out_dir, tmp_path, capsys):
    _run_storm(out_dir)
    baseline = str(tmp_path / "baseline")
    shutil.copytree(out_dir, baseline)
    # halving one of the baseline's counters makes the (unchanged) current
    # record look like it appends twice as often
    path = f"{baseline}/BENCH_metadata_storm.json"
    rec = json.load(open(path))
    rec["counters"]["write_appends"] //= 2
    json.dump(rec, open(path, "w"))
    assert cli.main(["guard", "--baseline", baseline, "--out", out_dir]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counter write_appends" in out


def test_guard_fails_when_scenario_lost(out_dir, tmp_path):
    _run_storm(out_dir)
    baseline = str(tmp_path / "baseline")
    shutil.copytree(out_dir, baseline)
    shutil.rmtree(out_dir)
    assert cli.main(["guard", "--baseline", baseline, "--out", out_dir]) == 1


def test_list_shows_registry(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("metadata_storm", "hot_cold_mix", "multi_tenant", "crash_soak"):
        assert name in out
