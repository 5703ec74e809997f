"""BenchRecord schema validation and the canonical trajectory store."""

from __future__ import annotations

import json

import pytest

from repro.bench import record


def _minimal(**over):
    rec = record.make_record(
        scenario="metadata_storm",
        profile="short",
        config="direct",
        seed=1337,
        params={"clients": 4},
        counters={"ops_total": 48},
        op_stream={"digest": "abc", "ops": 48},
    )
    rec.update(over)
    return rec


def test_valid_record_passes():
    assert record.validate(_minimal()) == []


def test_missing_key_fails():
    rec = _minimal()
    del rec["counters"]
    assert any("counters" in p for p in record.validate(rec))


def test_wrong_kind_and_version_fail():
    assert record.validate(_minimal(kind="nope"))
    assert record.validate(_minimal(schema_version=99))


def test_non_numeric_counter_fails():
    rec = _minimal()
    rec["counters"]["bad"] = "twelve"
    assert any("bad" in p for p in record.validate(rec))
    rec["counters"]["bad"] = True  # bools are not counters
    assert any("bad" in p for p in record.validate(rec))


def test_assert_valid_raises_with_all_problems():
    rec = _minimal(kind="nope", schema_version=99)
    with pytest.raises(ValueError, match="nope"):
        record.assert_valid(rec)


def test_record_filename_config_suffix():
    assert record.record_filename("metadata_storm") == "BENCH_metadata_storm.json"
    assert (
        record.record_filename("hot_cold_mix", "daemon")
        == "BENCH_hot_cold_mix__daemon.json"
    )


def test_default_out_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path / "elsewhere"))
    assert record.default_out_dir() == str(tmp_path / "elsewhere")
    monkeypatch.delenv("REPRO_BENCH_OUT")
    assert record.default_out_dir("/x") == "/x/benchmarks/out"


def test_save_load_roundtrip(tmp_path):
    path = record.save(_minimal(), str(tmp_path))
    assert path.endswith("BENCH_metadata_storm.json")
    loaded = record.load(path)
    assert loaded == _minimal()
    assert record.load_all(str(tmp_path)) == {"BENCH_metadata_storm.json": loaded}


def test_save_rejects_invalid(tmp_path):
    with pytest.raises(ValueError):
        record.save(_minimal(kind="nope"), str(tmp_path))


def test_save_is_canonical_json(tmp_path):
    path = record.save(_minimal(), str(tmp_path))
    text = open(path).read()
    # keys sorted, trailing newline: byte-stable across dict orderings
    assert text.endswith("\n")
    assert json.loads(text) == _minimal()
    shuffled = _minimal()
    shuffled["counters"] = dict(reversed(list(shuffled["counters"].items())))
    assert open(record.save(shuffled, str(tmp_path))).read() == text


def test_load_all_ignores_foreign_files(tmp_path):
    (tmp_path / "notes.txt").write_text("hi")
    record.save(_minimal(), str(tmp_path))
    assert list(record.load_all(str(tmp_path))) == ["BENCH_metadata_storm.json"]
    assert record.load_all(str(tmp_path / "missing")) == {}
