"""The conformance guard: exact on the op-stream digest and the counters,
a small ratio on the hostname-sized byte totals, no timings at all."""

from __future__ import annotations

import pytest

from repro.bench import guard, record


def _rec(**over):
    base = record.make_record(
        scenario="metadata_storm",
        profile="short",
        config="direct",
        seed=1337,
        params={},
        counters={"ops_total": 48, "index_cache_hits": 7},
        op_stream={"digest": "abc"},
        host_sized_bytes={"object_put_bytes": 1000, "object_get_bytes": 0},
    )
    base.update(over)
    return base


def test_identical_records_pass():
    res = guard.compare_records(_rec(), _rec())
    assert res.ok
    assert res.checked_counters == 2
    assert res.checked_metrics == 2


def test_identity_mismatch_fails_fast():
    res = guard.compare_records(_rec(seed=7), _rec())
    assert not res.ok
    assert "seed" in res.violations[0]


def test_counter_drift_fails_exactly():
    cur = _rec()
    cur["counters"]["index_cache_hits"] = 8
    res = guard.compare_records(cur, _rec())
    assert [v for v in res.violations if "index_cache_hits" in v]


def test_digest_drift_fails():
    cur = _rec(op_stream={"digest": "xyz"})
    res = guard.compare_records(cur, _rec())
    assert [v for v in res.violations if "digest" in v]


def test_host_sized_bytes_compare_as_a_ratio():
    cur = _rec()
    cur["derived"]["bytes"]["object_put_bytes"] = 1009  # a longer hostname
    assert guard.compare_records(cur, _rec()).ok
    for far in (1100, 900):
        cur["derived"]["bytes"]["object_put_bytes"] = far
        res = guard.compare_records(cur, _rec())
        assert [v for v in res.violations if "object_put_bytes" in v]


def test_missing_derived_metric_fails():
    cur = _rec()
    del cur["derived"]["bytes"]["object_put_bytes"]
    res = guard.compare_records(cur, _rec())
    assert [v for v in res.violations if "missing" in v]


def test_guard_directory_flags_missing_and_empty(tmp_path):
    base_dir = tmp_path / "base"
    cur_dir = tmp_path / "cur"
    base_dir.mkdir()
    cur_dir.mkdir()
    # empty baseline directory is itself a violation
    res = guard.guard_directory(str(cur_dir), str(base_dir))
    assert len(res) == 1 and not res[0].ok

    record.save(_rec(), str(base_dir))
    res = guard.guard_directory(str(cur_dir), str(base_dir))
    assert not res[0].ok and "missing" in res[0].violations[0]

    record.save(_rec(), str(cur_dir))
    res = guard.guard_directory(str(cur_dir), str(base_dir))
    assert all(r.ok for r in res)


def test_guard_directory_scenario_filter(tmp_path):
    base_dir = tmp_path / "base"
    base_dir.mkdir()
    record.save(_rec(), str(base_dir))
    res = guard.guard_directory(
        str(tmp_path / "cur"), str(base_dir), scenarios=["other"]
    )
    assert res == []


def test_render_results_mentions_violations():
    cur = _rec()
    cur["counters"]["ops_total"] = 1
    text = guard.render_results([guard.compare_records(cur, _rec())])
    assert "FAIL" in text and "ops_total" in text


def test_sampling_helpers():
    def fn():
        pass

    assert len(guard.sample_times(fn, repeats=3)) == 3
    assert guard.median_time(fn, repeats=3) >= 0.0

    guard.assert_faster(1.0, 2.0, "x")
    with pytest.raises(AssertionError, match="did not beat"):
        guard.assert_faster(2.0, 1.0, "x")
    with pytest.raises(AssertionError, match="margin"):
        guard.assert_faster(1.0, 1.5, "x", margin=2.0)
    guard.assert_inflection(1.0, 3.0, 2.0, "sweep")
    with pytest.raises(AssertionError, match="inflection"):
        guard.assert_inflection(1.0, 1.5, 2.0, "sweep")
    assert guard.best_ratio([0.2, 0.9, 0.4]) == 0.9
    with pytest.raises(ValueError):
        guard.best_ratio([])
