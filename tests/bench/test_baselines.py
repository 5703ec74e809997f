"""The conformance suite itself: every committed baseline, replayed.

Each ``benchmarks/baseline/BENCH_*.json`` names a scenario, config, seed
and profile; replaying it must reproduce the file's op-stream digest and
every counter exactly.  A change that moves one (an extra index flush, a
lost cache hit) fails here naming the counter, on every ``pytest`` run.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import guard, record, runner

BASELINES = record.load_all(
    os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "baseline")
)


def test_all_five_baselines_are_committed():
    assert sorted(BASELINES) == [
        "BENCH_collective_io.json",
        "BENCH_crash_soak.json",
        "BENCH_hot_cold_mix.json",
        "BENCH_metadata_storm.json",
        "BENCH_multi_tenant.json",
    ]


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_replay_reproduces_the_committed_record(name, tmp_path):
    baseline = BASELINES[name]
    current = runner.run_scenario(
        baseline["scenario"],
        profile=baseline["profile"],
        config=baseline["config"],
        seed=baseline["seed"],
    )
    # through the canonical file form, which is where ratios get rounded
    current = record.load(record.save(current, str(tmp_path)))
    result = guard.compare_records(current, baseline, name=name)
    assert result.ok, guard.render_results([result])
    assert result.checked_counters == len(baseline["counters"]) > 0
    assert current["op_stream"] == baseline["op_stream"]
    assert current["params"] == baseline["params"]
