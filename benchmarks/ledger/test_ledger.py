"""Checks of the ledger itself.  Not part of tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import builtins
import io
import json
import os
import statistics
import time
import types

import pytest

from benchmarks.ledger import compare, spec, streams
from benchmarks.ledger.runner import WorkloadRun

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "out")


# ---------------------------------------------------------------------- #
# streams
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_same_seed_same_stream_other_seed_same_counts(name):
    sizes = streams.TINY[name]
    a, again, b = (streams.generate(name, seed, sizes) for seed in (7, 7, 8))
    assert a.digest() == again.digest()
    assert a.digest() != b.digest()
    for field in ("calls", "bytes_written", "bytes_read", "creates", "stored", "slots"):
        assert getattr(a, field) == getattr(b, field), field
    assert [op[0] for op in a.ops] == [op[0] for op in b.ops]


def test_full_size_call_counts():
    assert streams.generate("n1_checkpoint", 1).calls == 16 + 32_768 + 16
    assert streams.generate("metadata_storm", 1).calls == 8_504
    assert streams.generate("rw_interleave", 1).calls == 4 + 256 * 66


# ---------------------------------------------------------------------- #
# replay agreement and clean-up
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_tiny_flat_and_shim_replays_agree(name, out_dir):
    before = set(os.listdir("/proc/self/fd"))
    run = WorkloadRun(name, 3, sizes=streams.TINY[name], out_dir=out_dir)
    result = run.run(timed=True, reps=1)
    assert result["failed"] == 0, result["notes"]
    assert result["attempted"] == 2 * result["calls"]  # warm-up + one repetition
    assert result["end_to_end"]["fail_share"] == 0
    assert not os.path.exists(run.root)
    assert set(os.listdir("/proc/self/fd")) == before


def test_a_wrong_byte_is_counted(out_dir, monkeypatch):
    """The check can fail: a shim that flips one byte of one read is caught."""
    from repro.core.shim import Shim

    real, calls = Shim.pread, []

    def corrupting(self, fd, n, offset):
        data = real(self, fd, n, offset)
        calls.append(1)
        return bytes([data[0] ^ 1]) + data[1:] if len(calls) == 5 and data else data

    monkeypatch.setattr(Shim, "pread", corrupting)
    result = WorkloadRun("rw_interleave", 3, sizes=streams.TINY["rw_interleave"],
                         out_dir=out_dir).run(timed=True, reps=1)
    assert result["failed"] == 1
    assert result["end_to_end"]["fail_share"] > 0


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #


def _wrapped_surface() -> dict:
    """Every attribute the tracer replaces, keyed by where it lives."""
    from repro import unixtools
    from repro.core.fdtable import FdTable
    from repro.core.interpose import _OS_PATCHES
    from repro.core.mounts import MountTable
    from repro.core.shim import Shim
    from repro.plfs import api, backing, cache, container, index, reader, writer

    surface = {("os", n): getattr(os, n) for n in _OS_PATCHES if hasattr(os, n)}
    surface[("builtins", "open")] = builtins.open
    surface[("io", "open")] = io.open
    for module in (api, cache, container, index, reader, unixtools):
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                surface[(module.__name__, name)] = value
    for cls in (Shim, MountTable, FdTable, container.Container, writer.WriteFile,
                reader.ReadFile, index.GlobalIndex, cache.IndexCache, backing.BackingStore):
        for name, value in vars(cls).items():
            if isinstance(value, types.FunctionType):
                surface[(cls.__name__, name)] = value
    return surface


def test_traced_repetition_restores_everything_and_accounts_for_the_wall(out_dir):
    import repro.plfs.api  # noqa: F401  (so the surface exists before the run)

    before = _wrapped_surface()
    result = WorkloadRun("metadata_storm", 3, sizes=streams.TINY["metadata_storm"],
                         out_dir=out_dir).run(timed=True, trace=True, reps=1)
    after = _wrapped_surface()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []

    ledger = result["per_layer"]
    assert set(ledger) == {m.name for m in spec.PER_LAYER}
    total = sum(ledger[f"{layer}.self_s"] for layer in spec.LAYERS) + ledger["app.self_s"]
    assert total == pytest.approx(result["traced_wall_s"], rel=0.02)
    assert ledger["core.shim.reentrant_calls"] > 1  # the re-entrancy tax is visible
    assert ledger["unixtools.calls"] == 0  # a layer the stream never enters

    trace = os.path.join(out_dir, "trace_metadata_storm.jsonl")
    with open(trace) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans[0]["parent"] == -1 and spans[0]["layer"] == "app"
    assert all(s["start_ns"] <= s["end_ns"] for s in spans)
    assert all(s["parent"] < s["id"] for s in spans)


def test_injected_slowdown_is_attributed_to_its_layer_and_flagged(out_dir, monkeypatch):
    """ROADMAP item 1: a seeded slowdown in one layer is caught and named —
    here from outside, by wrapping ``BackingStore.write_data``.  Named: the
    ledger puts the added time on ``plfs.backing`` and nowhere else.
    Caught: ``compare`` calls ``wall_s`` worse.  The slowdown is 35% of the
    wall, not 20%, because the sandbox's noise floor puts the timing bound
    at 25% (see spec.END_TO_END)."""
    from repro.plfs.backing import BackingStore

    sizes = dict(ranks=16, rounds=512)
    writes = 16 * 512

    def measure() -> dict:
        return WorkloadRun("n1_checkpoint", 5, sizes=sizes, out_dir=out_dir).run(
            timed=True, trace=True, reps=5)

    def layer_self(runs: list) -> dict:
        """Per-layer self time, the median of the runs' single traced
        repetitions (one repetition's index time alone moves by 10%)."""
        names = [f"{layer}.self_s" for layer in spec.LAYERS] + ["app.self_s"]
        return {n: statistics.median(r["per_layer"][n] for r in runs) for n in names}

    bases = [measure() for _ in range(3)]
    base = bases[0]
    wall = statistics.median(r["end_to_end"]["wall_s"] for r in bases)
    delay = 0.35 * wall / writes
    injected = [0.0]
    real = BackingStore.write_data

    def slow_write_data(self, fd, buf, path):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < delay:
            pass
        injected[0] += time.perf_counter() - t0
        return real(self, fd, buf, path)

    monkeypatch.setattr(BackingStore, "write_data", slow_write_data)
    slows = [measure() for _ in range(3)]
    slowed = slows[-1]
    per_replay = injected[0] / sum(r["attempted"] / r["calls"] for r in slows)

    a, b = layer_self(bases), layer_self(slows)
    rise = {name: b[name] - a[name] for name in a}
    assert rise["plfs.backing.self_s"] == pytest.approx(per_replay, rel=0.20)
    others = {k: v for k, v in rise.items() if k != "plfs.backing.self_s"}
    assert max(others.values()) < 0.05 * wall, others

    rows, any_worse = compare.compare(
        {"workloads": {"n1_checkpoint": base}}, {"workloads": {"n1_checkpoint": slowed}})
    verdicts = {metric: v for _w, metric, _u, _a, _b, v in rows}
    assert any_worse and verdicts["wall_s"] == "worse"
    assert verdicts["fail_share"] == "same"


# ---------------------------------------------------------------------- #
# compare and the contract file
# ---------------------------------------------------------------------- #


def _doc(**overrides) -> dict:
    e2e = {"wall_s": 1.0, "calls_per_s": 100.0, "mib_per_s": 10.0, "overhead_x": 5.0,
           "fail_share": 0.0, "space_amp": 1.02, "peak_rss_mib": 50.0, "setup_s": 0.3}
    e2e.update(overrides)
    return {"workloads": {"w": {"end_to_end": e2e}}}


def test_compare_applies_bounds_in_the_metric_direction(tmp_path, capsys):
    def verdicts(**overrides):
        rows, worse = compare.compare(_doc(), _doc(**overrides))
        return {m: v for _w, m, _u, _a, _b, v in rows}, worse

    assert verdicts() == ({m.name: "same" for m in spec.END_TO_END}, False)
    assert verdicts(wall_s=1.2)[0]["wall_s"] == "same"
    assert verdicts(wall_s=1.3)[0]["wall_s"] == "worse"
    assert verdicts(wall_s=0.7)[0]["wall_s"] == "better"
    assert verdicts(calls_per_s=70.0)[0]["calls_per_s"] == "worse"
    assert verdicts(calls_per_s=130.0) == ({**verdicts()[0], "calls_per_s": "better"}, False)
    assert verdicts(space_amp=1.03)[0]["space_amp"] == "worse"
    assert verdicts(fail_share=0.001)[0]["fail_share"] == "worse"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc()))
    b.write_text(json.dumps(_doc(wall_s=1.3)))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out


def test_benchmark_json_states_what_spec_states():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    assert contract["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in contract["workloads"]} == spec.WORKLOADS
    # fail_share is 0 on a healthy tree; the driver carries it as ``failed``
    ours = [m for m in spec.END_TO_END if m.name != "fail_share"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in ours]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER]
