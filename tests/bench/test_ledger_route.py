"""The ledger's own view of the one route to the OS (tier-1 twin of the
CI ``metadata_storm`` smoke): on a traced create storm no PLFS-internal
call re-enters the shim, every path is looked up once, and the syscall
layer — wrapped *before* the interposer was built — still sees every real
call the library makes.
"""

from __future__ import annotations

import builtins
import os

import pytest

from benchmarks.ledger import spec, streams
from benchmarks.ledger.runner import WorkloadRun
from repro.plfs.route import posix


def test_traced_storm_has_no_reentrant_shim_calls(tmp_path):
    before = (os.stat, os.open, builtins.open)
    result = WorkloadRun(
        "metadata_storm", 3, sizes=streams.TINY["metadata_storm"], out_dir=str(tmp_path / "out")
    ).run(timed=True, trace=True, reps=1)
    assert (os.stat, os.open, builtins.open) == before and vars(posix) == {}
    assert result["failed"] == 0 and result["end_to_end"]["fail_share"] == 0

    ledger = result["per_layer"]
    total = sum(ledger[f"{layer}.self_s"] for layer in spec.LAYERS) + ledger["app.self_s"]
    assert total == pytest.approx(result["traced_wall_s"], rel=0.02)

    # One dispatch per application call, nothing passed through, at most
    # one mount lookup per path argument (rename has two) ...
    assert ledger["core.shim.reentrant_calls"] == 0
    assert ledger["core.shim.passthrough_calls"] == 0
    assert ledger["core.shim.calls"] == pytest.approx(1.0, abs=0.01)
    assert ledger["core.mounts.calls"] <= 1.0
    # ... while the syscall layer still sees every real call PLFS makes:
    # the route is bound to the very functions the tracer wrapped.
    assert 5 <= ledger["syscall.calls"] <= 10
    assert ledger["syscall.stat_calls"] <= 2.5
