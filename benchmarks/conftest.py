"""Shared helpers for the benchmark suite.

Every module regenerates one table or figure of the paper.  Rendered
output is printed (visible with ``pytest -s``) and archived under
``benchmarks/out/`` so EXPERIMENTS.md can reference concrete runs.

Scale note: simulated experiments run at the paper's full node/core
counts.  Data volumes for the *real-I/O* Table II benchmark and the per-
process volume of the Fig. 3 sweep are scaled down by default so the
suite completes in minutes; set ``LDPLFS_BENCH_FULL=1`` to use the
paper's sizes.
"""

from __future__ import annotations

import os

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

FULL_SCALE = os.environ.get("LDPLFS_BENCH_FULL", "").strip() in {"1", "true", "yes"}


def save_report(name: str, text: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    return path


@pytest.fixture
def report():
    return save_report


#: ``benchmarks/ledger`` is frozen for a change that claims a gain on the
#: ledger, and this one test still pins the attribution the ledger was born
#: with — ``core.shim.reentrant_calls > 1`` — which the one route to the OS
#: (repro.plfs.route) takes to 0.  It runs and is expected to fail on that
#: line; strict, so the benchmark-only change that flips the assertion must
#: delete this marker.  tests/bench/test_ledger_route.py pins the new value.
_PINS_PRE_ROUTE_ATTRIBUTION = (
    "ledger/test_ledger.py::test_traced_repetition_restores_everything_and_accounts_for_the_wall"
)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.endswith(_PINS_PRE_ROUTE_ATTRIBUTION):
            item.add_marker(pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="pins core.shim.reentrant_calls > 1; it is 0 since the one route"))
