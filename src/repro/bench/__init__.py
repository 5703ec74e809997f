"""``repro.bench`` — production workload suite, kept as a conformance
suite: seeded op streams replayed under four configs, held to committed
digests and exact counters.  It times nothing; ``benchmarks/ledger`` does.

Layers:

- :mod:`~repro.bench.scenarios` — deterministic workload generators
  (metadata storm, hot/cold Zipf mix, multi-tenant interference,
  crash-recovery soak);
- :mod:`~repro.bench.runner` — executes a scenario against the direct,
  daemon or objectstore configuration and assembles a
  versioned BenchRecord;
- :mod:`~repro.bench.record` — the schema + canonical record files
  (``BENCH_*.json``);
- :mod:`~repro.bench.guard` — record-vs-baseline comparison, plus the A/B
  timing helpers of the ``benchmarks/`` smokes;
- :mod:`~repro.bench.cli` — the ``repro-bench`` entry point.
"""

from .guard import (
    GuardResult,
    assert_faster,
    assert_inflection,
    best_ratio,
    compare_records,
    guard_directory,
    median_time,
)
from .record import SCHEMA_VERSION, make_record, record_filename, validate
from .runner import CONFIGS, execute_stream, run_scenario
from .scenarios import DEFAULT_SEED, SCENARIOS, Op, op_stream_digest, payload

__all__ = [
    "SCENARIOS",
    "CONFIGS",
    "DEFAULT_SEED",
    "SCHEMA_VERSION",
    "Op",
    "payload",
    "op_stream_digest",
    "make_record",
    "validate",
    "record_filename",
    "run_scenario",
    "execute_stream",
    "GuardResult",
    "compare_records",
    "guard_directory",
    "median_time",
    "best_ratio",
    "assert_faster",
    "assert_inflection",
]
