"""The versioned ``BenchRecord`` schema and its canonical on-disk form.

Every benchmark run — scenario runs from :mod:`repro.bench.runner`, the
daemon stress benchmark, the CAWL sim — lands as one ``BENCH_*.json``
in the canonical output directory (``benchmarks/out``), validated against
this schema.  Records split cleanly into:

``counters``
    Deterministic under a fixed seed: op counts, bytes, cache hits,
    merge/flush/WAL-batch counts.  Guards compare these *exactly* —
    a changed counter means the code path changed, not the hardware.
``timings``
    Wall-clock measurements, never guarded directly.
``derived``
    Dimensionless ``normalized`` metrics (timings over the record's own
    calibration probe) and within-run ``ratios`` (e.g. queue-wait
    inflection).  Hardware largely cancels out of both, so guards
    compare them across runs as *ratios with a tolerance* instead of
    absolute times — the property that keeps CI from flaking.  ``bytes``
    holds byte totals whose payloads embed the hostname and pid (the
    object-store tiers move the container's access file): the host
    does not cancel out of those exactly, so they are tolerance-compared
    here rather than exact ``counters``.

Validation is hand-rolled (no jsonschema in the image): it checks the
required keys, their types, and the split above, and returns a list of
problems so callers can report all of them at once.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from numbers import Number

from repro.analysis.export import canonical_json

SCHEMA_VERSION = 1
RECORD_KIND = "bench-record"

#: default relative regression tolerance for normalized timings / ratios
#: when neither the CLI nor the baseline record pins one (1.75 means a
#: guarded metric may grow up to 75% over baseline before failing).
DEFAULT_MAX_TIMING_REGRESSION = 1.75

_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "kind": str,
    "scenario": str,
    "profile": str,
    "config": str,
    "seed": int,
    "params": dict,
    "counters": dict,
    "timings": dict,
    "derived": dict,
    "environment": dict,
}

#: the ``derived`` sub-sections guards compare as current/baseline ratios
DERIVED_SECTIONS = ("normalized", "ratios", "bytes")

_OPTIONAL: dict[str, type | tuple[type, ...]] = {
    "op_stream": dict,
    "guard": dict,
}


def environment_fingerprint() -> dict:
    """Where a record was produced (no wall-clock: records must be
    reproducible byte-for-byte aside from measured timings)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
    }


def make_record(
    *,
    scenario: str,
    profile: str,
    config: str,
    seed: int,
    params: dict,
    counters: dict,
    timings: dict,
    derived: dict,
    op_stream: dict | None = None,
    guard: dict | None = None,
) -> dict:
    """Assemble a schema-`validate`-clean record dict."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": RECORD_KIND,
        "scenario": scenario,
        "profile": profile,
        "config": config,
        "seed": seed,
        "params": params,
        "counters": counters,
        "timings": timings,
        "derived": derived,
        "environment": environment_fingerprint(),
    }
    if op_stream is not None:
        record["op_stream"] = op_stream
    if guard is not None:
        record["guard"] = guard
    return record


def validate(record) -> list[str]:
    """All schema problems with *record* (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record must be a dict, got {type(record).__name__}"]
    for key, typ in _REQUIRED.items():
        if key not in record:
            problems.append(f"missing required key: {key}")
        elif not isinstance(record[key], typ):
            problems.append(
                f"{key} must be {getattr(typ, '__name__', typ)}, "
                f"got {type(record[key]).__name__}"
            )
    for key, typ in _OPTIONAL.items():
        if key in record and not isinstance(record[key], typ):
            problems.append(
                f"{key} must be {getattr(typ, '__name__', typ)}, "
                f"got {type(record[key]).__name__}"
            )
    if problems:
        return problems
    if record["kind"] != RECORD_KIND:
        problems.append(f"kind must be {RECORD_KIND!r}, got {record['kind']!r}")
    if record["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {record['schema_version']} != {SCHEMA_VERSION}"
        )
    for key, value in record["counters"].items():
        if not isinstance(value, Number) or isinstance(value, bool):
            problems.append(f"counters[{key!r}] must be a number")
    for section in DERIVED_SECTIONS:
        sub = record["derived"].get(section, {})
        if not isinstance(sub, dict):
            problems.append(f"derived.{section} must be a dict")
            continue
        for key, value in sub.items():
            if not isinstance(value, Number) or isinstance(value, bool):
                problems.append(f"derived.{section}[{key!r}] must be a number")
    return problems


def assert_valid(record) -> dict:
    problems = validate(record)
    if problems:
        raise ValueError(
            "invalid BenchRecord: " + "; ".join(problems)
        )
    return record


# ---------------------------------------------------------------------- #
# the trajectory store: canonical filenames + load/save
# ---------------------------------------------------------------------- #


def record_filename(scenario: str, config: str = "direct") -> str:
    """``BENCH_<scenario>.json`` for the default (direct) configuration;
    other configs get a ``__<config>`` suffix so one scenario's configs
    coexist in the canonical directory."""
    if config in ("direct", ""):
        return f"BENCH_{scenario}.json"
    return f"BENCH_{scenario}__{config}.json"


def default_out_dir(start: str | None = None) -> str:
    """The canonical trajectory directory: ``$REPRO_BENCH_OUT`` when set,
    else ``benchmarks/out`` relative to *start* (default: cwd)."""
    env = os.environ.get("REPRO_BENCH_OUT", "").strip()
    if env:
        return env
    return os.path.join(start or os.getcwd(), "benchmarks", "out")


def save(record: dict, out_dir: str, filename: str | None = None) -> str:
    """Validate and write *record* to its canonical file; returns the path.

    *filename* overrides the derived name for records that predate the
    scenario/config naming (e.g. ``BENCH_plfsd.json``)."""
    assert_valid(record)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, filename or record_filename(record["scenario"], record["config"])
    )
    with open(path, "w") as fh:
        fh.write(canonical_json(record) + "\n")
    return path


def load(path: str) -> dict:
    with open(path) as fh:
        record = json.load(fh)
    return assert_valid(record)


def load_all(directory: str) -> dict[str, dict]:
    """Every ``BENCH_*.json`` in *directory*, keyed by filename."""
    out: dict[str, dict] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    for name in names:
        if name.startswith("BENCH_") and name.endswith(".json"):
            out[name] = load(os.path.join(directory, name))
    return out
