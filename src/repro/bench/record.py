"""The versioned ``BenchRecord`` schema and its canonical on-disk form.

One scenario run under one config lands as one ``BENCH_*.json``, validated
against this schema.  A record holds what reproduces under a fixed seed
and nothing that was read off a clock:

``op_stream``
    The generator's summary of the replayed stream and its digest.
``counters``
    Op counts, bytes, cache hits, merge/flush counts.  Guards
    compare these *exactly* — a changed counter means the code path
    changed.
``derived.bytes``
    Object-store byte totals whose payloads embed the hostname and pid
    (the tiers move the container's access file): the host does not
    cancel out of those, so they are compared as a ratio rather than as
    exact ``counters``.  Present only on the objectstore config.

Validation is hand-rolled (no jsonschema in the image): it checks the
required keys, their types, and the split above, and returns a list of
problems so callers can report all of them at once.
"""

from __future__ import annotations

import json
import os
from numbers import Number

from repro.analysis.export import canonical_json

SCHEMA_VERSION = 1
RECORD_KIND = "bench-record"

#: every key a record may carry; all but ``derived`` are required
_KEYS: dict[str, type] = {
    "schema_version": int,
    "kind": str,
    "scenario": str,
    "profile": str,
    "config": str,
    "seed": int,
    "params": dict,
    "counters": dict,
    "op_stream": dict,
    "derived": dict,
}


def make_record(
    *,
    scenario: str,
    profile: str,
    config: str,
    seed: int,
    params: dict,
    counters: dict,
    op_stream: dict,
    host_sized_bytes: dict | None = None,
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
        "op_stream": op_stream,
    }
    if host_sized_bytes:
        record["derived"] = {"bytes": host_sized_bytes}
    return record


def validate(record) -> list[str]:
    """All schema problems with *record* (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record must be a dict, got {type(record).__name__}"]
    for key, typ in _KEYS.items():
        if key not in record:
            if key != "derived":
                problems.append(f"missing required key: {key}")
        elif not isinstance(record[key], typ):
            problems.append(
                f"{key} must be {typ.__name__}, got {type(record[key]).__name__}"
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
    host_sized = record.get("derived", {}).get("bytes", {})
    if not isinstance(host_sized, dict):
        return problems + ["derived.bytes must be a dict"]
    for key, value in host_sized.items():
        if not isinstance(value, Number) or isinstance(value, bool):
            problems.append(f"derived.bytes[{key!r}] must be a number")
    return problems


def assert_valid(record) -> dict:
    problems = validate(record)
    if problems:
        raise ValueError(
            "invalid BenchRecord: " + "; ".join(problems)
        )
    return record


# ---------------------------------------------------------------------- #
# the record files: canonical filenames + load/save
# ---------------------------------------------------------------------- #


def record_filename(scenario: str, config: str = "direct") -> str:
    """``BENCH_<scenario>.json`` for the default (direct) configuration;
    other configs get a ``__<config>`` suffix so one scenario's configs
    coexist in the canonical directory."""
    if config in ("direct", ""):
        return f"BENCH_{scenario}.json"
    return f"BENCH_{scenario}__{config}.json"


def default_out_dir(start: str | None = None) -> str:
    """The canonical record directory: ``$REPRO_BENCH_OUT`` when set,
    else ``benchmarks/out`` relative to *start* (default: cwd)."""
    env = os.environ.get("REPRO_BENCH_OUT", "").strip()
    if env:
        return env
    return os.path.join(start or os.getcwd(), "benchmarks", "out")


def save(record: dict, out_dir: str) -> str:
    """Validate and write *record* to its canonical file; returns the path."""
    assert_valid(record)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, record_filename(record["scenario"], record["config"]))
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
