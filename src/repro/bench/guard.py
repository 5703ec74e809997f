"""Record-vs-baseline conformance guards, and the A/B timing helpers of
the ``benchmarks/`` smokes.

Two consumers:

- ``repro-bench guard`` and ``tests/bench/test_baselines.py`` use
  :func:`compare_records` / :func:`guard_directory` to hold fresh records to
  the committed ``BENCH_*.json``: the op-stream digest and every counter
  are deterministic under a fixed seed, so any drift is a behaviour change
  and fails exactly.
- the four real-I/O smokes under ``benchmarks/`` use the sampling and
  assertion helpers (:func:`median_time`, :func:`assert_faster`,
  :func:`assert_inflection`, :func:`best_ratio`): both sides of each
  assertion are measured in one process moments apart.  Nothing measured
  here is compared across runs; that is the ledger's job.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

from . import record as record_mod


# ---------------------------------------------------------------------- #
# sampling + assertion helpers (shared by benchmarks/)
# ---------------------------------------------------------------------- #


def sample_times(fn, repeats: int = 5) -> list[float]:
    """Wall-clock samples of ``fn()`` (perf_counter)."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def median_time(fn, repeats: int = 5) -> float:
    """Median-of-N timing: the default estimator for comparing two code
    paths run back to back on the same machine."""
    return statistics.median(sample_times(fn, repeats))


def assert_faster(fast: float, slow: float, label: str = "", margin: float = 1.0) -> None:
    """Guard that *fast* beat *slow* (optionally by ``margin``x).

    The canonical ratio-based guard: both sides were measured in the same
    process moments apart, so the comparison is hardware-independent.
    """
    if not fast * margin < slow:
        raise AssertionError(
            f"{label or 'fast path'}: {fast * 1e3:.2f} ms did not beat "
            f"{slow * 1e3:.2f} ms"
            + (f" by the required {margin:g}x margin" if margin != 1.0 else "")
        )


def assert_inflection(lo: float, hi: float, factor: float, label: str = "") -> None:
    """Guard that a metric inflected upward by at least *factor* between
    the low and high end of a sweep (e.g. queue wait per create as
    clients are added — the §V.C meltdown signal)."""
    if not hi > lo * factor:
        raise AssertionError(
            f"{label or 'sweep'}: no {factor:g}x inflection "
            f"({lo:.3g} -> {hi:.3g})"
        )


def best_ratio(ratios: list[float]) -> float:
    """Best of paired-run ratios: one stolen-CPU burst landing on one
    side of one pair says nothing about the code, so paired benchmarks
    assert on the cleanest pair."""
    if not ratios:
        raise ValueError("no ratios sampled")
    return max(ratios)


# ---------------------------------------------------------------------- #
# record-vs-baseline comparison
# ---------------------------------------------------------------------- #


@dataclass
class GuardResult:
    """Outcome of one record-vs-baseline comparison."""

    name: str
    violations: list[str] = field(default_factory=list)
    checked_counters: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def compare_records(current: dict, baseline: dict, *, name: str = "") -> GuardResult:
    """Diff *current* against *baseline* under the guard rules."""
    result = GuardResult(name=name or baseline.get("scenario", "?"))

    for key in ("scenario", "profile", "config", "seed", "schema_version"):
        if current.get(key) != baseline.get(key):
            result.violations.append(
                f"{key} mismatch: current {current.get(key)!r} "
                f"!= baseline {baseline.get(key)!r}"
            )
    if result.violations:
        return result

    if current["op_stream"].get("digest") != baseline["op_stream"].get("digest"):
        result.violations.append(
            "op-stream digest changed: the generator no longer reproduces "
            "the baseline workload under this seed"
        )

    for key, base_val in sorted(baseline["counters"].items()):
        result.checked_counters += 1
        cur_val = current["counters"].get(key)
        if cur_val != base_val:
            result.violations.append(
                f"counter {key}: {base_val!r} -> {cur_val!r} "
                "(counters are deterministic; exact match required)"
            )
    return result


def guard_directory(
    current_dir: str,
    baseline_dir: str,
    *,
    scenarios: list[str] | None = None,
    configs: list[str] | None = None,
) -> list[GuardResult]:
    """Compare every baseline ``BENCH_*.json`` against its counterpart in
    *current_dir*.  A baseline with no (or an unreadable) counterpart is
    a violation: the suite must never silently lose a scenario.
    *scenarios* / *configs* restrict which baselines are compared (a CI
    job that only regenerated one config guards only that config)."""
    results: list[GuardResult] = []
    baselines = record_mod.load_all(baseline_dir)
    if not baselines:
        res = GuardResult(name=baseline_dir)
        res.violations.append(f"no BENCH_*.json baselines found in {baseline_dir}")
        return [res]
    for name, baseline in baselines.items():
        if scenarios and baseline.get("scenario") not in scenarios:
            continue
        if configs and baseline.get("config") not in configs:
            continue
        path = os.path.join(current_dir, name)
        try:
            current = record_mod.load(path)
        except FileNotFoundError:
            res = GuardResult(name=name)
            res.violations.append(f"current record missing: {path}")
            results.append(res)
            continue
        except ValueError as exc:
            res = GuardResult(name=name)
            res.violations.append(f"current record invalid: {exc}")
            results.append(res)
            continue
        results.append(compare_records(current, baseline, name=name))
    return results


def render_results(results: list[GuardResult]) -> str:
    lines = []
    for res in results:
        status = "ok" if res.ok else "FAIL"
        lines.append(f"{status:4s} {res.name}  ({res.checked_counters} counters)")
        for v in res.violations:
            lines.append(f"       - {v}")
    total = sum(len(r.violations) for r in results)
    lines.append(
        f"{len(results)} record(s) checked, {total} violation(s)"
    )
    return "\n".join(lines)
