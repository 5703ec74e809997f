"""Ratio-based regression guards and shared timing helpers.

Two consumers:

- the benchmark suite (``benchmarks/test_*.py``) uses the sampling and
  assertion helpers (:func:`median_time`, :func:`best_of`,
  :func:`assert_faster`, :func:`assert_inflection`, :func:`best_ratio`)
  instead of per-file ad-hoc threshold code;
- ``repro-bench guard`` uses :func:`compare_records` /
  :func:`guard_directory` to diff fresh ``BENCH_*.json`` records against
  the committed baseline.

The comparison rules are deliberately asymmetric:

- **counters** are deterministic under a fixed seed, so any drift is a
  behaviour change and fails exactly (byte totals that embed the
  hostname/pid are not, and travel in ``derived.bytes`` instead);
- **timings** are never compared across runs — only the *dimensionless*
  ``derived.normalized`` (timings over the record's own calibration
  probe) and ``derived.ratios`` (within-run ratios) are, and only as
  ``current/baseline`` ratios against a tolerance.  Hardware speed
  cancels out of both sides, which is what keeps the guard from flaking
  on shared CI runners while still catching a real 2x regression.

Tolerance priority: explicit argument > the baseline record's own
``guard.max_timing_regression`` > :data:`record.DEFAULT_MAX_TIMING_REGRESSION`.
"""

from __future__ import annotations

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


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-N timing: the estimator for *calibration probes* and
    noisy shared hosts, where the minimum is the least-stolen sample."""
    return min(sample_times(fn, repeats))


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
    checked_metrics: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _tolerance(baseline: dict, override: float | None) -> float:
    if override is not None:
        return override
    embedded = baseline.get("guard", {}).get("max_timing_regression")
    if embedded is not None:
        return float(embedded)
    return record_mod.DEFAULT_MAX_TIMING_REGRESSION


def compare_records(
    current: dict,
    baseline: dict,
    *,
    max_timing_regression: float | None = None,
    name: str = "",
) -> GuardResult:
    """Diff *current* against *baseline* under the guard rules."""
    result = GuardResult(name=name or baseline.get("scenario", "?"))
    limit = _tolerance(baseline, max_timing_regression)

    for key in ("scenario", "profile", "config", "seed", "schema_version"):
        if current.get(key) != baseline.get(key):
            result.violations.append(
                f"{key} mismatch: current {current.get(key)!r} "
                f"!= baseline {baseline.get(key)!r}"
            )
    if result.violations:
        return result

    base_digest = baseline.get("op_stream", {}).get("digest")
    cur_digest = current.get("op_stream", {}).get("digest")
    if base_digest and cur_digest and base_digest != cur_digest:
        result.violations.append(
            "op-stream digest changed: the generator no longer reproduces "
            "the baseline workload under this seed"
        )

    for key, base_val in sorted(baseline.get("counters", {}).items()):
        result.checked_counters += 1
        cur_val = current.get("counters", {}).get(key)
        if cur_val != base_val:
            result.violations.append(
                f"counter {key}: {base_val!r} -> {cur_val!r} "
                "(counters are deterministic; exact match required)"
            )

    for section in record_mod.DERIVED_SECTIONS:
        base_sub = baseline.get("derived", {}).get(section, {})
        cur_sub = current.get("derived", {}).get(section, {})
        for key, base_val in sorted(base_sub.items()):
            result.checked_metrics += 1
            cur_val = cur_sub.get(key)
            if cur_val is None:
                result.violations.append(f"{section}.{key}: missing from current record")
                continue
            if base_val <= 0:
                continue
            ratio = cur_val / base_val
            if ratio > limit:
                result.violations.append(
                    f"{section}.{key}: {base_val:.4g} -> {cur_val:.4g} "
                    f"({ratio:.2f}x > allowed {limit:g}x)"
                )
    return result


def guard_directory(
    current_dir: str,
    baseline_dir: str,
    *,
    max_timing_regression: float | None = None,
    scenarios: list[str] | None = None,
    configs: list[str] | None = None,
) -> list[GuardResult]:
    """Compare every baseline ``BENCH_*.json`` against its counterpart in
    *current_dir*.  A baseline with no (or an unreadable) counterpart is
    a violation: the trajectory must never silently lose a scenario.
    *scenarios* / *configs* restrict which baselines are compared (a CI
    job that only regenerated one config guards only that config)."""
    import os

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
        results.append(
            compare_records(
                current,
                baseline,
                max_timing_regression=max_timing_regression,
                name=name,
            )
        )
    return results


def render_results(results: list[GuardResult]) -> str:
    lines = []
    for res in results:
        status = "ok" if res.ok else "FAIL"
        lines.append(
            f"{status:4s} {res.name}  "
            f"({res.checked_counters} counters, {res.checked_metrics} metrics)"
        )
        for v in res.violations:
            lines.append(f"       - {v}")
    total = sum(len(r.violations) for r in results)
    lines.append(
        f"{len(results)} record(s) checked, {total} violation(s)"
    )
    return "\n".join(lines)
