"""``python -m benchmarks.ledger compare A.json B.json``: did B get worse?

Applies each end-to-end metric's bound per (workload, metric).  Every
ratio is B over A: A is the base.
"""

from __future__ import annotations

import json

from . import spec


def verdict(metric: spec.Metric, a: float, b: float) -> str:
    """better / same / worse for *b* against base *a*."""
    if metric.name == "fail_share":  # absolute: any rise is a regression
        return "worse" if b > a else "better" if b < a else "same"
    if a == 0:
        return "same" if b == 0 else "worse"
    change = (b - a) / abs(a)
    if metric.better == "higher":
        change = -change
    if change > metric.bound:
        return "worse"
    if change < -metric.bound:
        return "better"
    return "same"


def compare(doc_a: dict, doc_b: dict) -> tuple[list[tuple], bool]:
    """Rows (workload, metric, unit, a, b, verdict) and whether any is worse."""
    rows, any_worse = [], False
    for workload, res_a in doc_a["workloads"].items():
        res_b = doc_b["workloads"].get(workload)
        if res_b is None:
            continue
        for metric in spec.END_TO_END:
            a, b = res_a["end_to_end"][metric.name], res_b["end_to_end"][metric.name]
            v = verdict(metric, a, b)
            any_worse |= v == "worse"
            rows.append((workload, metric.name, metric.unit, a, b, v))
    return rows, any_worse


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows, any_worse = compare(json.load(fa), json.load(fb))
    print(f"base A = {path_a}\n     B = {path_b}\n")
    print(f"{'workload':<18}{'metric':<14}{'A':>14}{'B':>14}  {'B/A':>7}  {'bound':>6}  verdict")
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    for workload, name, unit, a, b, v in rows:
        ratio = f"{b / a:7.3f}" if a else "    n/a"
        print(f"{workload:<18}{name:<14}{a:>14.6g}{b:>14.6g}  {ratio}  "
              f"{bounds[name]:>6.3g}  {v}  [{unit}]")
    print("\nworse on at least one metric" if any_worse else "\nno end-to-end metric worse")
    return 1 if any_worse else 0
