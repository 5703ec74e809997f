"""Experiment I1 — the insights advisor reproduces the paper's split verdict.

The paper's two headline results pull in opposite directions: PLFS via
LDPLFS is a large win for BT's small collective writes (Fig. 4), and a
large loss for FLASH-IO at 3,072 cores where the per-rank dropping
creates melt Sierra's dedicated MDS (Fig. 5).  The detectors must reach
*both* verdicts from run counters alone: the MDS-storm rule fires at
3,072 cores but stays silent at the 192-core peak, and the BT profile
yields a "use PLFS via LDPLFS" recommendation with cited evidence.
"""

from __future__ import annotations

from repro.cluster import SIERRA
from repro.insights import (
    profile_from_run,
    render_report,
    report_to_json,
    run_rules,
)
from repro.lint.findings import RULES
from repro.mpiio import LDPLFS, MPIIO
from repro.model.autotune import advise_from_profile
from repro.workloads import run_bt, run_flashio

#: Fig. 5 grid points (nodes x 12 ppn -> 12..3,072 cores)
GRID_NODES = [1, 4, 16, 64, 256]


def run_grid():
    rows = []
    for nodes in GRID_NODES:
        result = run_flashio(SIERRA, LDPLFS, nodes)
        profile = profile_from_run(result, SIERRA, LDPLFS, workload="flashio")
        rows.append((nodes * 12, profile, run_rules(profile)))
    return rows


def test_insights_flashio_grid(benchmark, report):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    by_cores = {cores: (profile, findings) for cores, profile, findings in rows}

    storm = {
        cores: next((f for f in fs if f.name == "mds-create-storm"), None)
        for cores, (_, fs) in by_cores.items()
    }
    # Silent at the paper's peak, screaming at the paper's cliff.
    assert storm[192] is None
    hit = storm[3072]
    assert hit is not None
    assert hit.severity.name == "HIGH"
    assert RULES[hit.rule].summary == "PLFS harmful: dedicated-MDS create storm"
    for key in ("dropping_creates", "writers", "mds_utilisation"):
        assert key in hit.evidence
    assert hit.evidence["dropping_creates"] == 2 * 3072

    # The mechanism behind the split: MDS utilisation straddles the
    # warn/high thresholds across the sweep.
    assert by_cores[192][0].mds_utilisation < 0.25
    assert by_cores[3072][0].mds_utilisation > 0.5

    sections = [
        f"=== {cores} cores ===\n" + render_report(profile, findings)
        for cores, (profile, findings) in sorted(by_cores.items())
    ]
    report("insights_flashio.txt", "\n\n".join(sections))


def test_bt_small_write_verdict(benchmark, report):
    """Fig. 4's positive verdict, with the model advisor citing it."""

    def run():
        result = run_bt(SIERRA, MPIIO, 1024, "C")
        profile = profile_from_run(result, SIERRA, MPIIO, workload="bt.C")
        return profile, run_rules(profile)

    profile, findings = benchmark.pedantic(run, rounds=1, iterations=1)
    small = next(f for f in findings if f.name == "small-writes-shared-file")
    assert small.severity.name == "HIGH"
    assert "use PLFS via LDPLFS" in small.recommendation
    assert small.evidence["small_write_fraction"] >= 0.9

    rec = advise_from_profile(SIERRA, profile)
    assert rec.method.uses_plfs and rec.plfs_helps
    assert "Observed evidence" in rec.explanation
    assert rec.findings  # detector evidence attached to the recommendation

    report(
        "insights_bt_verdict.txt",
        render_report(profile, findings)
        + f"\n\nmodel advice: use {rec.method.name} — {rec.explanation}",
    )


def test_report_byte_identical(benchmark):
    """Two runs of the same seeded simulation -> identical JSON bytes."""

    def one() -> str:
        result = run_flashio(SIERRA, LDPLFS, 16)
        profile = profile_from_run(result, SIERRA, LDPLFS, workload="flashio")
        return report_to_json(profile, run_rules(profile))

    first = benchmark.pedantic(one, rounds=1, iterations=1)
    assert first == one()
