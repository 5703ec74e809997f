"""Property-based crash-consistency: every fault-matrix arm, random writes.

For each matrix case × seeded schedule: run the schedule with the
fault armed (or the damage applied), run ``repro-fsck``, and check the
case's recovery verdict:

- recoverable arms must read back **byte-identical** to the shadow model
  (every acknowledged write, plus a torn write's physically-landed prefix),
  with a clean final check and no unrecoverable verdicts;
- unrecoverable arms must read back as a write-order-consistent prefix no
  older than the last sync, with fsck *reporting* the loss — a silent or
  inventive recovery fails the property.

The schedule seed derives from ``--fault-seed`` (CI runs several); any
failing combination reproduces exactly from the test id.
"""

from __future__ import annotations

import os

import pytest

from repro import plfs
from repro.faults import FAULT_MATRIX, matrix_by_name
from repro.faults.harness import random_schedule, read_back, run_case
from repro.plfs.fsck import fsck

# objectstore arms run under their own harness (the fault fires during
# the tier drain, not the schedule) — see test_objectstore_faults.py.  The
# ids keep their historical "-nowal" suffix so a case's results stay
# comparable across the suite's history.
ARMS = [
    pytest.param(case.name, id=f"{case.name}-nowal")
    for case in FAULT_MATRIX
    if not case.objectstore
]


@pytest.mark.parametrize("schedule_index", range(3))
@pytest.mark.parametrize("case_name", ARMS)
def test_fault_then_fsck_meets_verdict(
    container_path, fault_seed, case_name, schedule_index
):
    case = matrix_by_name(case_name)
    schedule = random_schedule(fault_seed * 101 + schedule_index, ops=18)
    out = run_case(container_path, case, schedule, seed=fault_seed)

    assert out.crashed == (case.mode == "inject" and case.crashes)

    report = fsck(container_path)
    content = read_back(container_path)

    if case.recoverable:
        assert content == out.expected_full(), (
            f"{case.name}: recovered content diverges from the shadow model"
        )
        assert report.ok, (
            f"{case.name}: fsck says not-ok on a recoverable arm:\n"
            + report.render()
        )
    else:
        assert content in out.acceptable_states(), (
            f"{case.name}: recovered content is not a write-order-consistent "
            "prefix of the acknowledged writes"
        )
        assert report.unrecoverable, (
            f"{case.name}: lossy recovery, but fsck reported no loss"
        )
        assert report.check is not None and report.check.ok, (
            f"{case.name}: container still inconsistent after fsck:\n"
            + report.render()
        )

    # In every arm: post-fsck the container is stable and self-consistent.
    again = fsck(container_path)
    assert not again.repaired, (
        f"{case.name}: fsck is not idempotent:\n" + again.render()
    )
    assert plfs.plfs_getattr(container_path).st_size == len(content)


@pytest.mark.parametrize("case_name", ARMS)
def test_dry_run_changes_nothing(container_path, fault_seed, case_name):
    case = matrix_by_name(case_name)
    schedule = random_schedule(fault_seed * 103, ops=12)
    run_case(container_path, case, schedule, seed=fault_seed)

    def snapshot():
        state = {}
        for dirpath, _, names in os.walk(container_path):
            for name in names:
                p = os.path.join(dirpath, name)
                state[p] = os.path.getsize(p)
        return state

    before = snapshot()
    preview = fsck(container_path, dry_run=True)
    assert snapshot() == before
    # The dry run predicts the same repairs and verdicts the real run delivers.
    real = fsck(container_path)
    assert [(a.kind, a.path) for a in preview.actions] == [
        (a.kind, a.path) for a in real.actions
    ], preview.render() + "\n" + real.render()
    assert bool(preview.unrecoverable) == bool(real.unrecoverable)


def test_every_matrix_case_exercised():
    names = {case.name for case in FAULT_MATRIX}
    legacy = {case.name for case in FAULT_MATRIX if not case.objectstore}
    covered = {p.values[0] for p in ARMS}
    assert covered == legacy and len(legacy) == 12 and len(names) == 15
