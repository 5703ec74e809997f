"""The objectstore arms of the fault matrix: lost PUT, torn multipart
upload, stale tier eviction.

Each case runs a clean schedule over the tiered object backend, fires
its fault during the tier's upload drain, then runs ``repro-fsck`` with
the store handed to the reconcile passes and checks the case's verdict —
including the specific repair actions each failure mode must produce
(resync re-upload, staging sweep, or an explicit unrecoverable verdict
for the orphaned extent — never a silent truncation)."""

from __future__ import annotations

import os
import random

import pytest

from repro.faults import FAULT_MATRIX, matrix_by_name
from repro.faults.harness import (
    WriteOp,
    random_schedule,
    read_back,
    run_objectstore_case,
    run_schedule,
)
from repro.faults.injector import FaultInjector, FaultSpec
from repro.plfs import backing
from repro.plfs.fsck import fsck
from repro.plfs.objectstore import make_backend
from repro.plfs.objectstore.tier import HIWATER_BYTES

#: ids keep the "-nowal" suffix of test_crash_properties.ARMS
OBJECT_ARMS = [
    pytest.param(case.name, id=f"{case.name}-nowal")
    for case in FAULT_MATRIX
    if case.objectstore
]

#: small enough that harness-sized data droppings multipart, large enough
#: that index/meta droppings stay single-shot (so ``object_part`` op
#: numbering targets the data upload)
PART_BYTES = 2048


def _run(container_path, case_name, fault_seed, schedule_index=0):
    case = matrix_by_name(case_name)
    schedule = random_schedule(fault_seed * 107 + schedule_index, ops=18)
    out, store, backend = run_objectstore_case(
        container_path,
        case,
        schedule,
        seed=fault_seed,
        part_bytes=PART_BYTES if case.point == "object_part" else None,
    )
    return case, out, store, backend


@pytest.mark.parametrize("schedule_index", range(2))
@pytest.mark.parametrize("case_name", OBJECT_ARMS)
def test_objectstore_fault_then_fsck_meets_verdict(
    container_path, fault_seed, case_name, schedule_index
):
    case, out, store, backend = _run(container_path, case_name, fault_seed, schedule_index)
    assert out.crashed == case.crashes
    assert any(e.point == case.point for e in out.events), (
        f"{case.name}: the armed fault never fired"
    )

    root = os.path.dirname(container_path)
    report = fsck(container_path, objectstore=store, objectstore_root=root)
    content = read_back(container_path)
    kinds = {a.kind for a in report.actions}

    if case.recoverable:
        assert content == out.expected_full(), (
            f"{case.name}: recovered content diverges from the shadow model"
        )
        assert report.ok, (
            f"{case.name}: fsck says not-ok on a recoverable arm:\n"
            + report.render()
        )
        # the data dropping the fault swallowed must be back in the store
        assert "reupload-object" in kinds
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

    # post-fsck the store mirrors the repaired container: a second fsck
    # (reconcile included) finds nothing to do
    again = fsck(container_path, objectstore=store, objectstore_root=root)
    assert not again.repaired, (
        f"{case.name}: fsck+reconcile is not idempotent:\n" + again.render()
    )


def test_lost_put_is_healed_by_resync(container_path, fault_seed):
    """The lost PUT's signature: the data dropping's manifest is missing
    from the store while the local copy is intact; resync re-uploads it
    and a full evict/restore round trip then survives."""
    case, out, store, backend = _run(container_path, "lost-object-put", fault_seed)
    lost = out.events[-1]
    assert lost.behavior == "lost" and "dropping.data" in lost.path

    root = os.path.dirname(container_path)
    before = read_back(container_path)
    report = fsck(container_path, objectstore=store, objectstore_root=root)
    reuploaded = [a for a in report.actions if a.kind == "reupload-object"]
    assert any("dropping.data" in a.path for a in reuploaded)

    # the store now holds everything: lose the whole local tier and restore
    from repro.plfs.objectstore import WriteBackTier

    tier = WriteBackTier(store, root)
    prefix = os.path.basename(container_path) + "/"
    for key in store.list(prefix):
        local = tier.local_path(key)
        if os.path.exists(local):
            os.unlink(local)
    assert tier.restore_missing(prefix)
    assert read_back(container_path) == before


def test_torn_multipart_leaves_no_visible_object_and_is_swept(
    container_path, fault_seed
):
    case, out, store, backend = _run(container_path, "torn-multipart-upload", fault_seed)
    assert out.crashed
    # the torn staging is pending, and no key was ever committed for it
    pending = store.pending_uploads()
    assert pending, "the torn upload must leave its staging directory behind"
    for _, key in pending:
        assert key is not None and store.head(key) is None

    root = os.path.dirname(container_path)
    report = fsck(container_path, objectstore=store, objectstore_root=root)
    kinds = {a.kind for a in report.actions}
    assert "sweep-torn-upload" in kinds and "reupload-object" in kinds
    assert store.pending_uploads() == []
    assert report.ok


def test_stale_tier_eviction_reports_the_extent_not_silence(
    container_path, fault_seed
):
    """The satellite verdict bugfix end to end: both copies of the data
    dropping are gone, and fsck must *say so* for the promised extent —
    silently truncating past the index coverage is the bug."""
    case, out, store, backend = _run(container_path, "stale-tier-eviction", fault_seed)
    root = os.path.dirname(container_path)
    report = fsck(container_path, objectstore=store, objectstore_root=root)

    assert report.unrecoverable, "the lost extent must be reported"
    assert any("no data dropping behind them" in u for u in report.unrecoverable)
    kinds = {a.kind for a in report.actions}
    # the index that promised the lost bytes is dropped, with its coverage
    # named; what the store did hold (index, meta) came back through the
    # tier's own restore — only the data dropping is beyond recall
    assert "drop-orphan-index" in kinds
    assert backend.tier.stats["tier_restores"] > 0
    assert all("dropping.data" not in k for k in backend.tier.clean_keys())
    assert report.check is not None and report.check.ok


@pytest.mark.parametrize("case_name", OBJECT_ARMS)
def test_dry_run_touches_neither_container_nor_store(container_path, fault_seed, case_name):
    case, out, store, backend = _run(container_path, case_name, fault_seed)
    root = os.path.dirname(container_path)

    def snapshot(base):
        state = {}
        for dirpath, _, names in os.walk(base):
            for name in names:
                p = os.path.join(dirpath, name)
                state[p] = os.path.getsize(p)
        return state

    local_before = snapshot(container_path)
    store_before = snapshot(store.root)
    preview = fsck(
        container_path, dry_run=True, objectstore=store, objectstore_root=root
    )
    assert snapshot(container_path) == local_before
    assert snapshot(store.root) == store_before
    # the dry run predicts the same verdicts the real run delivers
    real = fsck(container_path, objectstore=store, objectstore_root=root)
    assert bool(preview.unrecoverable) == bool(real.unrecoverable)


def test_flusher_crash_racing_eviction_keeps_the_dirty_copy(container_path, fault_seed):
    """The tier flusher's fault arm: a schedule's writes push the dirty
    total past high water, so one ``plfs_write`` runs the flush, and the
    flush's second PUT crashes.  The crash leaves ``plfs_write``; an
    eviction right after it takes only what was uploaded, never the entry
    whose PUT crashed; and restore + fsck recover a state the harness
    accepts for the schedule."""
    rng = random.Random(fault_seed)
    schedule = [
        WriteOp(rng.randrange(64 * 1024), rng.randbytes(8 * 1024)) for _ in range(16)
    ]
    assert sum(len(op.data) for op in schedule) > HIWATER_BYTES
    root = os.path.dirname(container_path)
    backend = make_backend(root)
    tier = backend.tier
    injector = FaultInjector([FaultSpec("object_put", "crash", op=2)], seed=fault_seed)
    previous = backing.install(backend)
    try:
        out = run_schedule(container_path, schedule, injector=injector)
    finally:
        backing.install(previous)

    assert out.crashed and [e.point for e in out.events] == ["object_put"]
    assert tier.stats["tier_hiwater_wakeups"] == 1
    inflight = schedule[len(out.applied)]  # the plfs_write the crash left
    assert not out.errors and len(out.applied) < len(schedule)

    dirty = tier.dirty_keys()
    uploaded = tier.clean_keys()
    assert dirty and uploaded
    tier.evict()
    assert tier.dirty_keys() == dirty
    assert all(os.path.exists(tier.local_path(k)) for k in dirty), (
        "eviction reaped an entry whose PUT crashed: its only copy is local"
    )
    assert sorted(tier.restore_missing()) == sorted(uploaded)

    report = fsck(container_path, objectstore=backend.store, objectstore_root=root)
    assert report.check is not None and report.check.ok, report.render()
    # the write the flush interrupted had appended its data before the
    # flush it triggered: whole, it is the landed part of the op that crashed
    out.partial = (inflight.offset, inflight.data)
    content = read_back(container_path)
    assert content in out.acceptable_states()
    assert report.unrecoverable, "lost unindexed bytes must be reported"


def test_fsck_reconciles_a_container_whose_name_starts_with_dotdot(backend, fault_seed):
    """``..ckpt`` lies under the tiered root: fsck scopes its reconcile to
    the container's prefix instead of refusing it as outside the root."""
    path = os.path.join(backend, "..ckpt")
    be = make_backend(backend)
    previous = backing.install(be)
    try:
        out = run_schedule(path, random_schedule(fault_seed, ops=12), sync_every=4)
    finally:
        backing.install(previous)
    report = fsck(path, objectstore=be.store, objectstore_root=backend)
    assert report.ok, report.render()
    assert read_back(path) == out.expected_full()
    assert be.store.list("..ckpt/")
