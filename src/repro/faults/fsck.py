"""``repro-fsck``: repair a PLFS container after a crash or backend damage.

The Python analogue of the C distribution's ``plfs_recover``, extended for
the write-ahead index.  Repairs are ordered so each step only ever sees
state the previous steps made consistent:

1. restore missing skeleton directories (``openhosts/``, ``meta/``);
2. per data dropping, make its index authoritative again:

   - leftover repair temporaries (``fsck.tmp.*``: an earlier fsck died
     between writing a repaired index dropping and renaming it into
     place) are swept;
   - a surviving write-ahead dropping is a superset of the flushed index
     (records are written ahead of every data append and only deleted on
     clean close), so the index is **rebuilt** from the WAL's whole-record
     prefix, clipped to the bytes the data dropping physically holds;
   - otherwise a torn index dropping is truncated to its last whole
     record, and any unindexed data tail is trimmed and reported
     **unrecoverable** (nothing on disk maps those bytes to logical
     offsets);
   - a data dropping with no index and no WAL is quarantined (renamed out
     of the data namespace) and reported unrecoverable;

3. orphan index droppings (index without data) are deleted — and when
   the orphan's records promised bytes that no quarantine holds, the
   extent is reported **unrecoverable** rather than silently dropped
   (the lost-PUT / vanished-dropping verdict);
4. stale openhost markers are cleared (fsck runs offline, like the C
   tool);
5. the cached-size metadata is rebuilt from the repaired global index;
6. the persistent compacted global index is audited: a copy whose epoch
   no longer matches the (possibly just-repaired) droppings — or that
   does not parse — is deleted, never trusted, and leftover compaction
   temporaries (``global.index.tmp.*``, a crash mid-compaction) are
   swept;
7. a final :func:`~repro.plfs.tools.plfs_check` verifies the result.

When the container is tiered over an object store (*objectstore* /
*objectstore_root* arguments), two reconcile passes bracket the repair:
committed objects whose local copies are missing are restored first
(the store is the authority; the tier is a cache), and after repair the
store is swept (torn multipart staging, crashed commit temporaries) and
resynced to the repaired container so stale objects cannot resurrect.

``dry_run`` records every action and verdict without touching the
container.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.plfs import constants, util
from repro.plfs.cache import invalidate as invalidate_index_cache
from repro.plfs.container import Container, assert_container
from repro.plfs.index import (
    clip_to_physical,
    pack_records,
    split_torn,
)
from repro.plfs.route import posix
from repro.plfs.tools import ContainerReport, plfs_check, repair_derived_state

#: prefix quarantined (orphaned) data droppings are renamed under, taking
#: them out of the ``dropping.data.`` namespace the reader enumerates
QUARANTINE_PREFIX = "quarantine."

#: prefix of the temporary a repaired index dropping is written under before
#: it is renamed over the damaged one — a name no dropping enumeration picks up
REPAIR_TMP_PREFIX = "fsck.tmp."


@dataclass(frozen=True)
class FsckAction:
    """One repair performed (or, under ``dry_run``, proposed)."""

    kind: str
    path: str
    detail: str

    def render(self) -> str:
        return f"{self.kind:24s} {self.path}: {self.detail}"


@dataclass
class FsckReport:
    """Outcome of one container's fsck."""

    path: str
    dry_run: bool = False
    actions: list[FsckAction] = field(default_factory=list)
    #: losses with no on-disk recovery path — the "detected, reported
    #: verdict" the fault matrix requires for non-recoverable faults
    unrecoverable: list[str] = field(default_factory=list)
    rebuilt_indexes: int = 0
    clipped_bytes: int = 0
    trimmed_bytes: int = 0
    quarantined_bytes: int = 0
    check: ContainerReport | None = None

    @property
    def ok(self) -> bool:
        """Fully recovered: container consistent and nothing was lost."""
        return (
            not self.unrecoverable
            and self.check is not None
            and self.check.ok
        )

    @property
    def repaired(self) -> bool:
        return bool(self.actions)

    def act(self, kind: str, path: str, detail: str) -> None:
        self.actions.append(FsckAction(kind, path, detail))

    def lose(self, message: str) -> None:
        self.unrecoverable.append(message)

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "dry_run": self.dry_run,
            "ok": self.ok,
            "actions": [
                {"kind": a.kind, "path": a.path, "detail": a.detail}
                for a in self.actions
            ],
            "unrecoverable": list(self.unrecoverable),
            "rebuilt_indexes": self.rebuilt_indexes,
            "clipped_bytes": self.clipped_bytes,
            "trimmed_bytes": self.trimmed_bytes,
            "quarantined_bytes": self.quarantined_bytes,
            "check_ok": None if self.check is None else self.check.ok,
            "check_problems": [] if self.check is None else list(self.check.problems),
        }

    def render(self) -> str:
        lines = [f"fsck      : {self.path} {'(dry run)' if self.dry_run else ''}".rstrip()]
        for a in self.actions:
            lines.append(f"  {a.render()}")
        for u in self.unrecoverable:
            lines.append(f"  UNRECOVERABLE            {u}")
        if not self.actions and not self.unrecoverable:
            lines.append("  clean: nothing to repair")
        if self.check is not None:
            lines.append(
                f"result    : {'OK' if self.ok else 'LOSSY' if self.check.ok else 'BROKEN'}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------- #


def _rel(container_path: str, path: str) -> str:
    return os.path.relpath(path, container_path)


def _record_coverage(index_path: str) -> int:
    """Bytes the whole records of an index/WAL dropping promise."""
    try:
        with posix.builtins_open(index_path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return 0
    records, _ = split_torn(raw)
    if not records.shape[0]:
        return 0
    return int(records["length"].sum())


def _replace_index(index_path: str, records) -> None:
    """Write-then-rename a repaired index dropping beside the damaged one.

    Truncating in place would destroy the only copy of the records before
    the new ones are written, and would change (even grow) the content
    under an inode other processes' cached indexes remember as append-only;
    renamed into place, the repair is a new file or it did not happen.
    """
    tmp = os.path.join(
        os.path.dirname(index_path), REPAIR_TMP_PREFIX + os.path.basename(index_path)
    )
    with posix.builtins_open(tmp, "wb") as fh:
        fh.write(pack_records(records))
    posix.replace(tmp, index_path)


def _repair_dropping(
    report: FsckReport,
    container_path: str,
    hostdir: str,
    data_name: str,
    *,
    dry_run: bool,
) -> None:
    """Make one data dropping's index authoritative (step 2 above)."""
    data_path = os.path.join(hostdir, data_name)
    index_path = os.path.join(hostdir, util.index_name_for_data(data_name))
    wal_path = os.path.join(hostdir, util.wal_name_for_data(data_name))
    data_size = posix.getsize(data_path)
    rel_data = _rel(container_path, data_path)

    if posix.exists(wal_path):
        with posix.builtins_open(wal_path, "rb") as fh:
            raw = fh.read()
        records, torn = split_torn(raw)
        clipped, lost = clip_to_physical(records, data_size)
        detail = (
            f"rebuilt {clipped.shape[0]} record(s) from write-ahead index"
        )
        if torn:
            detail += f", discarded {torn} torn WAL byte(s)"
        if lost:
            detail += f", clipped {lost} promised byte(s) that never landed"
        report.act("rebuild-index", rel_data, detail)
        report.rebuilt_indexes += 1
        report.clipped_bytes += lost
        if not dry_run:
            _replace_index(index_path, clipped)
        # The clipped WAL byte(s) were never acknowledged to the writer —
        # clipping is reconciliation, not loss; no unrecoverable verdict.
        # Data bytes *past* the WAL coverage are a different matter: with
        # group commit (wal_batch > 1) a crash inside a batch window can
        # land appends whose records never reached the WAL.  Nothing on
        # disk maps those bytes, so they are trimmed and reported — the
        # batch-boundary half of the recovery invariant.
        indexed_end = 0
        if clipped.shape[0]:
            indexed_end = int((clipped["physical_offset"] + clipped["length"]).max())
        if data_size > indexed_end:
            stranded = data_size - indexed_end
            report.act(
                "trim-unindexed-tail",
                rel_data,
                f"trimmed {stranded} data byte(s) past the write-ahead coverage",
            )
            report.trimmed_bytes += stranded
            report.lose(
                f"{stranded} byte(s) in {rel_data} were appended inside a "
                "write-ahead batch window whose records never reached the "
                "WAL (the writer died before the batch flush)"
            )
            if not dry_run:
                with posix.builtins_open(data_path, "ab") as fh:
                    fh.truncate(indexed_end)
        if not dry_run:
            posix.unlink(wal_path)
        return

    if not posix.exists(index_path):
        quarantine = os.path.join(hostdir, QUARANTINE_PREFIX + data_name)
        report.act(
            "quarantine-orphan",
            rel_data,
            f"{data_size} data byte(s) have no index and no write-ahead "
            f"index; moved to {os.path.basename(quarantine)}",
        )
        report.quarantined_bytes += data_size
        report.lose(
            f"{data_size} byte(s) in {rel_data}: no surviving record maps "
            "them to logical offsets"
        )
        if not dry_run:
            posix.rename(data_path, quarantine)
        return

    with posix.builtins_open(index_path, "rb") as fh:
        raw = fh.read()
    records, torn = split_torn(raw)
    if torn:
        report.act(
            "truncate-torn-index",
            _rel(container_path, index_path),
            f"dropped {torn} trailing byte(s) of a partial record",
        )
        report.lose(
            f"{torn} torn byte(s) in {_rel(container_path, index_path)}: "
            "the interrupted flush's remaining records died with the writer"
        )
    clipped, lost = clip_to_physical(records, data_size)
    if lost or (torn and not dry_run):
        if lost:
            report.act(
                "clip-index",
                _rel(container_path, index_path),
                f"clipped {lost} promised byte(s) past the data dropping's end",
            )
            report.clipped_bytes += lost
        if not dry_run:
            _replace_index(index_path, clipped)

    indexed_end = 0
    if clipped.shape[0]:
        indexed_end = int((clipped["physical_offset"] + clipped["length"]).max())
    if data_size > indexed_end:
        stranded = data_size - indexed_end
        report.act(
            "trim-unindexed-tail",
            rel_data,
            f"trimmed {stranded} data byte(s) no index record covers",
        )
        report.trimmed_bytes += stranded
        report.lose(
            f"{stranded} unindexed byte(s) in {rel_data}: the writer died "
            "between the data append and the index flush, and no "
            "write-ahead index was enabled"
        )
        if not dry_run:
            with posix.builtins_open(data_path, "ab") as fh:
                fh.truncate(indexed_end)


def fsck(
    path: str,
    *,
    dry_run: bool = False,
    objectstore=None,
    objectstore_root: str | None = None,
) -> FsckReport:
    """Repair the container at *path*; see the module docstring for the
    repair sequence.  Read-only when *dry_run*.

    *objectstore* is an :class:`~repro.plfs.objectstore.ObjectStore` (or
    the path of one's root directory) the container is tiered over;
    *objectstore_root* is the tiered local root object keys are relative
    to (default: the container's parent directory).
    """
    assert_container(path)
    container = Container(path)
    report = FsckReport(path=os.path.abspath(path), dry_run=dry_run)

    store = None
    if objectstore is not None:
        from repro.plfs.objectstore import ObjectStore, fsckx

        store = (
            ObjectStore(objectstore) if isinstance(objectstore, str) else objectstore
        )
        store_root = objectstore_root or os.path.dirname(os.path.abspath(path))
        # 0. the store is authority: restore evicted/lost local copies
        # before the ordinary repair steps reason about what's missing
        fsckx.reconcile_before(store, path, store_root, report, dry_run=dry_run)

    # 1. skeleton
    missing = [
        name
        for name in (constants.OPENHOSTS_DIR, constants.META_DIR)
        if not posix.isdir(os.path.join(path, name))
    ]
    if missing:
        report.act("restore-skeleton", path, f"recreated {', '.join(missing)}")
        if not dry_run:
            container.restore_skeleton()

    # 2. per-dropping index repair
    for hostdir in container.hostdirs():
        names = sorted(posix.listdir(hostdir))
        for name in names:  # first: a repair below reuses the name
            if name.startswith(REPAIR_TMP_PREFIX):
                report.act(
                    "sweep-repair-tmp",
                    _rel(container.path, os.path.join(hostdir, name)),
                    "leftover temporary from an index repair that never completed",
                )
                if not dry_run:
                    posix.unlink(os.path.join(hostdir, name))
        for name in names:
            if name.startswith(constants.DATA_PREFIX):
                _repair_dropping(
                    report, container.path, hostdir, name, dry_run=dry_run
                )

    # 3. orphan index droppings (index without data).  Deleting the
    # orphan is right — nothing can serve reads from it — but the bytes
    # its records promised were acknowledged to a writer, and if no
    # quarantine file holds them the data dropping itself vanished (a
    # lost PUT, a vanished backend file): that extent must be reported
    # unrecoverable, not silently truncated away with the index.
    for hostdir in container.hostdirs():
        names = sorted(posix.listdir(hostdir))
        present = set(names)
        for name in names:
            if not name.startswith(constants.INDEX_PREFIX):
                continue
            data_name = constants.DATA_PREFIX + name[len(constants.INDEX_PREFIX):]
            if data_name in present:
                continue
            rel_index = _rel(container.path, os.path.join(hostdir, name))
            covered = _record_coverage(os.path.join(hostdir, name))
            if covered and QUARANTINE_PREFIX + data_name not in present:
                report.lose(
                    f"{covered} byte(s) promised by {rel_index} have no "
                    "data dropping behind them: the backend lost the data "
                    "(a lost PUT or vanished dropping), not just records"
                )
            report.act(
                "drop-orphan-index",
                rel_index,
                f"index dropping ({covered} promised byte(s)) has no data dropping",
            )
            if not dry_run:
                posix.unlink(os.path.join(hostdir, name))
        # leftover WALs whose data dropping vanished entirely: same
        # verdict logic, but only when no index sibling existed to carry
        # it above (the WAL is a superset of the flushed index)
        for name in names:
            if not name.startswith(constants.WAL_PREFIX):
                continue
            data_name = constants.DATA_PREFIX + name[len(constants.WAL_PREFIX):]
            if data_name in present:
                continue
            rel_wal = _rel(container.path, os.path.join(hostdir, name))
            index_name = constants.INDEX_PREFIX + name[len(constants.WAL_PREFIX):]
            covered = _record_coverage(os.path.join(hostdir, name))
            if (
                covered
                and index_name not in present
                and QUARANTINE_PREFIX + data_name not in present
            ):
                report.lose(
                    f"{covered} byte(s) promised by {rel_wal} have no data "
                    "dropping behind them: the backend lost the data"
                )
            report.act(
                "drop-orphan-wal",
                rel_wal,
                "write-ahead dropping has no data dropping",
            )
            if not dry_run:
                posix.unlink(os.path.join(hostdir, name))

    # 4-6. stale openhost markers, cached metadata rebuilt from the
    # repaired index, compacted global index audited: the routine
    # `repro-plfs recover` runs.  Rebuilding meta/ alone is not a repair.
    def act(kind: str, target: str, detail: str) -> None:
        if kind != "rebuild-meta" or report.repaired:
            report.act(kind, target, detail)

    repair_derived_state(container, act, dry_run=dry_run)
    for name in sorted(posix.listdir(path)):
        if name.startswith(constants.GLOBAL_INDEX_FILE + ".tmp."):
            report.act(
                "sweep-compaction-tmp",
                name,
                "leftover temporary from a compaction that never completed",
            )
            if not dry_run:
                posix.unlink(os.path.join(path, name))
        elif name.startswith(constants.GENERATION_FILE + ".tmp."):
            report.act(
                "sweep-generation-tmp",
                name,
                "leftover temporary from an interrupted generation bump",
            )
            if not dry_run:
                posix.unlink(os.path.join(path, name))
    if not dry_run:
        invalidate_index_cache(container.path)
        # Repairs changed what readers should see; tell other processes.
        container.bump_generation()

    # 6b. object-store sweep + resync: the repaired container is what
    # this fsck decided the truth is — push it to the authority and
    # delete anything stale enough to resurrect later.
    if store is not None:
        from repro.plfs.objectstore import fsckx

        fsckx.reconcile_after(store, path, store_root, report, dry_run=dry_run)

    # 7. verify
    report.check = plfs_check(path)
    return report
