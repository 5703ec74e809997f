"""``repro-fsck``: diagnose and repair a PLFS container after a crash or
backend damage; its dry run is :func:`plfs_check`.

The Python analogue of the C distribution's ``plfs_recover`` and
``plfs_check_map``.  One walk decides what is wrong; a dry run reports
it, a real run repairs it.  Repairs are ordered so each step only ever
sees state the previous steps made consistent:

1. restore missing skeleton directories (``openhosts/``, ``meta/``);
2. per data dropping, make its index authoritative again.  Data lands
   before the record that maps it, so a crash leaves at worst a torn
   index tail and an unindexed data tail:

   - leftover repair temporaries (``fsck.tmp.*``: an earlier fsck died
     between writing a repaired index dropping and renaming it into
     place) are swept;
   - a torn index dropping is truncated to its last whole record, records
     promising bytes past the end of the data dropping are clipped, and
     any unindexed data tail is trimmed and reported **unrecoverable**
     (nothing on disk maps those bytes to logical offsets);
   - a data dropping with no index is quarantined (renamed out of the
     data namespace) and reported unrecoverable;

3. orphan index droppings (index without data) are deleted — and when
   the orphan's records promised bytes that no quarantine holds, the
   extent is reported **unrecoverable** rather than silently dropped
   (the lost-PUT / vanished-dropping verdict);
4. stale openhost markers are cleared (fsck runs offline, like the C
   tool);
5. the cached-size metadata is rebuilt from the repaired index when
   another repair was made, or when ``meta/`` disagrees with the index;
6. the persistent compacted global index is audited: a copy that does
   not parse, or whose epoch no longer matches the (repaired) droppings,
   is deleted, never trusted, and leftover compaction and generation
   temporaries are swept;
7. a dry run of the result verifies it.

Every action kind has one class in :data:`KINDS`: ``broken`` (the
container is damaged) or ``in-flight`` (a live or crashed writer, or an
interrupted tool, leaves this behind).  A report's broken actions are its
problems, its in-flight ones its warnings.  ``rebuild-meta`` is graded by
why it is announced: on its own (``meta/`` contradicts the index) it is
broken; after another repair it is that repair's echo, in-flight.

When the container is tiered over an object store (*objectstore* /
*objectstore_root* arguments), the reconcile passes of
:mod:`repro.plfs.objectstore.fsckx` bracket the repair: committed objects
whose local copies are missing are restored first (the store is the
authority; the tier is a cache), and after repair the store is swept and
resynced to the repaired container so stale objects cannot resurrect.

From the shell::

    repro-fsck [--dry-run] [--json] CONTAINER [CONTAINER ...]
    repro-fsck [--dry-run] [--json] --scan BACKEND_DIR
    repro-fsck --objectstore STORE_DIR [--objectstore-root DIR] CONTAINER

``--scan`` walks a backend directory tree and repairs every container it
finds (``--objectstore-root`` defaults to it, else to each container's
parent).  Exit status: 0 — every container clean or fully recovered;
1 — repairs left unrecoverable losses (reported) or a container is still
broken; 2 — usage error, path is not a container, or no such store.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass, field

from . import constants, util
from .cache import invalidate as invalidate_index_cache
from .container import Container, assert_container, is_container
from .errors import CorruptIndexError, PlfsError
from .index import (
    RECORD_SIZE,
    GlobalIndex,
    clip_to_physical,
    parse_compacted,
    split_torn,
    unpack_records,
    with_dropping,
)
from .route import posix

BROKEN = "broken"
IN_FLIGHT = "in-flight"

#: every action kind, in repair order, and its one class
KINDS = {
    "restore-skeleton": IN_FLIGHT,
    "sweep-repair-tmp": IN_FLIGHT,
    "truncate-torn-index": BROKEN,
    "clip-index": BROKEN,
    "trim-unindexed-tail": IN_FLIGHT,
    "quarantine-orphan": BROKEN,
    "drop-orphan-index": IN_FLIGHT,
    "clear-openhost": IN_FLIGHT,
    "rebuild-meta": BROKEN,
    "drop-stale-compacted": IN_FLIGHT,
    "sweep-compaction-tmp": IN_FLIGHT,
    "sweep-generation-tmp": IN_FLIGHT,
    # the object-store reconcile passes
    "restore-from-object": IN_FLIGHT,
    "skip-corrupt-object": BROKEN,
    "sweep-torn-upload": IN_FLIGHT,
    "sweep-object-tmp": IN_FLIGHT,
    "reupload-object": IN_FLIGHT,
    "drop-stale-object": IN_FLIGHT,
    "sweep-orphan-blobs": IN_FLIGHT,
}

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
    #: ``broken`` or ``in-flight`` (see :data:`KINDS`)
    cls: str

    def render(self) -> str:
        return f"{self.cls:9s} {self.kind:22s} {self.path}: {self.detail}"


@dataclass
class FsckReport:
    """Outcome of one container's fsck, or of its dry run."""

    path: str
    dry_run: bool = False
    actions: list[FsckAction] = field(default_factory=list)
    #: losses with no on-disk recovery path — the "detected, reported
    #: verdict" the fault matrix requires for non-recoverable faults
    unrecoverable: list[str] = field(default_factory=list)
    clipped_bytes: int = 0
    trimmed_bytes: int = 0
    quarantined_bytes: int = 0
    #: usage of the container as repaired (as it would be, under a dry run)
    logical_size: int = 0
    physical_bytes: int = 0
    droppings: int = 0
    records: int = 0
    #: physical bytes shadowed by later writes (reclaimable by flatten)
    garbage_bytes: int = 0
    #: a real run's step 7: the dry run of the repaired container
    check: FsckReport | None = None

    def _graded(self, cls: str) -> list[str]:
        return [
            f"{a.path}: {a.detail} (repro-fsck: {a.kind})" for a in self.actions if a.cls == cls
        ]

    @property
    def problems(self) -> list[str]:
        return self._graded(BROKEN)

    @property
    def warnings(self) -> list[str]:
        return self._graded(IN_FLIGHT)

    @property
    def ok(self) -> bool:
        """Nothing lost, and nothing broken — as found (a dry run) or as
        repaired (a real run, judged by its verify pass)."""
        return not self.unrecoverable and not (self.check or self).problems

    @property
    def repaired(self) -> bool:
        return bool(self.actions)

    @property
    def garbage_ratio(self) -> float:
        return self.garbage_bytes / self.physical_bytes if self.physical_bytes else 0.0

    def act(self, kind: str, path: str, detail: str, cls: str | None = None) -> None:
        self.actions.append(FsckAction(kind, path, detail, cls or KINDS[kind]))

    def lose(self, message: str) -> None:
        self.unrecoverable.append(message)

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "dry_run": self.dry_run,
            "ok": self.ok,
            "actions": [
                {"kind": a.kind, "class": a.cls, "path": a.path, "detail": a.detail}
                for a in self.actions
            ],
            "unrecoverable": list(self.unrecoverable),
            "clipped_bytes": self.clipped_bytes,
            "trimmed_bytes": self.trimmed_bytes,
            "quarantined_bytes": self.quarantined_bytes,
            "logical_size": self.logical_size,
            "physical_bytes": self.physical_bytes,
            "droppings": self.droppings,
            "records": self.records,
            "garbage_bytes": self.garbage_bytes,
            "check_ok": None if self.check is None else self.check.ok,
            "check_problems": [] if self.check is None else self.check.problems,
        }

    def render(self) -> str:
        lines = [f"fsck      : {self.path}{' (dry run)' if self.dry_run else ''}"]
        lines += [f"  {a.render()}" for a in self.actions]
        lines += [f"  UNRECOVERABLE {u}" for u in self.unrecoverable]
        if not self.actions and not self.unrecoverable:
            lines.append("  clean: nothing to repair")
        result = "OK" if self.ok else "BROKEN" if (self.check or self).problems else "LOSSY"
        lines += [
            f"logical   : {self.logical_size} bytes",
            f"physical  : {self.physical_bytes} bytes in {self.droppings} droppings, "
            f"{self.records} records",
            f"garbage   : {self.garbage_bytes} bytes ({self.garbage_ratio:.0%})",
            f"result    : {result}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------- #


def _rel(container_path: str, path: str) -> str:
    return os.path.relpath(path, container_path)


def _read(path: str) -> bytes:
    with posix.builtins_open(path, "rb") as fh:
        return fh.read()


def _record_coverage(index_path: str) -> int:
    """Bytes the whole records of an index dropping promise."""
    try:
        records, _ = split_torn(_read(index_path))
    except OSError:
        return 0
    return sum(record.length for record in unpack_records(records))


def _replace_index(index_path: str, records: bytes) -> None:
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
        fh.write(records)
    posix.replace(tmp, index_path)


def _trim_tail(report, rel_data, data_path, data_size, records, why, loss, *, dry_run) -> int:
    """Trim data bytes past the last indexed byte; returns the bytes kept."""
    indexed_end = max(
        (record.physical_offset + record.length for record in unpack_records(records)),
        default=0,
    )
    if data_size <= indexed_end:
        return data_size
    stranded = data_size - indexed_end
    report.act("trim-unindexed-tail", rel_data, f"trimmed {stranded} data byte(s) {why}")
    report.trimmed_bytes += stranded
    report.lose(f"{stranded} {loss}")
    if not dry_run:
        with posix.builtins_open(data_path, "ab") as fh:
            fh.truncate(indexed_end)
    return indexed_end


def _repair_dropping(report, container_path, hostdir, data_name, *, dry_run):
    """Make one data dropping's index authoritative (step 2 above).
    Returns ``(records, data bytes)`` the dropping holds once repaired, or
    None when it is quarantined."""
    data_path = os.path.join(hostdir, data_name)
    index_path = os.path.join(hostdir, util.index_name_for_data(data_name))
    data_size = posix.getsize(data_path)
    rel_data = _rel(container_path, data_path)
    rel_index = _rel(container_path, index_path)

    if not posix.exists(index_path):
        quarantine = QUARANTINE_PREFIX + data_name
        report.act(
            "quarantine-orphan",
            rel_data,
            f"{data_size} data byte(s) have no index; moved to {quarantine}",
        )
        report.quarantined_bytes += data_size
        report.lose(
            f"{data_size} byte(s) in {rel_data}: no surviving record maps "
            "them to logical offsets"
        )
        if not dry_run:
            posix.rename(data_path, os.path.join(hostdir, quarantine))
        return None

    records, torn = split_torn(_read(index_path))
    if torn:
        report.act(
            "truncate-torn-index",
            rel_index,
            f"torn index dropping: {torn} trailing byte(s) are not a whole "
            "record (crash mid-flush); truncated to the last whole record",
        )
        report.lose(
            f"{torn} torn byte(s) in {rel_index}: the interrupted flush's "
            "remaining records died with the writer"
        )
    clipped, lost = clip_to_physical(records, data_size)
    if lost:
        report.act(
            "clip-index",
            rel_index,
            f"index promises {lost} byte(s) past the end of the data dropping; clipped",
        )
        report.clipped_bytes += lost
    if (lost or torn) and not dry_run:
        _replace_index(index_path, clipped)
    kept = _trim_tail(
        report, rel_data, data_path, data_size, clipped,
        "no index record covers (writer died between the data append and "
        "the index flush)",
        f"unindexed byte(s) in {rel_data}: the writer died between the data "
        "append and the index flush",
        dry_run=dry_run,
    )
    return clipped, kept


def _drop_orphans(report, container_path, hostdir, *, dry_run) -> None:
    """Step 3: index droppings whose data dropping is gone.

    Deleting the orphan is right — nothing can serve reads from it — but
    the bytes its records promised were acknowledged to a writer, and if
    no quarantine file holds them the data dropping itself vanished (a
    lost PUT, a vanished backend file): that extent must be reported
    unrecoverable, not silently truncated away with the index."""
    names = sorted(posix.listdir(hostdir))
    present = set(names)
    for name in names:
        if not name.startswith(constants.INDEX_PREFIX):
            continue
        data_name = constants.DATA_PREFIX + name[len(constants.INDEX_PREFIX):]
        if data_name in present:
            continue
        path = os.path.join(hostdir, name)
        rel = _rel(container_path, path)
        covered = _record_coverage(path)
        if covered and QUARANTINE_PREFIX + data_name not in present:
            report.lose(
                f"{covered} byte(s) promised by {rel} have no data "
                "dropping behind them: the backend lost the data (a lost "
                "PUT or vanished dropping), not just records"
            )
        report.act("drop-orphan-index", rel, f"{covered} promised byte(s) and no data dropping")
        if not dry_run:
            posix.unlink(path)


def _audit_compacted(report, container, touched: bool, *, dry_run) -> None:
    """Step 6's audit: the compacted global index is a cache, never an
    authority — anything not byte-for-byte trustworthy against the
    (repaired) droppings goes.  *touched*: a dropping repair was made,
    which moves the epoch whether or not it has happened yet."""
    gpath = container.global_index_path()
    if not posix.exists(gpath):
        return
    try:
        _, _, file_epoch, _ = parse_compacted(_read(gpath), source=gpath)
    except (OSError, CorruptIndexError) as exc:
        reason = f"unreadable ({exc})"
    else:
        if not touched and file_epoch == container.index_epoch():
            return
        reason = "stale (the droppings changed since it was written)"
    report.act(
        "drop-stale-compacted",
        constants.GLOBAL_INDEX_FILE,
        f"compacted global index {reason}; readers re-merge "
        "(repro-plfs compact rebuilds it)",
    )
    if not dry_run:
        container.drop_global_index()


def _sweep(report, directory, name, kind, detail, *, dry_run) -> None:
    report.act(kind, _rel(report.path, os.path.join(directory, name)), detail)
    if not dry_run:
        try:
            posix.unlink(os.path.join(directory, name))
        except FileNotFoundError:
            pass


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
    the path of one's root directory, which must exist) the container is
    tiered over; *objectstore_root* is the tiered local root object keys
    are relative to (default: the container's parent directory).
    """
    assert_container(path)
    if isinstance(objectstore, str) and not posix.isdir(objectstore):
        raise FileNotFoundError(errno.ENOENT, "no object store", objectstore)
    container = Container(path)
    report = FsckReport(path=os.path.abspath(path), dry_run=dry_run)

    store = None
    if objectstore is not None:
        from .objectstore import ObjectStore, fsckx

        store = ObjectStore(objectstore) if isinstance(objectstore, str) else objectstore
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

    # 2. per-dropping index repair, gathering the repaired index as it goes
    kept_records = []
    touched = False
    for hostdir in container.hostdirs():
        names = sorted(posix.listdir(hostdir))
        for name in names:  # first: a repair below reuses the name
            if name.startswith(REPAIR_TMP_PREFIX):
                _sweep(report, hostdir, name, "sweep-repair-tmp",
                       "leftover temporary from an index repair that never "
                       "completed", dry_run=dry_run)
        for name in names:
            if not name.startswith(constants.DATA_PREFIX):
                continue
            before = len(report.actions)
            kept = _repair_dropping(report, container.path, hostdir, name, dry_run=dry_run)
            touched |= len(report.actions) > before
            if kept is not None:
                records, physical = kept
                # the global id is for the in-memory index only: any rewrite is done
                kept_records.append(with_dropping(records, report.droppings))
                report.droppings += 1
                report.records += len(records) // RECORD_SIZE
                report.physical_bytes += physical

    # 3. orphan index droppings
    for hostdir in container.hostdirs():
        _drop_orphans(report, container.path, hostdir, dry_run=dry_run)

    # 4. stale openhost markers: every marker is stale — fsck runs when no
    # writers are live, as the C tool requires
    for marker in container.open_writers():
        _sweep(report, os.path.join(path, constants.OPENHOSTS_DIR), marker,
               "clear-openhost", "stale marker: writer crashed or still running "
               "(fsck runs offline; no writer can be live)", dry_run=dry_run)

    # 5. cached metadata, from the repaired index
    index = GlobalIndex(kept_records)
    report.logical_size = index.logical_size
    _, lengths, _, _ = index.as_arrays()
    report.garbage_bytes = max(0, report.physical_bytes - sum(lengths))
    echo = report.repaired  # then the repair it follows carries the grade
    cached = None if echo else container.cached_size()
    if echo or cached not in (None, index.logical_size):
        report.act(
            "rebuild-meta",
            constants.META_DIR,
            f"cached size {index.logical_size} from the repaired index" if echo else
            f"cached metadata says {cached} bytes but the index says {index.logical_size}",
            IN_FLIGHT if echo else BROKEN,
        )
        if not dry_run:
            container.clear_meta()
            if report.physical_bytes or index.logical_size:
                container.drop_meta(index.logical_size, report.physical_bytes)

    # 6. the compacted global index, and leftover temporaries
    _audit_compacted(report, container, touched, dry_run=dry_run)
    for name in sorted(posix.listdir(path)):
        if name.startswith(constants.GLOBAL_INDEX_FILE + ".tmp."):
            _sweep(report, path, name, "sweep-compaction-tmp",
                   "leftover temporary from a compaction that never completed",
                   dry_run=dry_run)
        elif name.startswith(constants.GENERATION_FILE + ".tmp."):
            _sweep(report, path, name, "sweep-generation-tmp",
                   "leftover temporary from an interrupted generation bump",
                   dry_run=dry_run)
    if not dry_run:
        invalidate_index_cache(container.path)
        # Repairs changed what readers should see; tell other processes.
        container.bump_generation()

    # 6b. object-store sweep + resync: the repaired container is what
    # this fsck decided the truth is — push it to the authority and
    # delete anything stale enough to resurrect later.
    if store is not None:
        fsckx.reconcile_after(store, path, store_root, report, dry_run=dry_run)

    # 7. verify
    if not dry_run:
        report.check = fsck(path, dry_run=True)
    return report


def plfs_check(path: str) -> FsckReport:
    """Verify a container's internal consistency: :func:`fsck`'s dry run,
    whose broken actions are the problems and in-flight ones the
    warnings, plus the usage numbers.  Never modifies the container."""
    return fsck(path, dry_run=True)


# ---------------------------------------------------------------------- #
# the repro-fsck command
# ---------------------------------------------------------------------- #


def scan_containers(root: str) -> list[str]:
    """All container paths under *root* (not descending into containers:
    their internals are droppings, not files)."""
    found: list[str] = []
    for dirpath, dirnames, _ in os.walk(root):
        if is_container(dirpath):
            found.append(dirpath)
            dirnames[:] = []
    return sorted(found)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description="check and repair PLFS containers (plfs_recover analogue)",
    )
    parser.add_argument("paths", nargs="*", help="container paths to repair")
    parser.add_argument("--scan", metavar="DIR", help="walk DIR and repair every container found")
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report repairs, verdicts and usage without touching anything",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON report per container")
    parser.add_argument(
        "--objectstore",
        metavar="DIR",
        help="object-store root the containers are tiered over; enables "
        "the restore/sweep/resync reconcile passes",
    )
    parser.add_argument(
        "--objectstore-root",
        metavar="DIR",
        help="tiered local root object keys are relative to (default: "
        "each container's parent directory, or the --scan directory)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if bool(args.paths) == bool(args.scan):
        print(
            "repro-fsck: give container paths or --scan DIR (not both, not neither)",
            file=sys.stderr,
        )
        return 2

    if args.scan:
        if not posix.isdir(args.scan):
            print(f"repro-fsck: no such directory: {args.scan}", file=sys.stderr)
            return 2
        targets = scan_containers(args.scan)
        if not targets:
            print(f"repro-fsck: no containers under {args.scan}", file=sys.stderr)
            return 0
    else:
        targets = args.paths

    worst = 0
    reports = []
    for path in targets:
        try:
            report = fsck(
                path,
                dry_run=args.dry_run,
                objectstore=args.objectstore,
                objectstore_root=args.objectstore_root or args.scan,
            )
        except (PlfsError, FileNotFoundError) as exc:
            print(f"repro-fsck: {path}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        if not args.json:
            print(report.render())
        if not report.ok:
            worst = 1
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    return worst


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
