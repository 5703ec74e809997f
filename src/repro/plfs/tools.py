"""Container maintenance tools: check, recover, usage reporting.

The C distribution ships ``plfs_check_map``/``plfs_recover`` for exactly
these jobs: verifying that a container's index and data droppings agree,
and rebuilding metadata after a crash left the container without meta
droppings (or with stale openhost markers).  Run from Python or as::

    python -m repro.plfs.tools check   /backend/file
    python -m repro.plfs.tools recover /backend/file
    python -m repro.plfs.tools usage   /backend/file
    python -m repro.plfs.tools compact /backend/file
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

from . import cache as index_cache
from . import constants, util
from .container import Container, assert_container
from .errors import CorruptIndexError
from .index import load_global_index, parse_compacted, split_torn
from .route import posix


@dataclass
class ContainerReport:
    """Outcome of :func:`plfs_check`."""

    path: str
    ok: bool = True
    logical_size: int = 0
    physical_bytes: int = 0
    droppings: int = 0
    records: int = 0
    #: physical bytes shadowed by later writes (reclaimable by flatten)
    garbage_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    @property
    def garbage_ratio(self) -> float:
        if self.physical_bytes == 0:
            return 0.0
        return self.garbage_bytes / self.physical_bytes

    def render(self) -> str:
        lines = [
            f"container : {self.path}",
            f"status    : {'OK' if self.ok else 'BROKEN'}",
            f"logical   : {self.logical_size} bytes",
            f"physical  : {self.physical_bytes} bytes in {self.droppings} droppings",
            f"records   : {self.records}",
            f"garbage   : {self.garbage_bytes} bytes ({self.garbage_ratio:.0%})",
        ]
        for p in self.problems:
            lines.append(f"PROBLEM   : {p}")
        for w in self.warnings:
            lines.append(f"warning   : {w}")
        return "\n".join(lines)


def plfs_check(path: str) -> ContainerReport:
    """Verify a container's internal consistency.

    Checks performed:

    - every index dropping parses (record-size aligned);
    - every data dropping has its sibling index dropping and vice versa;
    - every index record's physical extent lies inside its data dropping;
    - cached metadata (``meta/``) does not contradict the index;
    - stale openhost markers are reported (crashed writers).

    Never modifies the container.
    """
    report = ContainerReport(path=os.path.abspath(path))
    assert_container(path)
    container = Container(path)

    pairs = container.droppings()
    report.droppings = len(pairs)

    live_bytes = 0
    for index_path, data_path in pairs:
        try:
            data_size = posix.getsize(data_path)
        except FileNotFoundError:
            report.problem(f"data dropping missing: {data_path}")
            continue
        report.physical_bytes += data_size
        wal_path = os.path.join(
            os.path.dirname(data_path),
            util.wal_name_for_data(os.path.basename(data_path)),
        )
        has_wal = posix.exists(wal_path)
        if has_wal:
            report.warn(
                f"write-ahead index present for {data_path}: writer "
                "crashed or still running (repro-fsck can rebuild)"
            )
        if not posix.exists(index_path):
            report.problem(f"index dropping missing for {data_path}")
            continue
        with posix.builtins_open(index_path, "rb") as fh:
            raw = fh.read()
        records, torn = split_torn(raw)
        if torn:
            report.problem(
                f"torn index dropping {index_path}: {torn} trailing bytes "
                "are not a whole record (crash mid-flush; repro-fsck can "
                "truncate to the last whole record)"
            )
            continue
        report.records += int(records.shape[0])
        indexed_end = 0
        if records.shape[0]:
            ends = records["physical_offset"] + records["length"]
            indexed_end = int(ends.max())
            overrun = indexed_end - data_size
            if overrun > 0:
                report.problem(
                    f"index promises {overrun} bytes past the end of "
                    f"{data_path}"
                )
                continue
        if data_size > indexed_end and not has_wal:
            report.warn(
                f"{data_size - indexed_end} unindexed trailing bytes in "
                f"{data_path}: a writer died between the data append and "
                "the index flush; without a write-ahead index these bytes "
                "are unrecoverable"
            )

    # Orphan index droppings (index without data).
    for entry in sorted(posix.listdir(path)):
        if not entry.startswith(constants.HOSTDIR_PREFIX):
            continue
        hostdir = os.path.join(path, entry)
        if not posix.isdir(hostdir):
            continue
        for name in sorted(posix.listdir(hostdir)):
            if name.startswith(constants.INDEX_PREFIX):
                data_name = constants.DATA_PREFIX + name[len(constants.INDEX_PREFIX):]
                if not posix.exists(os.path.join(hostdir, data_name)):
                    report.warn(f"orphan index dropping: {os.path.join(entry, name)}")

    # Compacted global index: a cache, never an authority — staleness or
    # corruption only costs the fast lane, so both are warnings.
    gpath = container.global_index_path()
    if posix.exists(gpath):
        try:
            with posix.builtins_open(gpath, "rb") as fh:
                _, _, file_epoch, _ = parse_compacted(fh.read(), source=gpath)
        except (OSError, CorruptIndexError) as exc:
            report.warn(
                f"compacted global index unreadable ({exc}); readers fall "
                "back to merging droppings (repro-plfs compact rebuilds it)"
            )
        else:
            if file_epoch != container.index_epoch(pairs):
                report.warn(
                    "compacted global index is stale (container changed "
                    "since it was written); readers fall back to merging "
                    "droppings (repro-plfs compact rebuilds it)"
                )

    if report.ok:
        index, _ = load_global_index(pairs)
        report.logical_size = index.logical_size
        starts, ends, _, _ = index.as_arrays()
        live_bytes = int((ends - starts).sum())
        report.garbage_bytes = max(0, report.physical_bytes - live_bytes)

        cached = container.cached_size()
        open_writers = container.open_writers()
        if open_writers:
            report.warn(
                f"{len(open_writers)} openhost marker(s) present "
                f"({', '.join(open_writers)}): writer crashed or still running"
            )
        elif cached is not None and cached != report.logical_size:
            report.problem(
                f"cached metadata says {cached} bytes but the index says "
                f"{report.logical_size}"
            )
    return report


def repair_derived_state(container: Container, act=None, *, dry_run=False) -> None:
    """Rebuild what the droppings can always rebuild: clear openhost
    markers, rewrite ``meta/`` from the merged index, drop a compacted
    ``global.index`` that is stale or does not parse.

    The one repair routine behind ``repro-plfs recover`` and steps 4-6 of
    ``repro-fsck``.  Every marker is treated as stale — recovery runs when
    no writers are live, as the C tool requires.  *act(kind, path, detail)*
    is told of each repair before it happens; under *dry_run* nothing is
    touched (and ``meta/``, which is rebuilt unconditionally, goes
    unannounced).
    """
    if act is None:
        def act(kind, path, detail):
            pass

    for marker in container.open_writers():
        rel = os.path.join(constants.OPENHOSTS_DIR, marker)
        act(
            "clear-openhost",
            rel,
            "stale marker (fsck runs offline; no writer can be live)",
        )
        if not dry_run:
            try:
                posix.unlink(os.path.join(container.path, rel))
            except FileNotFoundError:
                pass

    if not dry_run:
        index, _ = load_global_index(container.droppings())
        container.clear_meta()
        physical = container.physical_bytes()
        if physical or index.logical_size:
            container.drop_meta(index.logical_size, physical)
        act(
            "rebuild-meta",
            constants.META_DIR,
            f"cached size {index.logical_size} from the repaired index",
        )

    # The compacted global index is a cache, never an authority: anything
    # not byte-for-byte trustworthy against the droppings goes.
    gpath = container.global_index_path()
    if posix.exists(gpath):
        reason = None
        try:
            with posix.builtins_open(gpath, "rb") as fh:
                _, _, file_epoch, _ = parse_compacted(fh.read(), source=gpath)
        except (OSError, CorruptIndexError):
            reason = "does not parse"
        else:
            if file_epoch != container.index_epoch():
                reason = "epoch no longer matches the droppings"
        if reason is not None:
            act(
                "drop-stale-compacted",
                constants.GLOBAL_INDEX_FILE,
                f"compacted global index {reason}; readers re-merge "
                "(repro-plfs compact rebuilds it)",
            )
            if not dry_run:
                container.drop_global_index()


def plfs_recover(path: str) -> ContainerReport:
    """Repair recoverable damage: rebuild cached metadata from the index
    and clear stale openhost markers.  Returns a post-repair check."""
    assert_container(path)
    container = Container(path)
    repair_derived_state(container)
    index_cache.invalidate(container.path)
    return plfs_check(path)


def plfs_compact(path: str) -> dict[str, int | str]:
    """Flatten the container's global index into the persistent
    ``global.index`` dropping, so subsequent reader opens skip the
    per-dropping merge.  Safe to run any time no writer is appending;
    a stale result is harmless (readers detect the epoch mismatch and
    fall back to merging)."""
    assert_container(path)
    container = Container(path)
    segments = index_cache.compact(container)
    index_cache.invalidate(container.path)
    return {
        "path": container.global_index_path(),
        "segments": segments,
        "bytes": posix.getsize(container.global_index_path()),
    }


def plfs_usage(path: str) -> dict[str, int | float]:
    """Space accounting for one container (logical vs physical vs garbage)."""
    report = plfs_check(path)
    return {
        "logical_bytes": report.logical_size,
        "physical_bytes": report.physical_bytes,
        "garbage_bytes": report.garbage_bytes,
        "garbage_ratio": report.garbage_ratio,
        "droppings": report.droppings,
        "records": report.records,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in {"check", "recover", "usage", "compact"}:
        print(__doc__, file=sys.stderr)
        return 2
    command, path = argv
    if command == "check":
        report = plfs_check(path)
        print(report.render())
        return 0 if report.ok else 1
    if command == "recover":
        report = plfs_recover(path)
        print(report.render())
        return 0 if report.ok else 1
    if command == "compact":
        info = plfs_compact(path)
        for key, value in info.items():
            print(f"{key:15s} {value}")
        return 0
    usage = plfs_usage(path)
    for key, value in usage.items():
        print(f"{key:15s} {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
