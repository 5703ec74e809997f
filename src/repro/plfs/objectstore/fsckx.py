"""Object-store reconciliation for ``repro-fsck``.

Two passes bracket the container repair sequence:

* :func:`reconcile_before` runs *first*: any committed object whose local
  tier copy is missing (evicted, or lost with the node) is restored, so
  the ordinary repair steps see the fullest possible container.  This is
  where "the object store is authority" pays off — an evicted-then-lost
  dropping comes back byte-identical, etag-verified.
* :func:`reconcile_after` runs after repairs, before the final verify:
  torn multipart staging and crashed commit temporaries are swept, and
  the store is resynced to the *repaired* container — repaired or
  rewritten files are re-uploaded, objects with no surviving local
  counterpart (stale WALs deleted at clean close, cleared meta, lost
  droppings fsck quarantined or trimmed) are deleted so no later restore
  can resurrect bytes repair decided against.

Both passes are prefix-scoped to the container being fscked; other
containers sharing the store are untouched.
"""

from __future__ import annotations

import hashlib
import os

from repro.plfs import constants
from repro.plfs.route import posix

from .store import ObjectStore, ObjectStoreError

#: local names never mirrored to the store: fsck quarantine and
#: in-flight atomic-commit temporaries
_SKIP_MARKERS = ("quarantine.", ".tmp.")

#: local-only files: the generation counter is a *per-tier* cache
#: invalidation signal (fsck itself bumps it on every repair run) —
#: mirroring it would make resync diverge on each pass and a restore
#: could roll invalidation backwards
_LOCAL_ONLY = (constants.GENERATION_FILE,)


def _container_prefix(container_path: str, store_root: str) -> str:
    rel = os.path.relpath(os.path.abspath(container_path), os.path.abspath(store_root))
    if rel.startswith(".."):
        raise ValueError(
            f"container {container_path!r} is outside the tiered root {store_root!r}"
        )
    return rel.replace(os.sep, "/") + "/"


def _skip(name: str) -> bool:
    return name in _LOCAL_ONLY or any(marker in name for marker in _SKIP_MARKERS)


def _local_files(container_path: str) -> list[str]:
    """Container-internal relative paths of every mirrorable file."""
    out = []
    for dirpath, _, names in os.walk(container_path):
        for name in names:
            if _skip(name):
                continue
            out.append(
                os.path.relpath(os.path.join(dirpath, name), container_path).replace(
                    os.sep, "/"
                )
            )
    return sorted(out)


def reconcile_before(
    store: ObjectStore,
    container_path: str,
    store_root: str,
    report,
    *,
    dry_run: bool = False,
) -> None:
    """Restore committed objects whose local tier copy is missing."""
    prefix = _container_prefix(container_path, store_root)
    for key in store.list(prefix):
        local = os.path.join(store_root, *key.split("/"))
        if posix.exists(local):
            continue
        rel = key[len(prefix):]
        try:
            data = store.get(key)
        except ObjectStoreError as exc:
            # Committed but unreadable (lost blob / corrupt bytes): the
            # local copy is gone and the authority can't produce one.
            # Record it; the dropping-level repair steps issue the
            # extent-level unrecoverable verdicts.
            report.act("skip-corrupt-object", rel, str(exc))
            continue
        report.act(
            "restore-from-object",
            rel,
            f"local tier copy missing; restored {len(data)} byte(s) from the store",
        )
        if not dry_run:
            posix.ensure_dir(os.path.dirname(local))
            with posix.builtins_open(local, "wb") as fh:
                fh.write(data)


def reconcile_after(
    store: ObjectStore,
    container_path: str,
    store_root: str,
    report,
    *,
    dry_run: bool = False,
) -> None:
    """Sweep upload debris and resync the store to the repaired tier."""
    prefix = _container_prefix(container_path, store_root)

    # torn multipart staging: parts with no committed key are invisible
    # to readers but hold real disk — sweep anything attributable to this
    # container (or unattributable at all)
    for staging, key in store.pending_uploads():
        if key is not None and not key.startswith(prefix):
            continue
        report.act(
            "sweep-torn-upload",
            key[len(prefix):] if key else os.path.basename(staging),
            "multipart staging with no committed manifest (upload died mid-flight)",
        )
        if not dry_run:
            posix.rmtree(staging, ignore_errors=True)

    # crashed atomic-commit temporaries in the blob/key trees
    for tmp in store.stray_temporaries():
        report.act(
            "sweep-object-tmp",
            os.path.relpath(tmp, store.root),
            "leftover temporary from a blob or manifest commit that never completed",
        )
        if not dry_run:
            try:
                posix.unlink(tmp)
            except FileNotFoundError:
                pass

    # resync: the repaired local tier is now the truth this fsck decided
    # on; push it.  Re-upload anything missing or etag-divergent…
    for rel in _local_files(container_path):
        key = prefix + rel
        local = os.path.join(container_path, *rel.split("/"))
        try:
            with posix.builtins_open(local, "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        info = store.head(key)
        if info is not None and info.etag == hashlib.sha256(data).hexdigest():
            continue
        report.act(
            "reupload-object",
            rel,
            "object missing from the store"
            if info is None
            else "object diverges from the repaired local copy",
        )
        if not dry_run:
            store.put(key, data)

    # …and delete objects repair left without a local counterpart, so a
    # later restore cannot resurrect a stale WAL, cleared meta dropping,
    # or bytes fsck quarantined/trimmed.
    local_now = set(_local_files(container_path))
    for key in store.list(prefix):
        if key[len(prefix):] in local_now:
            continue
        report.act(
            "drop-stale-object",
            key[len(prefix):],
            "no local counterpart after repair; deleting so it cannot resurrect",
        )
        if not dry_run:
            store.delete(key)

    if not dry_run:
        swept = store.sweep_blobs()
        if swept:
            report.act(
                "sweep-orphan-blobs",
                store.root,
                f"deleted {swept} blob(s) no committed manifest references",
            )
