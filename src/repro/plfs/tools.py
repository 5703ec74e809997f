"""``repro-plfs compact``: flatten a container's index by hand.

Checking and repairing a container is ``repro-fsck`` (its ``--dry-run``
is the check, :func:`repro.plfs.fsck.plfs_check`).  Run as::

    repro-plfs compact /backend/file
"""

from __future__ import annotations

import sys

from . import cache as index_cache
from .container import Container, assert_container
from .route import posix


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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] != "compact":
        print(__doc__, file=sys.stderr)
        return 2
    for key, value in plfs_compact(argv[1]).items():
        print(f"{key:15s} {value}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    sys.exit(main())
