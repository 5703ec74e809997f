"""Configuration knobs for the LDPLFS interposition layer.

The C library is configured entirely through the environment (it must be:
it is injected into unmodified binaries via ``LD_PRELOAD``).  We keep the
same contract:

``LDPLFS_PRELOAD``
    When set to a truthy value, importing :mod:`repro.core.preload`
    activates interposition for the whole process — the analogue of
    ``LD_PRELOAD=libldplfs.so``.

``LDPLFS_MOUNTS``
    Comma-separated ``<mount_point>:<backend>`` pairs, e.g.
    ``/mnt/plfs:/scratch/plfs_backend``.  The backend may carry mount
    options plfsrc-style: ``/mnt/plfs:/scratch/backend?daemon=/run/plfsd.sock``
    sends container creates to the ``repro-plfsd`` daemon at that socket
    when it answers (falling back to the in-process path when it does not).

``LDPLFS_PLFSRC``
    Path to a plfsrc-style file (``mount_point``/``backends`` directives)
    consulted when ``LDPLFS_MOUNTS`` is unset, like the C library reads
    ``~/.plfsrc`` then ``/etc/plfsrc``.
"""

from __future__ import annotations

import os

ENV_PRELOAD = "LDPLFS_PRELOAD"
ENV_MOUNTS = "LDPLFS_MOUNTS"
ENV_PLFSRC = "LDPLFS_PLFSRC"

_TRUTHY = {"1", "true", "yes", "on"}


def preload_requested(environ: dict[str, str] | None = None) -> bool:
    environ = os.environ if environ is None else environ
    return environ.get(ENV_PRELOAD, "").strip().lower() in _TRUTHY


def mounts_from_environ(environ: dict[str, str] | None = None) -> list[tuple[str, str]]:
    """Parse ``LDPLFS_MOUNTS`` into (mount_point, backend) pairs."""
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_MOUNTS, "").strip()
    pairs: list[tuple[str, str]] = []
    if not raw:
        return pairs
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(
                f"{ENV_MOUNTS} entry {item!r} is not <mount_point>:<backend>"
            )
        mount_point, backend = item.split(":", 1)
        pairs.append((mount_point, backend))
    return pairs


def parse_plfsrc(text: str) -> list[tuple[str, str]]:
    """Parse plfsrc-style directives into (mount_point, backend) pairs.

    Recognised lines (others and ``#`` comments are ignored)::

        mount_point /mnt/plfs
        backends /scratch/plfs_backend

    A ``backends`` line binds to the most recent ``mount_point`` line, as in
    the C library's plfsrc.
    """
    pairs: list[tuple[str, str]] = []
    current_mount: str | None = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(":", " ").split()
        if len(parts) < 2:
            continue
        key, value = parts[0], parts[1]
        if key == "mount_point":
            current_mount = value
        elif key == "backends":
            if current_mount is None:
                raise ValueError(
                    f"plfsrc line {lineno}: 'backends' before any 'mount_point'"
                )
            # Multiple backends (comma separated) are legal in plfsrc; we
            # support a single backend per mount and take the first.
            pairs.append((current_mount, value.split(",")[0]))
            current_mount = None
    return pairs


def mounts_from_plfsrc(path: str) -> list[tuple[str, str]]:
    with open(path) as fh:
        return parse_plfsrc(fh.read())


def discover_mounts(environ: dict[str, str] | None = None) -> list[tuple[str, str]]:
    """Mount pairs from the environment: ``LDPLFS_MOUNTS`` first, then the
    plfsrc file named by ``LDPLFS_PLFSRC``."""
    environ = os.environ if environ is None else environ
    pairs = mounts_from_environ(environ)
    if pairs:
        return pairs
    rc = environ.get(ENV_PLFSRC, "").strip()
    if rc and os.path.exists(rc):
        return mounts_from_plfsrc(rc)
    return []
