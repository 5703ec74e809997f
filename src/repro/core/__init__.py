"""``repro.core`` — LDPLFS: transparent POSIX→PLFS interposition.

The paper's primary contribution: a dynamically installed shim that
retargets POSIX file operations on paths under PLFS mount points to the
PLFS user-level API, with no application modification.  See
:mod:`repro.core.interpose` for activation and :mod:`repro.core.shim` for
the interposed call set.  The tracer's names (:mod:`repro.core.trace`)
resolve on first touch (PEP 562): it loads the simulator's statistics,
which a process that only interposes never needs.
"""

from .config import (
    ENV_MOUNTS,
    ENV_PLFSRC,
    ENV_PRELOAD,
    discover_mounts,
    mounts_from_environ,
    mounts_from_plfsrc,
    parse_plfsrc,
    preload_requested,
)
from .fdtable import FdEntry, FdTable
from .interpose import (
    Interposer,
    activate_from_environ,
    current,
    install,
    interposed,
    uninstall,
)
from .mounts import Mount, MountTable
from .shim import RealOS, RetryPolicy, Shim

__all__ = [
    "Interposer",
    "install",
    "uninstall",
    "interposed",
    "current",
    "activate_from_environ",
    "Mount",
    "MountTable",
    "Shim",
    "RealOS",
    "RetryPolicy",
    "FdTable",
    "FdEntry",
    "ENV_PRELOAD",
    "ENV_MOUNTS",
    "ENV_PLFSRC",
    "preload_requested",
    "mounts_from_environ",
    "mounts_from_plfsrc",
    "parse_plfsrc",
    "discover_mounts",
    "Tracer",
    "traced",
    "TraceReport",
    "FileStats",
]


_LAZY = ("Tracer", "traced", "TraceReport", "FileStats")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trace

    return getattr(trace, name)
