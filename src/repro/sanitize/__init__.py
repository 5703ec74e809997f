"""repro.sanitize — what watches a live process for races.

- :mod:`repro.sanitize.runtime` ("plfs-san") — an Eraser-style lockset
  race detector attached to the shared state production classes register
  via ``_SANITIZE_SHARED``; runnable over whole suites as the pytest
  ``--sanitize`` mode (:mod:`repro.sanitize.pytest_plugin`), subprocess
  daemons included.  Its violations are ``LDP204`` findings.
- :mod:`repro.sanitize.registry` — the guarded-field and lock specs the
  detector and the static passes share.

The static halves — the interprocedural lock analysis (LDP2xx) and the
crash-ordering contracts (LDP3xx) — read source, not a process, and live
with the other source passes in :mod:`repro.lint`.  The runtime detector
is *evidence* — a witness that the schedules actually run were clean —
while the static contracts are *authority*, failing
``repro-lint --self-audit`` the moment the source stops satisfying them.
"""

from .registry import (
    DEFAULT_LOCKS,
    DEFAULT_TARGETS,
    EXTENDED_GUARDS,
    LockSpec,
    lock_from_guard,
    runtime_classes,
)

__all__ = [
    "DEFAULT_LOCKS",
    "DEFAULT_TARGETS",
    "EXTENDED_GUARDS",
    "LockSpec",
    "lock_from_guard",
    "runtime_classes",
]
