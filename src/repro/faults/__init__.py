"""``repro.faults`` — deterministic fault injection and the crash matrix.

PLFS's log-structured container turns one logical file into many backend
files whose mutual consistency is maintained by ordering conventions, not
atomicity: data bytes land before their index records, openhost markers
bracket writer lifetimes, cached metadata is advisory.  This package
stress-tests those conventions and states what repairing their
violations must achieve (the repair itself, ``repro-fsck``, is library
code: :mod:`repro.plfs.fsck`):

- :mod:`repro.faults.injector` — a seedable :class:`FaultInjector` that
  wraps the PLFS backing store (:mod:`repro.plfs.backing`) and makes any
  persistence operation fail deterministically: short writes, torn
  (partial + crash) writes, ``ENOSPC``, ``EINTR``, or a process kill
  modelled as :class:`InjectedCrash`.
- :mod:`repro.faults.matrix` — the fault matrix: every injection point and
  damage pattern, each with its post-crash invariant and recovery verdict.
- :mod:`repro.faults.harness` — the crash-consistency test driver: runs a
  write schedule against a container with one armed fault while keeping a
  shadow copy, then checks the recovered container against it.
"""

from .injector import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FaultyBackingStore,
    InjectedCrash,
    injector_from_env,
)
from .matrix import FAULT_MATRIX, FaultCase, matrix_by_name

__all__ = [
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultyBackingStore",
    "InjectedCrash",
    "injector_from_env",
    "FAULT_MATRIX",
    "FaultCase",
    "matrix_by_name",
]
