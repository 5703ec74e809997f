"""LDPLFS reproduction (Wright et al., "LDPLFS: Improving I/O Performance
Without Application Modification", 2012).

Sub-packages:

- :mod:`repro.plfs` — a complete Parallel Log-structured File System on a
  real backend directory tree (containers, droppings, index).
- :mod:`repro.core` — LDPLFS itself: transparent POSIX→PLFS interposition
  (the paper's primary contribution).
- :mod:`repro.unixtools` — cp/cat/grep/md5sum/ls/wc as unmodified POSIX
  applications (Table II).
- :mod:`repro.sim` — deterministic discrete-event simulation core.
- :mod:`repro.cluster` — Minerva and Sierra platform models (Table I).
- :mod:`repro.fs` — simulated parallel-FS data paths (shared files vs
  PLFS containers).
- :mod:`repro.mpiio` — simulated MPI-IO with collective buffering and the
  four access methods (MPI-IO, FUSE, ROMIO, LDPLFS).
- :mod:`repro.workloads` — MPI-IO Test, NAS BT, FLASH-IO generators
  (Figs. 3-5).
- :mod:`repro.model` — analytic performance model + auto-tuning (§V.A).
- :mod:`repro.analysis` — series containers, tables, shape checks.

Quick start (the paper's headline capability)::

    from repro.core import interposed

    with interposed([("/mnt/plfs", "/tmp/plfs_backend")]):
        with open("/mnt/plfs/out.dat", "wb") as fh:   # unmodified code
            fh.write(b"transparently stored in a PLFS container")
"""

__version__ = "1.0.0"

__all__ = [
    "plfs",
    "core",
    "unixtools",
    "sim",
    "cluster",
    "fs",
    "mpiio",
    "workloads",
    "model",
    "analysis",
    "__version__",
]


def __getattr__(name: str):
    """``repro.<subpackage>`` on first touch (PEP 562): importing the thin
    layer — ``repro.core``, ``repro.plfs`` — must not import the simulator."""
    if name in __all__ and name != "__version__":
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
