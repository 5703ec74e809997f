"""``repro.mpiio`` — simulated MPI-IO stack.

Communicators, the four access methods the paper compares (plain MPI-IO,
PLFS-through-FUSE, PLFS-through-ROMIO, LDPLFS), the MPI-IO file object
with ROMIO-style two-phase collective buffering, and the pure two-phase
planner (:mod:`repro.mpiio.plan`) it shares with the real-bytes engine.
Names resolve on first touch (PEP 562), so ``repro.mpiio.hints`` and
``repro.mpiio.plan`` load without the simulator.
"""

_HOMES = {
    "MPIIOSimFile": "file",
    "MPIHints": "hints",
    "DEFAULT_HINTS": "hints",
    "AccessMethod": "methods",
    "MPIIO": "methods",
    "FUSE": "methods",
    "ROMIO": "methods",
    "LDPLFS": "methods",
    "ALL_METHODS": "methods",
    "PLFS_METHODS": "methods",
    "BY_NAME": "methods",
    "Communicator": "simmpi",
    "RankInfo": "simmpi",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)
