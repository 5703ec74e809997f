"""Real-path collective buffering and noncontiguous I/O.

The ROMIO two-phase engine (Thakur et al.) and list-I/O noncontiguous
access (Ching et al.) over the real PLFS API — the paper's §II
optimisations with real bytes instead of simulated clocks.  See
:class:`CollectiveFile` for the engine (the executor of
:mod:`repro.mpiio.plan`) and :mod:`repro.collective.listio` for the
independent path.
"""

from repro.mpiio.plan import Extent, file_runs, partition_domains, split_extent

from .datatype import (
    ContiguousView,
    FileView,
    IrregularView,
    StridedView,
    coalesce,
    covering_runs,
    interleaved_view,
)
from .file import CollectiveFile
from .listio import list_read, list_write

__all__ = [
    "CollectiveFile",
    "ContiguousView",
    "Extent",
    "FileView",
    "IrregularView",
    "StridedView",
    "coalesce",
    "covering_runs",
    "file_runs",
    "interleaved_view",
    "list_read",
    "list_write",
    "partition_domains",
    "split_extent",
]
