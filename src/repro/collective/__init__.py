"""Real-path collective buffering and noncontiguous I/O.

The ROMIO two-phase engine (Thakur et al.) and list-I/O noncontiguous
access (Ching et al.) over the real PLFS API — the paper's §II
optimisations with real bytes instead of simulated clocks.  See
:class:`CollectiveFile` for the engine and :mod:`repro.collective.listio`
for the independent path.
"""

from .aggregator import Aggregator, partition_domains, split_extent
from .datatype import (
    ContiguousView,
    Extent,
    FileView,
    IrregularView,
    StridedView,
    coalesce,
    covering_runs,
    file_runs,
    interleaved_view,
)
from .file import CollectiveFile
from .listio import list_read, list_write

__all__ = [
    "Aggregator",
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
