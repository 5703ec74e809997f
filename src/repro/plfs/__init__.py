"""``repro.plfs`` — a complete Parallel Log-structured File System in Python.

Implements the PLFS container format (Bent et al., SC'09; Fig. 1 of the
LDPLFS paper) on a real backend directory tree: log-structured data
droppings, index droppings, hostdir buckets, cached metadata, and the
user-level API of the paper's Listing 1.

Quick use::

    import os
    from repro import plfs

    fd = plfs.plfs_open("/tmp/backend/myfile", os.O_CREAT | os.O_WRONLY)
    plfs.plfs_write(fd, b"hello", 5, offset=0)
    plfs.plfs_close(fd)

Recovery invariant
------------------

Crash consistency rests on one ordering rule per dropping stream: data
bytes reach the data dropping before their index records reach the index
dropping.  A crash can therefore strand only a *suffix* of unindexed data
bytes; indexed content is never damaged.  ``repro-fsck`` truncates any torn
index tail to the last whole record, trims the unindexed data tail and
reports it unrecoverable (there is no record of its logical offsets), so
the container reads back exactly the prefix that was indexed — every byte
as of the last ``fsync``, which is all a flat file promises either.

The repair is :mod:`repro.plfs.fsck` (``repro-fsck``; its dry run is
:func:`plfs_check`, which loads on first touch); :mod:`repro.faults` holds
the fault matrix that exercises it.
"""

from .api import (
    OpenOptions,
    Plfs_fd,
    plfs_access,
    plfs_close,
    plfs_create,
    plfs_dump_index,
    plfs_exists,
    plfs_flatten_index,
    plfs_getattr,
    plfs_map,
    plfs_mkdir,
    plfs_open,
    plfs_read,
    plfs_read_into,
    plfs_readdir,
    plfs_ref,
    plfs_rename,
    plfs_rmdir,
    plfs_sync,
    plfs_trunc,
    plfs_unlink,
    plfs_write,
    plfs_writev,
)
from .container import Container, is_container
from .errors import (
    BadFlagsError,
    ContainerExistsError,
    ContainerNotFoundError,
    CorruptIndexError,
    IsAContainerError,
    NotAContainerError,
    PlfsError,
)
from .index import RECORD, ExtentMap, GlobalIndex, ReadSlice
from .reader import ReadFile
from .writer import WriteFile

__all__ = [
    "OpenOptions",
    "Plfs_fd",
    "Container",
    "is_container",
    "WriteFile",
    "ReadFile",
    "GlobalIndex",
    "ExtentMap",
    "ReadSlice",
    "RECORD",
    "PlfsError",
    "NotAContainerError",
    "ContainerNotFoundError",
    "ContainerExistsError",
    "BadFlagsError",
    "CorruptIndexError",
    "IsAContainerError",
    "plfs_open",
    "plfs_close",
    "plfs_ref",
    "plfs_read",
    "plfs_read_into",
    "plfs_write",
    "plfs_writev",
    "plfs_sync",
    "plfs_getattr",
    "plfs_access",
    "plfs_exists",
    "plfs_unlink",
    "plfs_create",
    "plfs_trunc",
    "plfs_rename",
    "plfs_mkdir",
    "plfs_rmdir",
    "plfs_readdir",
    "plfs_flatten_index",
    "plfs_map",
    "plfs_dump_index",
    "plfs_check",
]


def __getattr__(name: str):
    # PEP 562: the checker stays unloaded until asked for, so the
    # interposer's import does not pay for it
    if name == "plfs_check":
        from .fsck import plfs_check

        return plfs_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
