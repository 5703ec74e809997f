"""S3-style object backend for PLFS containers, with write-back tiering.

Droppings map naturally to immutable objects (PAPERS.md, "Exploring
Scientific Application Performance Using Large Scale Object Storage"):
every dropping is written once by one writer and never rewritten.  This
package stores them content-addressed under ``blobs/`` with per-key
manifests under ``keys/``, fronts the store with a local write-back
tier whose flush policy is four constants in :mod:`.tier`, and plugs
the whole thing in as a :class:`~repro.plfs.backing.BackingStore` — the
PLFS library, the shim and the applications above them are unchanged,
which is the paper's thesis applied one layer down.

The tier is a cache; the object store is the authority.
"""

from .backend import ObjectStoreBackingStore, make_backend
from .store import MultipartUpload, ObjectInfo, ObjectStore, ObjectStoreError
from .tier import WriteBackTier

__all__ = [
    "MultipartUpload",
    "ObjectInfo",
    "ObjectStore",
    "ObjectStoreBackingStore",
    "ObjectStoreError",
    "WriteBackTier",
    "make_backend",
]
