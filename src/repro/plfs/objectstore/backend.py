"""``BackingStore`` implementation backed by the object store + tier.

Install via :func:`repro.plfs.backing.install` and the whole PLFS
library — droppings, meta, compacted index — runs unmodified over
object storage, which is the paper's thesis applied one layer down: the
*library* didn't change either.

Writes are write-through to local disk (the ``inner`` store, default
direct ``os`` calls) and then noted with the write-back tier, which
uploads dirty files under its constant policy (:mod:`.tier`).  ``fsync``
maps to a full tier drain: when PLFS asks for durability, every dirty
dropping must be in the object store, not merely on the local disk.
"""

from __future__ import annotations

import os

from repro.plfs import backing

from .store import ObjectStore
from .tier import PART_BYTES, WriteBackTier


class ObjectStoreBackingStore(backing.BackingStore):
    """Write-through local tier over an :class:`ObjectStore`.

    *root* is the directory whose files map to object keys (container
    parent); *inner* performs the local writes (default: the plain
    ``BackingStore``, i.e. direct ``os`` calls); *part_bytes* is the
    tier's multipart threshold.  The object-layer ops (``put_blob``/
    ``commit_key``/…) are inherited from the base class unchanged — they
    *are* the local blob-directory implementation — so a
    :class:`~repro.faults.injector.FaultyBackingStore` wrapped around
    this backend injects into both the dropping writes and the uploads.
    """

    def __init__(
        self,
        store: ObjectStore,
        root: str,
        inner: backing.BackingStore | None = None,
        *,
        part_bytes: int = PART_BYTES,
    ):
        self.store = store
        self.inner = inner or backing.BackingStore()
        self.tier = WriteBackTier(store, root, part_bytes=part_bytes)

    # ------------------------------------------------------------------ #
    # persistence surface: local write-through + tier accounting
    # ------------------------------------------------------------------ #

    def write_data(self, fd: int, buf, path: str) -> int:
        n = self.inner.write_data(fd, buf, path)
        self.tier.note_write(path, n)
        return n

    def write_datav(self, fd: int, buffers, path: str) -> int:
        n = self.inner.write_datav(fd, buffers, path)
        self.tier.note_write(path, n)
        return n

    def append_index(self, path: str, payload: bytes) -> int:
        n = self.inner.append_index(path, payload)
        self.tier.note_write(path, n)
        return n

    def create_meta(self, path: str) -> None:
        self.inner.create_meta(path)
        # zero bytes, but the (empty) meta dropping itself must reach the
        # object store — its *name* is the record
        self.tier.note_write(path, 0)

    def write_global_index(self, path: str, payload: bytes) -> None:
        self.inner.write_global_index(path, payload)
        self.tier.note_write(path, len(payload))

    def fsync(self, fd: int) -> None:
        """Local durability first, then the tier's sync barrier."""
        self.inner.fsync(fd)
        self.tier.drain()

    # object-layer ops (put_blob / write_part / commit_key / get_object)
    # are inherited: this backend IS the local blob directory, and the
    # ObjectStore reaches them through backing.current(), so an installed
    # FaultyBackingStore wrapper sees every upload.

    # ------------------------------------------------------------------ #

    def counters(self) -> dict[str, int]:
        """Tier + store stats merged (bench/insights surface)."""
        out = dict(self.tier.stats)
        out.update(self.store.stats)
        out["tier_dirty_bytes"] = self.tier.dirty_bytes()
        return out


def make_backend(root: str, store_root: str | None = None) -> ObjectStoreBackingStore:
    """Convenience constructor: an object store at *store_root* (default
    ``<root>.objects``) fronting the files under *root*."""
    store = ObjectStore(store_root or os.path.abspath(root) + ".objects")
    return ObjectStoreBackingStore(store, root)
