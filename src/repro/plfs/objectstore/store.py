"""An S3-style object store over a local content-addressed blob directory.

Objects are keyed by *container-relative dropping path* (what the
write-back tier hands us) and stored in two layers, the way real object
stores separate immutable data from the namespace:

``blobs/<sha256[:2]>/<sha256>``
    Immutable, content-addressed payload bytes.  Identical droppings
    share one blob (dedup is free); a blob is committed atomically via
    write-then-rename and never rewritten.
``keys/<key>``
    One small manifest per key — ``etag``/``size``/``parts`` — committed
    atomically via write-then-rename.  The manifest commit is the
    store's linearization point: until it lands, the object does not
    exist no matter how many blob bytes did.
``uploads/<id>/``
    Multipart staging: a ``KEY`` attribution file plus ``part.NNNNN``
    files.  A crash mid-upload leaves staging garbage and *no* committed
    key; ``repro-fsck``'s object reconcile pass sweeps it.

Every persistence operation — blob commit, part append, manifest commit,
blob read-back — routes through :mod:`repro.plfs.backing`, so the fault
injector can fire a lost PUT, a torn part, or a vanished GET at the same
seam it fires dropping faults.  GETs verify size *and* etag before
returning: a short or corrupt read surfaces as :class:`ObjectStoreError`,
never as silently wrong bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
from dataclasses import dataclass

from repro.plfs import backing

BLOBS_DIR = "blobs"
KEYS_DIR = "keys"
UPLOADS_DIR = "uploads"

#: attribution file inside a multipart staging directory
UPLOAD_KEY_FILE = "KEY"
PART_PREFIX = "part."


class ObjectStoreError(Exception):
    """A detected object-store inconsistency (corrupt or short object)."""


@dataclass(frozen=True)
class ObjectInfo:
    """What ``head``/``put`` report about one committed object."""

    key: str
    size: int
    etag: str
    parts: int = 1


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def check_key(key: str) -> str:
    """Validate a key: relative, normalized, confined to the store."""
    if not key or key.startswith(("/", "\\")):
        raise ValueError(f"object key must be relative: {key!r}")
    parts = key.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise ValueError(f"object key must be normalized: {key!r}")
    return key


def key_under(root: str, path: str) -> str | None:
    """The object key of *path* relative to the tiered *root*, or ``None``
    when *path* is not under it.  Only a ``..`` component leaves the
    root; a name that merely starts with ``..`` (``..ckpt``) is inside."""
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    if rel == os.pardir or rel.startswith(os.pardir + os.sep):
        return None
    return rel.replace(os.sep, "/")


class MultipartUpload:
    """One in-flight multipart upload (the S3 create/part/complete shape).

    Parts stage under ``uploads/<id>/``; :meth:`complete` assembles them,
    commits the blob and then the key manifest, and removes the staging
    directory.  An :class:`~repro.faults.injector.InjectedCrash` anywhere
    before the manifest commit leaves staged parts and no visible object —
    the torn-multipart failure mode the fault matrix exercises.
    """

    def __init__(self, store: "ObjectStore", key: str, upload_id: str):
        self.store = store
        self.key = key
        self.dir = os.path.join(store.root, UPLOADS_DIR, upload_id)
        os.makedirs(self.dir)
        # Attribution is bookkeeping, not a crash-relevant persist: fsck
        # only needs it to scope sweeps to one container's prefix.
        with open(os.path.join(self.dir, UPLOAD_KEY_FILE), "w") as fh:
            fh.write(key + "\n")
        self.parts = 0
        self.size = 0
        self._sha = hashlib.sha256()

    def write_part(self, payload: bytes) -> int:
        """Append one part; parts are numbered in arrival order."""
        payload = bytes(payload)
        path = os.path.join(self.dir, f"{PART_PREFIX}{self.parts:05d}")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            n = backing.current().write_part(fd, payload, path)
        finally:
            os.close(fd)
        if n != len(payload):
            raise ObjectStoreError(
                f"short part write for {self.key!r}: {n}/{len(payload)} bytes"
            )
        self.parts += 1
        self.size += n
        self._sha.update(payload)
        self.store.stats["object_parts"] += 1
        return n

    def complete(self) -> ObjectInfo:
        """Assemble the parts into one blob and commit the key."""
        chunks: list[bytes] = []
        for i in range(self.parts):
            path = os.path.join(self.dir, f"{PART_PREFIX}{i:05d}")
            with open(path, "rb") as fh:
                chunks.append(fh.read())
        payload = b"".join(chunks)
        if len(payload) != self.size or _sha256(payload) != self._sha.hexdigest():
            raise ObjectStoreError(
                f"multipart staging for {self.key!r} does not match the "
                f"uploaded parts ({len(payload)}/{self.size} bytes on disk)"
            )
        info = self.store._commit(self.key, payload, parts=max(1, self.parts))
        shutil.rmtree(self.dir, ignore_errors=True)
        return info

    def abort(self) -> None:
        """Drop the staging directory (the explicit-abort path)."""
        shutil.rmtree(self.dir, ignore_errors=True)


class ObjectStore:
    """``put``/``get``/``list``/``delete`` over a local blob directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        for sub in (BLOBS_DIR, KEYS_DIR, UPLOADS_DIR):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self._upload_seq = itertools.count()
        self.stats: dict[str, int] = {
            "object_puts": 0,
            "object_put_bytes": 0,
            "object_multipart_uploads": 0,
            "object_parts": 0,
            "object_dedup_hits": 0,
            "object_gets": 0,
            "object_get_bytes": 0,
            "object_deletes": 0,
        }

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    def _blob_path(self, etag: str) -> str:
        return os.path.join(self.root, BLOBS_DIR, etag[:2], etag)

    def _key_path(self, key: str) -> str:
        return os.path.join(self.root, KEYS_DIR, check_key(key))

    # ------------------------------------------------------------------ #
    # the S3-ish surface
    # ------------------------------------------------------------------ #

    def put(self, key: str, payload: bytes, *, part_size: int | None = None) -> ObjectInfo:
        """Store *payload* under *key*; multipart when it exceeds
        *part_size* (the tier passes its part size here, so a dropping
        larger than one part uploads in bounded pieces)."""
        payload = bytes(payload)
        check_key(key)
        if part_size and len(payload) > part_size:
            upload = self.create_multipart(key)
            try:
                for i in range(0, len(payload), part_size):
                    upload.write_part(payload[i : i + part_size])
                return upload.complete()
            except OSError:
                # A *surviving* writer cleans up after an errored upload;
                # an InjectedCrash (BaseException) gets no such chance —
                # exactly like the real SIGKILL that leaves torn staging.
                upload.abort()
                raise
        return self._commit(key, payload, parts=1)

    def create_multipart(self, key: str) -> MultipartUpload:
        check_key(key)
        self.stats["object_multipart_uploads"] += 1
        upload_id = (
            f"{hashlib.sha1(key.encode()).hexdigest()[:12]}"
            f".{os.getpid()}.{next(self._upload_seq)}"
        )
        return MultipartUpload(self, key, upload_id)

    def get(self, key: str) -> bytes:
        """Read an object back, verifying size and etag end to end."""
        info = self.head(key)
        if info is None:
            raise FileNotFoundError(f"no such object: {key!r}")
        blob = self._blob_path(info.etag)
        try:
            payload = backing.current().get_object(blob, key)
        except FileNotFoundError as exc:
            raise ObjectStoreError(
                f"object {key!r} committed but its blob {info.etag[:12]}… "
                "is missing (a lost blob PUT)"
            ) from exc
        if len(payload) != info.size or _sha256(payload) != info.etag:
            raise ObjectStoreError(
                f"object {key!r} is corrupt: {len(payload)}/{info.size} "
                "bytes or etag mismatch"
            )
        self.stats["object_gets"] += 1
        self.stats["object_get_bytes"] += len(payload)
        return payload

    def head(self, key: str) -> ObjectInfo | None:
        """Manifest lookup without reading the blob (``None`` = no object)."""
        try:
            with open(self._key_path(key), "r") as fh:
                raw = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        fields = dict(
            line.split(" ", 1) for line in raw.splitlines() if " " in line
        )
        try:
            return ObjectInfo(
                key=key,
                size=int(fields["size"]),
                etag=fields["etag"].strip(),
                parts=int(fields.get("parts", "1")),
            )
        except (KeyError, ValueError) as exc:
            raise ObjectStoreError(f"unparseable manifest for {key!r}") from exc

    def list(self, prefix: str = "") -> list[str]:
        """All committed keys under *prefix*, sorted."""
        base = os.path.join(self.root, KEYS_DIR)
        out: list[str] = []
        for dirpath, _, names in os.walk(base):
            for name in names:
                key = os.path.relpath(os.path.join(dirpath, name), base)
                if not key.startswith(prefix):
                    continue
                if ".tmp." in name:
                    continue  # an in-flight manifest commit, not an object
                out.append(key)
        return sorted(out)

    def delete(self, key: str) -> bool:
        """Remove a key's manifest (blobs may be shared; they stay until
        :meth:`sweep_blobs`).  Missing keys are not an error — deletes
        must be idempotent for the tier's vanished-file sync."""
        try:
            os.unlink(self._key_path(key))
        except FileNotFoundError:
            return False
        self.stats["object_deletes"] += 1
        return True

    # ------------------------------------------------------------------ #
    # maintenance (repro-fsck's reconcile pass)
    # ------------------------------------------------------------------ #

    def pending_uploads(self) -> list[tuple[str, str | None]]:
        """In-flight (or torn) multipart staging dirs as ``(path, key)``;
        *key* is ``None`` when even the attribution file is unreadable."""
        base = os.path.join(self.root, UPLOADS_DIR)
        out: list[tuple[str, str | None]] = []
        for name in sorted(os.listdir(base)):
            d = os.path.join(base, name)
            if not os.path.isdir(d):
                continue
            key: str | None = None
            try:
                with open(os.path.join(d, UPLOAD_KEY_FILE)) as fh:
                    key = fh.read().strip() or None
            except OSError:
                pass
            out.append((d, key))
        return out

    def stray_temporaries(self) -> list[str]:
        """Leftover ``*.tmp.<pid>`` files from crashed blob/manifest
        commits (invisible to readers, but disk they hold is real)."""
        out: list[str] = []
        for sub in (BLOBS_DIR, KEYS_DIR):
            base = os.path.join(self.root, sub)
            for dirpath, _, names in os.walk(base):
                for name in names:
                    if ".tmp." in name:
                        out.append(os.path.join(dirpath, name))
        return sorted(out)

    def sweep_blobs(self) -> int:
        """Delete blobs no committed manifest references; returns count."""
        referenced = set()
        for key in self.list():
            info = self.head(key)
            if info is not None:
                referenced.add(info.etag)
        swept = 0
        base = os.path.join(self.root, BLOBS_DIR)
        for dirpath, _, names in os.walk(base):
            for name in names:
                if name not in referenced and ".tmp." not in name:
                    os.unlink(os.path.join(dirpath, name))
                    swept += 1
        return swept

    # ------------------------------------------------------------------ #

    def _commit(self, key: str, payload: bytes, *, parts: int) -> ObjectInfo:
        """Blob first, then the manifest: the commit order every failure
        mode in the matrix leans on (a lost manifest commit orphans a
        blob; it never exposes a key without bytes behind it... unless
        the blob PUT itself was lost, which GET's etag check catches)."""
        etag = _sha256(payload)
        blob = self._blob_path(etag)
        if os.path.exists(blob):
            self.stats["object_dedup_hits"] += 1
        else:
            os.makedirs(os.path.dirname(blob), exist_ok=True)
            n = backing.current().put_blob(blob, payload, key)
            if n != len(payload):
                raise ObjectStoreError(
                    f"short blob write for {key!r}: {n}/{len(payload)} bytes"
                )
        manifest = self._key_path(key)
        os.makedirs(os.path.dirname(manifest), exist_ok=True)
        body = f"etag {etag}\nsize {len(payload)}\nparts {parts}\n".encode()
        backing.current().commit_key(manifest, body, key)
        self.stats["object_puts"] += 1
        self.stats["object_put_bytes"] += len(payload)
        return ObjectInfo(key=key, size=len(payload), etag=etag, parts=parts)
