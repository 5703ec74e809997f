"""The plfsd client: a synchronous shim speaking the daemon protocol.

:class:`PlfsdClient` is a thread-safe blocking client over one unix-socket
connection.  :class:`RemoteFd` is the daemon-backed counterpart of
:class:`repro.plfs.api.Plfs_fd`: the ``plfs_*`` API functions dispatch on
``is_remote``, so everything above them — the interposition shim, the fd
table, buffered ``builtins.open`` wrappers — works unchanged whether a
handle is in-process or daemon-held.  That is the whole point: unmodified
scripts route through the daemon purely because their mount carries a
``daemon=<socket>`` option.

Fallback semantics: reaching the daemon is an *optimisation*, never a
requirement.  :func:`connect` raises :class:`PlfsdUnavailable` when the
socket is missing or dead, and the interposition layer catches exactly
that to fall back to the ordinary in-process path (counted in shim stats
as ``daemon_fallbacks``).  Container bytes live on a filesystem both
paths can see; coherence between daemon-held and direct handles is the
PR-5 generation-file protocol, not the socket.
"""

from __future__ import annotations

import errno
import os
import socket
import stat as stat_module
import threading
from collections import deque

from repro.plfs.api import access_mode
from repro.plfs.reader import byte_view

from . import protocol as proto

#: Cap one wire write; larger application writes are split client-side
#: (the daemon appends each chunk at the right logical offset, so the
#: split is invisible — same guarantee the shim's short-write resumption
#: gives the direct path).
MAX_WIRE_WRITE = proto.MAX_FRAME - 4096

# Shared-memory data plane geometry (see repro.plfsd.shm).  Appends at or
# above the threshold park their payload in a client-owned shm segment of
# SHM_SLOTS slots and send only a descriptor — large writes never cross
# the socket.  Below the threshold the bookkeeping costs more than the
# wire copy saves.
from .shm import SHM_SLOT_BYTES, SHM_SLOTS, SHM_THRESHOLD, try_create_pool


class PlfsdUnavailable(ConnectionError):
    """No daemon is reachable at the socket — callers should fall back."""


def connect(socket_path: str, *, timeout: float = 5.0, name: str = "") -> "PlfsdClient":
    """Connect and handshake, or raise :class:`PlfsdUnavailable`."""
    try:
        client = PlfsdClient(socket_path, timeout=timeout)
        client.hello(name or f"pid-{os.getpid()}")
    except (OSError, proto.ProtocolError) as exc:
        raise PlfsdUnavailable(
            f"no plfsd reachable at {socket_path!r}: {exc}"
        ) from None
    return client


class PlfsdClient:
    """One connection to a plfsd daemon (thread-safe, strictly ordered)."""

    def __init__(self, socket_path: str, *, timeout: float = 5.0):
        self.socket_path = socket_path
        self._lock = threading.Lock()
        self._next_id = 1
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(socket_path)
        except OSError:
            self._sock.close()
            raise
        # Requests block for their reply; pure I/O waits should not be
        # clipped by the connect timeout.
        self._sock.settimeout(None)
        self.client_id: int | None = None
        self.server_pid: int | None = None
        self._closed = False
        self._shm = None
        self._shm_failed = False

    # ------------------------------------------------------------------ #

    def _request(self, opcode: int, **fields) -> dict:
        with self._lock:
            if self._closed:
                raise PlfsdUnavailable("client connection is closed")
            request_id = self._next_id
            self._next_id += 1
            try:
                self._sock.sendall(
                    proto.encode_request(opcode, request_id, **fields)
                )
                payload = proto.read_frame_sync(self._sock)
            except OSError as exc:
                self.close()
                raise PlfsdUnavailable(f"daemon connection lost: {exc}") from None
            if payload is None:
                self.close()
                raise PlfsdUnavailable("daemon closed the connection")
        reply = proto.decode_reply(payload, opcode)
        if reply.request_id != request_id:
            raise proto.ProtocolError(
                f"reply id {reply.request_id} != request id {request_id}"
            )
        if not reply.ok:
            proto.raise_remote(reply)
        return reply.fields

    # ------------------------------------------------------------------ #
    # shared-memory data plane
    # ------------------------------------------------------------------ #

    @staticmethod
    def _destroy_shm(seg) -> None:
        for fn in (seg.close, seg.unlink):
            try:
                fn()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass

    def _attach_shm_locked(self) -> None:
        """Create the segment and register it with the daemon.

        Must be called with ``self._lock`` held and no requests in flight:
        the exchange speaks on the raw socket because ``_request`` would
        deadlock on the non-reentrant lock.  Failure is never fatal —
        ``_shm_failed`` pins this connection to the wire path.
        """
        if self._shm is not None or self._shm_failed:
            return
        seg = try_create_pool()
        if seg is None:
            self._shm_failed = True
            return
        rid = self._next_id
        self._next_id += 1
        try:
            self._sock.sendall(
                proto.encode_request(
                    proto.OP_ATTACH_SHM, rid, name=seg.name, size=seg.size
                )
            )
            payload = proto.read_frame_sync(self._sock)
        except OSError as exc:
            self._destroy_shm(seg)
            self.close()
            raise PlfsdUnavailable(f"daemon connection lost: {exc}") from None
        if payload is None:
            self._destroy_shm(seg)
            self.close()
            raise PlfsdUnavailable("daemon closed the connection")
        reply = proto.decode_reply(payload, proto.OP_ATTACH_SHM)
        if reply.request_id != rid:
            self._destroy_shm(seg)
            raise proto.ProtocolError(
                f"reply id {reply.request_id} != request id {rid}"
            )
        if not reply.ok:
            # The daemon refused (``--no-shm``, or its attach failed):
            # payloads stay on the wire for the life of this connection.
            self._destroy_shm(seg)
            self._shm_failed = True
            return
        self._shm = seg

    # ------------------------------------------------------------------ #
    # session
    # ------------------------------------------------------------------ #

    def hello(self, name: str = "") -> dict:
        fields = self._request(proto.OP_HELLO, name=name)
        self.client_id = fields["client_id"]
        self.server_pid = fields["server_pid"]
        return fields

    def ping(self) -> int:
        return self._request(proto.OP_PING)["server_pid"]

    def stats(self) -> dict:
        import json

        return json.loads(self._request(proto.OP_STATS)["json"])

    def shutdown_server(self) -> None:
        self._request(proto.OP_SHUTDOWN)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
            if self._shm is not None:
                seg, self._shm = self._shm, None
                self._destroy_shm(seg)

    def __enter__(self) -> "PlfsdClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # file operations
    # ------------------------------------------------------------------ #

    def open(self, path: str, flags: int, mode: int = 0o644) -> "RemoteFd":
        fields = self._request(
            proto.OP_OPEN, path=path, flags=flags, mode=mode & 0o7777
        )
        return RemoteFd(self, fields["handle"], path, flags)

    def open_delegated(self, path: str, flags: int, mode: int = 0o644):
        """Metadata through the daemon, data on the direct path.

        PLFS never streams bytes through its metadata service — on the
        paper's Lustre deployment the dedicated MDS orders creates while
        every rank writes its droppings straight to the OSTs.  This is
        that split: the daemon performs the (serialized) container
        create, then the caller gets an ordinary in-process writer whose
        droppings go to the backend at direct-path speed.  Generation
        files keep daemon-held readers coherent with this foreign writer
        exactly as with any other direct-path process.

        Only pure ``O_WRONLY`` handles qualify (readers want the daemon's
        shared index cache; ``O_EXCL`` needs the atomic remote create).
        Returns a local :class:`repro.plfs.api.Plfs_fd`.
        """
        if (flags & os.O_ACCMODE) != os.O_WRONLY or flags & os.O_EXCL:
            raise ValueError(
                "delegated opens are plain write-only (no O_EXCL)"
            )
        from repro.plfs import api as plfs_api

        if flags & os.O_CREAT:
            self.create(path, mode)  # the MDS hop: daemon meta lock
        return plfs_api.plfs_open(
            path, flags & ~os.O_CREAT, os.getpid(), mode & 0o7777
        )

    def create(self, path: str, mode: int = 0o644) -> None:
        self._request(proto.OP_CREATE, path=path, mode=mode & 0o7777)

    def unlink(self, path: str) -> None:
        self._request(proto.OP_UNLINK, path=path)

    def write(self, handle: int, data, offset: int) -> int:
        return self.write_many(handle, (data,), offset)

    def write_many(
        self, handle: int, chunks, offset: int, *, window: int = 8
    ) -> int:
        """Pipelined contiguous appends: stream *chunks* starting at
        *offset* with up to *window* requests in flight before collecting
        replies.  The server still executes strictly in order per
        connection; pipelining only hides the socket transfer of chunk
        N+1 under the disk write of chunk N.  The window also bounds the
        reply backlog, so the daemon can never block writing replies while
        we block sending requests.  Returns total bytes acknowledged;
        any error reply aborts the stream and re-raises.

        Pieces of at least :data:`SHM_THRESHOLD` bytes travel through the
        shared-memory data plane when the daemon accepts one: the payload
        is copied into a free slot of the client-owned segment and only a
        16-byte descriptor crosses the socket (``OP_WRITE_SHM``).  A slot
        is reusable once its reply arrives — strict per-connection
        ordering guarantees the daemon is done with the pages by then.
        """
        inflight: deque[int] = deque()
        slot_of: dict[int, int] = {}
        remote_errors: list[BaseException] = []
        acked = 0

        def lost(exc) -> PlfsdUnavailable:
            self.close()
            return PlfsdUnavailable(f"daemon connection lost: {exc}")

        def collect_one() -> None:
            # A failed append is remembered, not raised: the replies for
            # requests already in flight must still be drained, or the
            # connection would desync for every later request.
            nonlocal acked
            rid = inflight.popleft()
            try:
                payload = proto.read_frame_sync(self._sock)
            except OSError as exc:
                raise lost(exc) from None
            if payload is None:
                self.close()
                raise PlfsdUnavailable("daemon closed the connection")
            # OP_WRITE and OP_WRITE_SHM share one reply shape (written u64),
            # so a single decode covers both.
            reply = proto.decode_reply(payload, proto.OP_WRITE)
            if reply.request_id != rid:
                raise proto.ProtocolError(
                    f"reply id {reply.request_id} != request id {rid}"
                )
            slot = slot_of.pop(rid, None)
            if slot is not None:
                self._shm.release(slot)
            if not reply.ok:
                try:
                    proto.raise_remote(reply)
                except OSError as exc:
                    remote_errors.append(exc)
                return
            acked += reply.fields["written"]

        with self._lock:
            if self._closed:
                raise PlfsdUnavailable("client connection is closed")
            sent = 0
            for chunk in chunks:
                if remote_errors:
                    break  # stop streaming; drain what's in flight below
                view = byte_view(chunk)
                start = 0
                while True:
                    take = min(len(view) - start, MAX_WIRE_WRITE)
                    use_shm = False
                    if take >= SHM_THRESHOLD and not self._shm_failed:
                        if self._shm is None:
                            # Attach speaks on the raw socket; the pipeline
                            # must be empty or replies would interleave.
                            while inflight:
                                collect_one()
                            self._attach_shm_locked()
                        if self._shm is not None:
                            while not self._shm.available and inflight:
                                collect_one()
                            if self._shm.available:
                                use_shm = True
                                take = min(take, self._shm.slot_bytes)
                    piece = view[start : start + take]
                    rid = self._next_id
                    self._next_id += 1
                    if use_shm:
                        slot, base, _staged = self._shm.stage(piece)
                        frame = proto.encode_request(
                            proto.OP_WRITE_SHM,
                            rid,
                            handle=handle,
                            offset=offset + sent,
                            shm_off=base,
                            count=take,
                        )
                        slot_of[rid] = slot
                    else:
                        frame = proto.encode_request(
                            proto.OP_WRITE,
                            rid,
                            handle=handle,
                            offset=offset + sent,
                            data=bytes(piece),
                        )
                    try:
                        self._sock.sendall(frame)
                    except OSError as exc:
                        raise lost(exc) from None
                    inflight.append(rid)
                    sent += take
                    start += take
                    while len(inflight) >= window:
                        collect_one()
                    if start >= len(view):
                        break
            while inflight:
                collect_one()
        if remote_errors:
            raise remote_errors[0]
        return acked

    def read(self, handle: int, count: int, offset: int) -> bytes:
        return self._request(
            proto.OP_READ, handle=handle, offset=offset, count=count
        )["data"]

    def sync(self, handle: int) -> None:
        self._request(proto.OP_SYNC, handle=handle)

    def getattr(self, handle: int) -> dict:
        return self._request(proto.OP_GETATTR, handle=handle)

    def trunc(self, handle: int, offset: int) -> None:
        self._request(proto.OP_TRUNC, handle=handle, offset=offset)

    def close_handle(self, handle: int) -> int:
        return self._request(proto.OP_CLOSE, handle=handle)["refs"]


class RemoteFd:
    """Daemon-held counterpart of :class:`~repro.plfs.api.Plfs_fd`.

    Reference counted like the local handle (LDPLFS layers may share one
    handle across descriptors); the final close releases the daemon slot.
    The ``plfs_*`` functions in :mod:`repro.plfs.api` detect ``is_remote``
    and delegate here, so the shim and fd table never branch.
    """

    is_remote = True

    def __init__(self, client: PlfsdClient, handle: int, path: str, flags: int):
        self.client = client
        self.handle = handle
        self.path = path
        self.flags = flags
        self.readable, self.writable = access_mode(flags)
        self.refs = 1
        self.pid = os.getpid()

    # --- the surface plfs.api dispatches to --------------------------- #

    def write(self, buf, count: int | None = None, offset: int = 0) -> int:
        if not self.writable:
            raise OSError(errno.EBADF, "handle not open for writing")
        if count is not None:
            buf = byte_view(buf)[:count]
        return self.client.write(self.handle, buf, offset)

    def writev(self, buffers, offset: int = 0) -> int:
        # The buffers cover one contiguous span: one wire frame carries
        # them joined (the daemon's vectored index merge still applies —
        # a single contiguous append produces one merged record).
        joined = b"".join(bytes(b) for b in buffers)
        if not joined:
            return 0
        return self.write(joined, None, offset)

    def read(self, count: int, offset: int) -> bytes:
        if not self.readable:
            raise OSError(errno.EBADF, "handle not open for reading")
        return self.client.read(self.handle, count, offset)

    def read_into(self, buf, offset: int) -> int:
        view = byte_view(buf)
        data = self.read(len(view), offset)
        view[: len(data)] = data
        return len(data)

    def sync(self) -> None:
        self.client.sync(self.handle)

    def getattr(self) -> os.stat_result:
        fields = self.client.getattr(self.handle)
        mtime = fields["mtime_ns"] // 1_000_000_000
        return os.stat_result(
            (
                fields["mode"] or (stat_module.S_IFREG | 0o644),
                0,
                0,
                1,
                os.getuid() if hasattr(os, "getuid") else 0,
                os.getgid() if hasattr(os, "getgid") else 0,
                fields["size"],
                mtime,
                mtime,
                mtime,
            )
        )

    def trunc(self, offset: int = 0) -> None:
        self.client.trunc(self.handle, offset)

    def close(self) -> int:
        self.refs -= 1
        if self.refs > 0:
            return self.refs
        if self.refs < 0:  # idempotent double close, like the local path
            self.refs = 0
            return 0
        self.client.close_handle(self.handle)
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteFd handle={self.handle} path={self.path!r}>"
