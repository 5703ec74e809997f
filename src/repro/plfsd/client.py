"""The plfsd client: a synchronous shim speaking the daemon protocol.

:class:`PlfsdClient` is a thread-safe blocking client over one unix-socket
connection.  Its :meth:`~PlfsdClient.open` is the paper's data/metadata
split: a creating open sends the container create to the daemon (the
dedicated MDS, where creates serialize), then opens in-process — PLFS
never streams bytes through its metadata service, so the handle is an
ordinary :class:`repro.plfs.api.Plfs_fd` writing and reading droppings
from this process.  Unmodified scripts get this route purely because
their mount carries a ``daemon=<socket>`` option.

Fallback semantics: reaching the daemon is an *optimisation*, never a
requirement.  :func:`connect` and every request raise
:class:`PlfsdUnavailable` when the socket is missing, dead or silent for
:data:`TIMEOUT` seconds, and the interposition layer catches exactly that
to fall back to the ordinary in-process open (counted in shim stats as
``daemon_fallbacks``).
"""

from __future__ import annotations

import json
import os
import socket
import threading

from repro.plfs import api as plfs_api

from . import protocol as proto

#: Seconds a connect or a request may wait on the daemon.  Every request
#: is a short metadata exchange, so a daemon silent this long is stopped
#: or wedged, and the caller falls back rather than hang.
TIMEOUT = 5.0


class PlfsdUnavailable(ConnectionError):
    """No daemon is reachable at the socket — callers should fall back."""


def connect(socket_path: str, *, name: str = "") -> "PlfsdClient":
    """Connect and handshake, or raise :class:`PlfsdUnavailable`."""
    try:
        client = PlfsdClient(socket_path)
        client.hello(name or f"pid-{os.getpid()}")
    except (OSError, proto.ProtocolError) as exc:
        raise PlfsdUnavailable(
            f"no plfsd reachable at {socket_path!r}: {exc}"
        ) from None
    return client


class PlfsdClient:
    """One connection to a plfsd daemon (thread-safe, strictly ordered)."""

    def __init__(self, socket_path: str):
        self.socket_path = socket_path
        self._lock = threading.Lock()
        self._next_id = 1
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(TIMEOUT)
        try:
            self._sock.connect(socket_path)
        except OSError:
            self._sock.close()
            raise
        self.client_id: int | None = None
        self.server_pid: int | None = None
        self._closed = False

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
            except OSError as exc:  # socket.timeout included
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

    def __enter__(self) -> "PlfsdClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the metadata hop
    # ------------------------------------------------------------------ #

    def create(self, path: str, mode: int = 0o644, *, exclusive: bool = False) -> None:
        """Create the container at *path* in the daemon, under its meta
        lock; an existing one is no error unless *exclusive*."""
        self._request(
            proto.OP_CREATE,
            path=os.path.abspath(path),
            mode=mode & 0o7777,
            exclusive=int(exclusive),
        )

    def open(self, path: str, flags: int, mode: int = 0o644) -> plfs_api.Plfs_fd:
        """Open like :func:`repro.plfs.api.plfs_open`, with the create made
        by the daemon: ``O_CREAT`` sends one ``create`` (``O_EXCL`` makes
        it exclusive), and the open itself is in-process, without either
        flag.  An open that creates nothing never touches the daemon."""
        if flags & os.O_CREAT:
            self.create(path, mode, exclusive=bool(flags & os.O_EXCL))
        return plfs_api.plfs_open(path, flags & ~(os.O_CREAT | os.O_EXCL))
