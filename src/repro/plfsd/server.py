"""The plfsd server: the paper's dedicated metadata server, and nothing more.

On §V.C's Lustre deployment one MDS orders every create while each rank
writes its droppings straight to the OSTs.  This daemon is that MDS: a
container create from any client process queues on one global metadata
lock, and the create-storm meltdown reproduces here, with real
containers, as queue wait on that lock (see :mod:`repro.plfsd.stress`).
No byte of data and no open handle ever lives in the daemon — a client
opens, writes and reads in its own process (:meth:`PlfsdClient.open
<repro.plfsd.client.PlfsdClient.open>`), and cross-process coherence is
the container's generation file, as for any two processes.

Every connection is an asyncio task whose requests run strictly in
order; the blocking create runs in the event loop's thread pool.  Each
acquisition of the lock is accounted as *queue wait* per client; the
:meth:`PlfsdServer.stats` snapshot (creates, queue wait, errors) is the
wire ``stats`` reply.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import os
import time
from functools import partial

from repro.plfs.container import Container

from . import protocol as proto


class _ClientStats:
    """Per-client accounting: the sensor substrate for online tuning."""

    __slots__ = (
        "id",
        "name",
        "creates",
        "queue_wait_seconds",
        "max_queue_wait_seconds",
        "errors",
    )

    def __init__(self, client_id: int):
        self.id = client_id
        self.name = f"client-{client_id}"
        self.creates = 0
        self.queue_wait_seconds = 0.0
        self.max_queue_wait_seconds = 0.0
        self.errors = 0

    def waited(self, seconds: float) -> None:
        self.queue_wait_seconds += seconds
        if seconds > self.max_queue_wait_seconds:
            self.max_queue_wait_seconds = seconds

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class PlfsdServer:
    """The asyncio metadata daemon behind one unix socket."""

    #: plfs-san registration (see repro.sanitize).  The client table is
    #: event-loop-confined (mutated only between awaits on the loop
    #: thread), not lock-guarded — the detector verifies exactly that
    _SANITIZE_SHARED = {"_clients": None}
    #: locks to wrap even though no registered field names them as guard
    _SANITIZE_LOCKS = ("_meta_lock",)

    def __init__(self, socket_path: str):
        self.socket_path = socket_path
        self._next_client = 1
        self._clients: dict[int, _ClientStats] = {}
        #: the "dedicated MDS": every create queues here
        self._meta_lock = asyncio.Lock()
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set = set()
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._started = time.monotonic()
        self.totals = {"connections": 0, "requests": 0}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Close connections by shutting their sockets (each task then
            # sees EOF and unwinds normally) rather than cancelling tasks
            # mid-request.
            for conn_writer in list(self._conn_writers):
                conn_writer.close()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        clients = list(self._clients.values())
        return {
            "server_pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "clients": len(clients),
            "totals": dict(self.totals),
            "aggregate": {
                "creates": sum(c.creates for c in clients),
                "queue_wait_seconds": sum(c.queue_wait_seconds for c in clients),
                "max_queue_wait_seconds": max(
                    (c.max_queue_wait_seconds for c in clients), default=0.0
                ),
                "errors": sum(c.errors for c in clients),
            },
            "per_client": [c.as_dict() for c in clients],
        }

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        self.totals["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        client_id = self._next_client
        self._next_client += 1
        client = self._clients[client_id] = _ClientStats(client_id)
        loop = asyncio.get_running_loop()
        try:
            while True:
                payload = await proto.read_frame_async(reader)
                if payload is None:
                    break
                try:
                    request = proto.decode_request(payload)
                except proto.ProtocolError:
                    break  # a garbled peer gets disconnected, not served
                self.totals["requests"] += 1
                try:
                    reply = await self._dispatch(loop, request, client)
                except Exception as exc:
                    client.errors += 1
                    reply = proto.encode_error(
                        request.request_id,
                        getattr(exc, "errno", None) or errno.EIO,
                        type(exc).__name__,
                        str(exc.args[1] if len(exc.args) > 1 else exc),
                    )
                writer.write(reply)
                await writer.drain()
        except (ConnectionError, proto.ProtocolError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch(self, loop, request, client: _ClientStats) -> bytes:
        op = request.opcode
        f = request.fields
        rid = request.request_id

        if op == proto.OP_CREATE:
            create = partial(
                Container(f["path"]).create,
                f["mode"] & 0o7777,
                exclusive=bool(f["exclusive"]),
                pid=os.getpid(),
            )
            t0 = time.monotonic()
            async with self._meta_lock:
                client.waited(time.monotonic() - t0)
                await loop.run_in_executor(None, create)
            client.creates += 1
            return proto.encode_reply(op, rid)

        if op == proto.OP_PING:
            return proto.encode_reply(op, rid, server_pid=os.getpid())

        if op == proto.OP_HELLO:
            if f["name"]:
                client.name = f["name"]
            return proto.encode_reply(
                op,
                rid,
                client_id=client.id,
                server_pid=os.getpid(),
                version=proto.VERSION,
            )

        if op == proto.OP_STATS:
            blob = json.dumps(self.stats(), sort_keys=True).encode("utf-8")
            return proto.encode_reply(op, rid, json=blob)

        assert op == proto.OP_SHUTDOWN  # decode_request refused the rest
        self.request_shutdown()
        return proto.encode_reply(op, rid)


# ---------------------------------------------------------------------- #
# entry point used by the CLI
# ---------------------------------------------------------------------- #


async def serve(socket_path: str) -> PlfsdServer:
    """Run a daemon until shutdown is requested.

    The plfs-san race detector arms from the environment first
    (``REPRO_SANITIZE`` / ``REPRO_SANITIZE_DIR``): a sanitized test
    session reaches into daemon subprocesses too, and violations come back
    in the exit report the pytest plugin sweeps.
    """
    from repro.sanitize import runtime as sanitize_runtime

    sanitize_runtime.enable_from_env()
    server = PlfsdServer(socket_path)
    await server.serve_forever()
    return server


__all__ = ["PlfsdServer", "serve"]
