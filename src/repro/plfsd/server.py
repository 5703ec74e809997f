"""The plfsd server: one daemon owning containers for many client processes.

Concurrency model ("serialize writers, share read cache"):

- Every connection is an asyncio task; requests *within* one connection
  are processed strictly in order (a handle belongs to one connection, so
  no handle ever races with itself).
- **Metadata operations** — container create, open, unlink, trunc — are
  serialized through one global metadata lock.  This is deliberate
  modelling, not an accident: the daemon *is* the dedicated metadata
  service of the paper's §V.C Lustre deployment, and the create-storm
  meltdown reproduces exactly here, with real bytes, as queue-wait on
  this lock (see :mod:`repro.plfsd.stress`).
- **Writer state** is serialized per container: appends to one logical
  file queue on that container's lock (each client handle still gets its
  own dropping stream — PLFS's per-writer partitioning is preserved — but
  index visibility and generation bumps are ordered).
- **Reads** take no daemon lock at all: they ride the process-wide shared
  index cache (:mod:`repro.plfs.cache`), which is internally locked and
  epoch-validated, so thousands of read handles share one global index
  per container.

Blocking PLFS calls run in the event loop's thread pool so a slow disk
operation on one container never stalls requests for another.

Every lock acquisition is accounted as *queue wait* per client; the
:meth:`PlfsdServer.stats` snapshot (opens, appends, bytes, queue-wait,
reaped fds) is the wire ``stats`` reply and feeds
:func:`repro.insights.metrics.export_runtime_counters`.

Direct-path coherence: daemon writers flush through the ordinary write
path, which bumps the per-container generation file (PR 5), so a reader
in *any* process — through the daemon or not — revalidates its cached
index with one ``fstat`` of the generation file it holds open.

Fault injection propagates into the daemon like into any subprocess:
:func:`serve` arms an injector from ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED``
when present, so fault-matrix tests can torture the daemon's persistence
boundaries without patching it.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import os
import time

from repro.plfs import api as plfs_api

from . import protocol as proto

#: Close a daemon-held read handle's cached data-dropping descriptors
#: after this many seconds without a read (long-lived clients must not
#: pin one fd per dropping forever — see ReadFile.reap_idle_fds).
DEFAULT_IDLE_TIMEOUT = 30.0

#: How often the reaper task sweeps idle handles.
DEFAULT_REAP_INTERVAL = 5.0


class _ClientStats:
    """Per-client accounting: the sensor substrate for online tuning."""

    __slots__ = (
        "name",
        "opens",
        "creates",
        "closes",
        "appends",
        "reads",
        "bytes_written",
        "bytes_read",
        "queue_wait_seconds",
        "max_queue_wait_seconds",
        "errors",
    )

    def __init__(self, name: str):
        self.name = name
        self.opens = 0
        self.creates = 0
        self.closes = 0
        self.appends = 0
        self.reads = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.queue_wait_seconds = 0.0
        self.max_queue_wait_seconds = 0.0
        self.errors = 0

    def waited(self, seconds: float) -> None:
        self.queue_wait_seconds += seconds
        if seconds > self.max_queue_wait_seconds:
            self.max_queue_wait_seconds = seconds

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "opens": self.opens,
            "creates": self.creates,
            "closes": self.closes,
            "appends": self.appends,
            "reads": self.reads,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "queue_wait_seconds": self.queue_wait_seconds,
            "max_queue_wait_seconds": self.max_queue_wait_seconds,
            "errors": self.errors,
        }


class _Handle:
    """One daemon-side open handle (owned by exactly one connection)."""

    __slots__ = ("id", "plfs_fd", "path", "client", "last_used")

    def __init__(self, handle_id: int, plfs_fd, path: str, client: _ClientStats):
        self.id = handle_id
        self.plfs_fd = plfs_fd
        self.path = path
        self.client = client
        self.last_used = time.monotonic()

    def touch(self) -> None:
        self.last_used = time.monotonic()


class PlfsdServer:
    """The asyncio container daemon behind one unix socket."""

    #: plfs-san registration (see repro.sanitize).  All three tables are
    #: event-loop-confined (mutated only between awaits on the loop
    #: thread), not lock-guarded — the detector verifies exactly that
    _SANITIZE_SHARED = {"_handles": None, "_clients": None, "_writer_locks": None}
    #: locks to wrap even though no registered field names them as guard
    _SANITIZE_LOCKS = ("_meta_lock",)

    def __init__(
        self,
        socket_path: str,
        *,
        open_options: plfs_api.OpenOptions | None = None,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        reap_interval: float = DEFAULT_REAP_INTERVAL,
        allow_shm: bool = True,
    ):
        self.socket_path = socket_path
        self.open_options = open_options
        self.idle_timeout = idle_timeout
        self.reap_interval = reap_interval
        self.allow_shm = allow_shm
        self._handles: dict[int, _Handle] = {}
        self._next_handle = 1
        self._next_client = 1
        self._clients: dict[int, _ClientStats] = {}
        #: the "dedicated MDS": every metadata operation queues here
        self._meta_lock = asyncio.Lock()
        #: per-container writer serialization
        self._writer_locks: dict[str, asyncio.Lock] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set = set()
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._started = time.monotonic()
        self.totals = {
            "connections": 0,
            "requests": 0,
            "fds_reaped": 0,
            "handles_reclaimed_after_error": 0,
            "shm_attaches": 0,
            "shm_appends": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        # The default StreamReader limit is 64 KiB; a full-size write frame
        # would then cross the event loop dozens of times.  Size the buffer
        # to hold one maximal frame so large appends arrive in one pass.
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=proto.MAX_FRAME + 4096,
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        reaper = asyncio.ensure_future(self._reaper_loop())
        try:
            await self._shutdown.wait()
        finally:
            reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reaper
            self._server.close()
            await self._server.wait_closed()
            # Close connections by shutting their sockets (each task then
            # sees EOF and unwinds normally) rather than cancelling tasks
            # mid-request.
            for conn_writer in list(self._conn_writers):
                conn_writer.close()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            await self._close_all_handles()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def _close_all_handles(self) -> None:
        """Release every open handle.  ``plfs_close`` is idempotent and
        exception-safe, so one writer failing mid-close can never strand
        the remaining slots."""
        loop = asyncio.get_running_loop()
        for handle in list(self._handles.values()):
            self._handles.pop(handle.id, None)
            try:
                await loop.run_in_executor(None, plfs_api.plfs_close, handle.plfs_fd)
            except OSError:
                self.totals["handles_reclaimed_after_error"] += 1

    # ------------------------------------------------------------------ #
    # the idle-handle reaper
    # ------------------------------------------------------------------ #

    async def _reaper_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval)
            self.totals["fds_reaped"] += self.reap_idle_fds()

    def reap_idle_fds(self, idle_timeout: float | None = None) -> int:
        """Close cached data-dropping descriptors of handles idle longer
        than the timeout.  Returns the number of descriptors closed.  The
        handles stay open — a later read transparently reopens what it
        needs — so this only sheds kernel fds, never state."""
        timeout = self.idle_timeout if idle_timeout is None else idle_timeout
        now = time.monotonic()
        reaped = 0
        for handle in list(self._handles.values()):
            if now - handle.last_used < timeout:
                continue
            reader = handle.plfs_fd._reader
            if reader is not None:
                reaped += reader.reap_idle_fds(0.0)
        return reaped

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        clients = [c.as_dict() for c in self._clients.values()]
        agg = {
            "opens": sum(c.opens for c in self._clients.values()),
            "creates": sum(c.creates for c in self._clients.values()),
            "closes": sum(c.closes for c in self._clients.values()),
            "appends": sum(c.appends for c in self._clients.values()),
            "reads": sum(c.reads for c in self._clients.values()),
            "bytes_written": sum(c.bytes_written for c in self._clients.values()),
            "bytes_read": sum(c.bytes_read for c in self._clients.values()),
            "queue_wait_seconds": sum(
                c.queue_wait_seconds for c in self._clients.values()
            ),
            "max_queue_wait_seconds": max(
                (c.max_queue_wait_seconds for c in self._clients.values()),
                default=0.0,
            ),
            "errors": sum(c.errors for c in self._clients.values()),
        }
        return {
            "server_pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "open_handles": len(self._handles),
            "clients": len(self._clients),
            "totals": dict(self.totals),
            "aggregate": agg,
            "per_client": clients,
        }

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    def _writer_lock(self, path: str) -> asyncio.Lock:
        lock = self._writer_locks.get(path)
        if lock is None:
            lock = self._writer_locks[path] = asyncio.Lock()
        return lock

    @contextlib.asynccontextmanager
    async def _locked(self, lock: asyncio.Lock, client: _ClientStats):
        """Hold *lock*, accounting the acquisition wait as queue time."""
        t0 = time.monotonic()
        async with lock:
            client.waited(time.monotonic() - t0)
            yield

    async def _handle_connection(self, reader, writer) -> None:
        self.totals["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        client_id = self._next_client
        self._next_client += 1
        client = self._clients.setdefault(
            client_id, _ClientStats(f"client-{client_id}")
        )
        owned: set[int] = set()
        #: connection-local shared-memory data plane (client-owned segment)
        conn_shm: dict = {"seg": None}
        loop = asyncio.get_running_loop()
        try:
            while True:
                payload = await proto.read_frame_async(reader)
                if payload is None:
                    break
                try:
                    # copy_bytes=False: write payloads stay memoryviews over
                    # the frame, feeding the writer's zero-copy append.
                    request = proto.decode_request(payload, copy_bytes=False)
                except proto.ProtocolError:
                    break  # a garbled peer gets disconnected, not served
                self.totals["requests"] += 1
                try:
                    reply = await self._dispatch(
                        loop, request, client, client_id, owned, conn_shm
                    )
                except BaseException as exc:
                    client.errors += 1
                    reply = proto.encode_error(
                        request.request_id,
                        getattr(exc, "errno", None) or errno.EIO,
                        type(exc).__name__,
                        str(exc.args[1] if len(exc.args) > 1 else exc),
                    )
                    # An injected crash is a process kill in the direct
                    # path; in the daemon it kills the *request*, and the
                    # envelope carries it back to the client.
                writer.write(reply)
                await writer.drain()
        except (ConnectionError, proto.ProtocolError):
            pass
        finally:
            # A dying client must not strand handle slots: close whatever
            # it still owned (idempotent, exception-safe).
            for handle_id in list(owned):
                handle = self._handles.pop(handle_id, None)
                if handle is None:
                    continue
                try:
                    await loop.run_in_executor(
                        None, plfs_api.plfs_close, handle.plfs_fd
                    )
                except OSError:
                    self.totals["handles_reclaimed_after_error"] += 1
            if conn_shm["seg"] is not None:
                # Close only our mapping — the segment is client property.
                with contextlib.suppress(BufferError, OSError):
                    conn_shm["seg"].close()
                conn_shm["seg"] = None
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch(
        self, loop, request, client, client_id, owned, conn_shm
    ) -> bytes:
        op = request.opcode
        f = request.fields
        rid = request.request_id

        if op == proto.OP_PING:
            return proto.encode_reply(op, rid, server_pid=os.getpid())

        if op == proto.OP_HELLO:
            if f["name"]:
                client.name = f["name"]
            return proto.encode_reply(
                op,
                rid,
                client_id=client_id,
                server_pid=os.getpid(),
                version=proto.VERSION,
            )

        if op == proto.OP_STATS:
            blob = json.dumps(self.stats(), sort_keys=True).encode("utf-8")
            return proto.encode_reply(op, rid, json=blob)

        if op == proto.OP_SHUTDOWN:
            self.request_shutdown()
            return proto.encode_reply(op, rid)

        if op == proto.OP_OPEN:
            path = f["path"]
            async with self._locked(self._meta_lock, client):
                handle_id = self._next_handle
                self._next_handle += 1
                # The handle id doubles as the PLFS pid: each client
                # handle gets its own dropping stream, exactly as each
                # process does on the direct path.
                plfs_fd = await loop.run_in_executor(
                    None,
                    lambda: plfs_api.plfs_open(
                        path,
                        f["flags"],
                        handle_id,
                        f["mode"] & 0o7777,
                        self.open_options,
                    ),
                )
            handle = _Handle(handle_id, plfs_fd, path, client)
            self._handles[handle_id] = handle
            owned.add(handle_id)
            client.opens += 1
            if f["flags"] & os.O_CREAT:
                client.creates += 1
            return proto.encode_reply(op, rid, handle=handle_id)

        if op == proto.OP_ATTACH_SHM:
            if not self.allow_shm:
                raise OSError(
                    errno.EOPNOTSUPP, "shared-memory data plane disabled"
                )
            from multiprocessing import shared_memory

            if conn_shm["seg"] is not None:
                with contextlib.suppress(BufferError, OSError):
                    conn_shm["seg"].close()
                conn_shm["seg"] = None
            try:
                seg = shared_memory.SharedMemory(name=f["name"])
            except (OSError, ValueError) as exc:
                raise OSError(
                    errno.ENOENT, f"cannot map shm segment {f['name']!r}: {exc}"
                ) from None
            # Attaching registers the segment with this process's resource
            # tracker (bpo-39959), which would unlink the *client's* live
            # segment when the daemon exits.  The client owns the segment;
            # take our name back out of the tracker.
            with contextlib.suppress(Exception):
                from multiprocessing import resource_tracker

                resource_tracker.unregister(seg._name, "shared_memory")
            if seg.size < f["size"]:
                seg.close()
                raise OSError(
                    errno.EINVAL,
                    f"shm segment is {seg.size} bytes, client announced {f['size']}",
                )
            conn_shm["seg"] = seg
            self.totals["shm_attaches"] += 1
            return proto.encode_reply(op, rid)

        if op == proto.OP_CREATE:
            path = f["path"]
            async with self._locked(self._meta_lock, client):
                await loop.run_in_executor(
                    None, lambda: plfs_api.plfs_create(path, f["mode"] & 0o7777)
                )
            client.creates += 1
            return proto.encode_reply(op, rid)

        if op == proto.OP_UNLINK:
            path = f["path"]
            async with self._locked(self._meta_lock, client):
                await loop.run_in_executor(None, plfs_api.plfs_unlink, path)
            return proto.encode_reply(op, rid)

        # Everything below operates on an owned handle.
        handle = self._handles.get(f["handle"])
        if handle is None or handle.id not in owned:
            raise OSError(errno.EBADF, "no such daemon handle")
        handle.touch()

        if op == proto.OP_WRITE:
            data = f["data"]
            async with self._locked(self._writer_lock(handle.path), client):
                written = await loop.run_in_executor(
                    None,
                    lambda: plfs_api.plfs_write(
                        handle.plfs_fd, data, len(data), f["offset"]
                    ),
                )
            client.appends += 1
            client.bytes_written += written
            return proto.encode_reply(op, rid, written=written)

        if op == proto.OP_WRITE_SHM:
            seg = conn_shm["seg"]
            if seg is None:
                raise OSError(errno.EINVAL, "no shm segment attached")
            shm_off, count = f["shm_off"], f["count"]
            if shm_off + count > seg.size:
                raise OSError(
                    errno.EINVAL,
                    f"shm descriptor [{shm_off}, {shm_off + count}) outside "
                    f"segment of {seg.size} bytes",
                )
            data = seg.buf[shm_off : shm_off + count]
            try:
                async with self._locked(self._writer_lock(handle.path), client):
                    written = await loop.run_in_executor(
                        None,
                        lambda: plfs_api.plfs_write(
                            handle.plfs_fd, data, count, f["offset"]
                        ),
                    )
            finally:
                # Drop the exported view promptly: a lingering export would
                # make the segment unmappable to close on disconnect.
                data.release()
            client.appends += 1
            client.bytes_written += written
            self.totals["shm_appends"] += 1
            return proto.encode_reply(op, rid, written=written)

        if op == proto.OP_READ:
            # No daemon lock: the shared index cache is the
            # synchronization point, and it revalidates by epoch.
            data = await loop.run_in_executor(
                None,
                lambda: plfs_api.plfs_read(handle.plfs_fd, f["count"], f["offset"]),
            )
            client.reads += 1
            client.bytes_read += len(data)
            return proto.encode_reply(op, rid, data=data)

        if op == proto.OP_SYNC:
            async with self._locked(self._writer_lock(handle.path), client):
                await loop.run_in_executor(
                    None, plfs_api.plfs_sync, handle.plfs_fd
                )
            return proto.encode_reply(op, rid)

        if op == proto.OP_GETATTR:
            st = await loop.run_in_executor(
                None, plfs_api.plfs_getattr, handle.plfs_fd
            )
            return proto.encode_reply(
                op,
                rid,
                size=st.st_size,
                mode=st.st_mode,
                mtime_ns=int(st.st_mtime * 1e9),
            )

        if op == proto.OP_TRUNC:
            async with self._locked(self._meta_lock, client):
                async with self._locked(
                    self._writer_lock(handle.path), client
                ):
                    await loop.run_in_executor(
                        None,
                        lambda: plfs_api.plfs_trunc(handle.plfs_fd, f["offset"]),
                    )
            return proto.encode_reply(op, rid)

        if op == proto.OP_CLOSE:
            self._handles.pop(handle.id, None)
            owned.discard(handle.id)
            client.closes += 1
            try:
                async with self._locked(
                    self._writer_lock(handle.path), client
                ):
                    refs = await loop.run_in_executor(
                        None, plfs_api.plfs_close, handle.plfs_fd
                    )
            except OSError:
                # The slot is already reclaimed (plfs_close tore the
                # handle down before raising); surface the error.
                self.totals["handles_reclaimed_after_error"] += 1
                raise
            return proto.encode_reply(op, rid, refs=refs)

        raise OSError(errno.ENOSYS, f"unhandled opcode {op}")


# ---------------------------------------------------------------------- #
# entry point used by the CLI
# ---------------------------------------------------------------------- #


async def serve(
    socket_path: str,
    *,
    open_options: plfs_api.OpenOptions | None = None,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    reap_interval: float = DEFAULT_REAP_INTERVAL,
    allow_shm: bool = True,
    ready: "asyncio.Event | None" = None,
) -> PlfsdServer:
    """Run a daemon until shutdown is requested.

    Arms a fault injector from the environment first (``REPRO_FAULTS`` /
    ``REPRO_FAULT_SEED``), so injection specs configured by a parent
    process propagate into the daemon exactly like into any other
    subprocess of the fault harness.  The plfs-san race detector arms the
    same way (``REPRO_SANITIZE`` / ``REPRO_SANITIZE_DIR``): a sanitized
    test session reaches into daemon subprocesses too, and violations
    come back in the exit report the pytest plugin sweeps.
    """
    from repro.faults import injector_from_env
    from repro.sanitize import runtime as sanitize_runtime

    sanitize_runtime.enable_from_env()
    server = PlfsdServer(
        socket_path,
        open_options=open_options,
        idle_timeout=idle_timeout,
        reap_interval=reap_interval,
        allow_shm=allow_shm,
    )
    injector = injector_from_env()
    ctx = injector.armed() if injector is not None else contextlib.nullcontext()
    with ctx:
        await server.start()
        if ready is not None:
            ready.set()
        await server.serve_forever()
    return server


__all__ = ["PlfsdServer", "serve", "DEFAULT_IDLE_TIMEOUT", "DEFAULT_REAP_INTERVAL"]
