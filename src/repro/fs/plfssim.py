"""Simulated PLFS container behaviour on the cluster file system.

Maps the *real* container mechanics of :mod:`repro.plfs` onto the simulated
platform's cost model:

- container creation and every dropping create is a metadata operation —
  the load that melts a dedicated Lustre MDS at scale (paper Fig. 5);
- each writing process gets a private data dropping (a sequential
  :class:`~repro.fs.parallel.StreamFile`) plus an index dropping;
- index records are buffered in memory and flushed at close (PLFS's
  ``buffer_index`` default), costing one small stream write;
- opening for read pays the global-index build: directory scans plus one
  small read per index dropping.

The metadata op counts per event mirror what the real implementation in
``repro.plfs`` does on the backend (mkdir container + access + creator +
openhosts + meta; two creates per dropping pair; one marker per open).
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.platform import Platform

from .parallel import PosixClient, StreamFile

#: metadata ops to create the container skeleton (mkdir, access file,
#: creator, openhosts dir, meta dir) — matches repro.plfs.container.create
CONTAINER_CREATE_OPS = 5
#: metadata ops per (data, index) dropping pair creation
DROPPING_CREATE_OPS = 2
#: metadata ops at close (meta dropping create + openhost unlink)
CLOSE_OPS = 2
#: bytes of one index record, one per append — the real index's record
#: (``repro.plfs.index.RECORD_SIZE``, pinned by a test), kept here so the
#: simulator loads no PLFS stack
RECORD_SIZE = 48


class SimWriterState:
    """Per-(node, proc) open-for-write state inside a container."""

    __slots__ = ("data", "records", "closed")

    def __init__(self, data: StreamFile):
        self.data = data
        self.records = 0
        self.closed = False


class PlfsContainerSim:
    """One logical PLFS file on the simulated platform."""

    def __init__(self, platform: Platform, name: str, *, log_structured: bool = True):
        self.platform = platform
        self.name = name
        #: ablation hook (paper §V.A): with ``log_structured=False`` the
        #: per-process droppings are written *in place* (each write pays
        #: positioning time), isolating the file-partitioning benefit.
        self.log_structured = log_structured
        self.created = False
        self._hostdirs: set[int] = set()
        self._writers: dict[tuple[int, int], SimWriterState] = {}
        self._mds_key = hash(name) & 0x7FFFFFFF
        self._index_built = False

    # ------------------------------------------------------------------ #

    @property
    def dropping_count(self) -> int:
        return len(self._writers)

    def writers(self) -> list[SimWriterState]:
        return list(self._writers.values())

    def logical_bytes(self) -> float:
        return sum(w.data.size for w in self._writers.values())

    # ------------------------------------------------------------------ #

    def register_open(self, client: PosixClient) -> Generator:
        """Process: plfs_open(O_WRONLY|O_CREAT) from one rank.

        First opener builds the container skeleton; first opener per node
        makes the hostdir; every opener registers an openhost marker.
        Dropping pairs are created lazily at the rank's first write,
        exactly as the real write path does.
        """
        mds = self.platform.mds
        if not self.created:
            self.created = True
            for _ in range(CONTAINER_CREATE_OPS):
                yield from mds.op("container_create", self._mds_key)
        if client.node not in self._hostdirs:
            self._hostdirs.add(client.node)
            yield from mds.op("hostdir_mkdir", self._mds_key + client.node)
        yield from mds.op("openhost_create", self._mds_key + client.proc)

    def _ensure_dropping(self, client: PosixClient) -> Generator:
        key = (client.node, client.proc)
        if key not in self._writers:
            data = StreamFile(
                self.platform, f"{self.name}/data.{client.node}.{client.proc}"
            )
            self._writers[key] = SimWriterState(data)
            for _ in range(DROPPING_CREATE_OPS):
                # The only heavy metadata ops: data/index dropping creates
                # allocate storage objects.
                yield from self.platform.mds.op(
                    "dropping_create", self._mds_key + client.proc, heavy=True
                )

    def write(
        self,
        client: PosixClient,
        nbytes: float,
        *,
        cache_gate: float | None = None,
    ) -> Generator:
        """Process: plfs_write — a log append to the caller's dropping."""
        yield from self._ensure_dropping(client)
        state = self._writers[(client.node, client.proc)]
        state.records += 1
        yield from client.append_stream(
            state.data,
            nbytes,
            cache_gate=cache_gate,
            sequential=self.log_structured,
        )

    def close_write(self, client: PosixClient) -> Generator:
        """Process: plfs_close — flush the index dropping, drop metadata."""
        state = self._writers.get((client.node, client.proc))
        if state is None or state.closed:
            # Opened but never wrote: just the openhost unlink.
            yield from self.platform.mds.op(
                "close_meta", self._mds_key + client.proc
            )
            return
        state.closed = True
        if state.records:
            # Buffered index records flushed as one small sequential write.
            yield from client.append_stream(state.data, state.records * RECORD_SIZE)
        state.data.close()
        for _ in range(CLOSE_OPS):
            yield from self.platform.mds.op("close_meta", self._mds_key + client.proc)

    # ------------------------------------------------------------------ #

    def open_read(self, client: PosixClient) -> Generator:
        """Process: plfs_open(O_RDONLY) — the global-index build.

        The first opener pays the full build: a readdir of the container
        and each hostdir plus one small read per index dropping.  Later
        openers pay a single stat (the ROMIO PLFS driver flattens the
        index once and broadcasts it).
        """
        mds = self.platform.mds
        if self._index_built:
            yield from mds.op("container_stat", self._mds_key)
            return
        self._index_built = True
        yield from mds.op("container_readdir", self._mds_key)
        for node in sorted(self._hostdirs):
            yield from mds.op("hostdir_readdir", self._mds_key + node)
        for state in self._writers.values():
            yield from client.read_stream(
                state.data, max(state.records, 1) * RECORD_SIZE, sequential=False
            )

    def read_own(self, client: PosixClient, nbytes: float) -> Generator:
        """Process: plfs_read of data this rank wrote (N-N read-back, the
        pattern the paper's read benchmarks use) — a sequential scan of the
        rank's own dropping.

        Collective writes leave droppings only on the aggregators, so an
        independent read (``romio_cb_read=false``) from a non-writer rank
        scans the dropping holding its node's bytes — its node aggregator's,
        falling back to any dropping for a fully remote layout."""
        state = self._writers.get((client.node, client.proc))
        if state is None:
            state = self._writers.get((client.node, 0)) or next(
                iter(self._writers.values()), None
            )
        if state is None:
            return
        yield from client.read_stream(state.data, nbytes, sequential=True)
