"""The simulated MPI-IO file: collective and independent data paths.

Charges ROMIO-style two-phase collective buffering as
:mod:`repro.mpiio.plan` plans it (gather each node's data to its
aggregator, aggregators issue large backend writes — the configuration the
paper benchmarks with; :class:`repro.collective.CollectiveFile` performs
the same plan with real bytes) and the independent per-rank path (what
FLASH-IO's HDF5 writes do), over either a shared file (plain MPI-IO) or a
PLFS container (ROMIO driver / LDPLFS / FUSE), with the access method's
software costs applied.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.platform import Platform
from repro.fs.parallel import PosixClient, SharedFile
from repro.fs.plfssim import PlfsContainerSim
from repro.sim.engine import Environment

from .hints import DEFAULT_HINTS, MPIHints
from .methods import AccessMethod
from .plan import Extent, Worker, plan_round
from .simmpi import Communicator, RankInfo


class MPIIOSimFile:
    """One MPI file handle shared by a communicator."""

    def __init__(
        self,
        platform: Platform,
        method: AccessMethod,
        comm: Communicator,
        name: str = "output",
        *,
        hints: MPIHints = DEFAULT_HINTS,
        log_structured: bool = True,
        shared_sequential: bool = False,
    ):
        self.platform = platform
        self.env: Environment = platform.env
        self.method = method
        self.comm = comm
        self.name = name
        self.hints = hints
        self.perf = platform.perf
        #: ablation hook: pretend the shared file is written log-style
        self.shared_sequential = shared_sequential
        self._clients = {
            r.rank: PosixClient(platform, r.node, r.proc) for r in comm.ranks
        }
        if method.uses_plfs:
            self.container: PlfsContainerSim | None = PlfsContainerSim(
                platform, name, log_structured=log_structured
            )
            self.shared: SharedFile | None = None
        else:
            self.container = None
            self.shared = SharedFile(platform, name)
        #: where the next collective round starts in the file (the ranks'
        #: view positions times the communicator size)
        self._offset = 0

    def client(self, rank: RankInfo) -> PosixClient:
        return self._clients[rank.rank]

    # ------------------------------------------------------------------ #
    # open / close (collective)
    # ------------------------------------------------------------------ #

    def open_all(self, *, for_read: bool = False) -> Generator:
        """Process: MPI_File_open across the communicator (the next round
        starts at offset 0, as MPI's individual file pointers do)."""
        self._offset = 0
        yield self.env.timeout(self.comm.barrier_cost())
        if self.container is not None:
            procs = []
            for rank in self.comm.ranks:
                op = (
                    self.container.open_read(self.client(rank))
                    if for_read
                    else self.container.register_open(self.client(rank))
                )
                procs.append(self.env.process(op))
            yield self.env.all_of(procs)
        else:
            # One metadata op for the shared file (rank 0 creates/stats).
            yield from self.platform.mds.op("shared_open", hash(self.name))
        yield self.env.timeout(self.comm.barrier_cost())

    def close_all(self) -> Generator:
        """Process: MPI_File_close (no data flush: caches stay dirty, as
        on the real machines — the paper's Fig. 4 depends on this)."""
        yield self.env.timeout(self.comm.barrier_cost())
        if self.container is not None:
            procs = [
                self.env.process(self.container.close_write(self.client(rank)))
                for rank in self.comm.ranks
            ]
            yield self.env.all_of(procs)
        else:
            self.shared.close()
        yield self.env.timeout(self.comm.barrier_cost())

    # ------------------------------------------------------------------ #
    # method-cost helpers
    # ------------------------------------------------------------------ #

    def _backend_write(
        self,
        client: PosixClient,
        offset: float,
        nbytes: float,
        *,
        cache_gate: float | None = None,
    ) -> Generator:
        """One application write call routed through the access method.

        *cache_gate* is the per-rank application write size (differs from
        *nbytes* for collectively buffered aggregator writes); it decides
        client-cache eligibility.  FUSE requests are synchronous round
        trips through the daemon (no writeback caching in 2012 kernels),
        so the FUSE route forces the gate above the threshold.
        """
        method = self.method
        if method.per_call_overhead:
            yield self.env.timeout(method.per_call_overhead)
        chunk_overhead = method.chunk_overhead(self.perf)
        if method.fuse_transport:
            cache_gate = float("inf")
        pos = offset
        for chunk in method.chunks(nbytes, self.perf):
            if chunk_overhead:
                yield self.env.timeout(chunk_overhead)
            if self.container is not None:
                yield from self.container.write(client, chunk, cache_gate=cache_gate)
            else:
                yield from client.write_shared(
                    self.shared, pos, chunk, sequential=self.shared_sequential
                )
            pos += chunk

    def _backend_read(self, client: PosixClient, offset: float, nbytes: float) -> Generator:
        method = self.method
        if method.per_call_overhead:
            yield self.env.timeout(method.per_call_overhead)
        chunk_overhead = method.chunk_overhead(self.perf)
        pos = offset
        for chunk in method.chunks(nbytes, self.perf):
            if chunk_overhead:
                yield self.env.timeout(chunk_overhead)
            if self.container is not None:
                yield from self.container.read_own(client, chunk)
            else:
                yield from client.read_shared(self.shared, pos, chunk)
            pos += chunk

    # ------------------------------------------------------------------ #
    # collective data path: the executor of the two-phase plan
    # ------------------------------------------------------------------ #

    def write_at_all(self, bytes_per_rank: float) -> Generator:
        """Process: one collective write step (every rank contributes
        *bytes_per_rank*); :meth:`_round` says how it is charged."""
        return self._round(bytes_per_rank, write=True)

    def read_at_all(self, bytes_per_rank: float) -> Generator:
        """Process: one collective read step, the mirror of
        :meth:`write_at_all`."""
        return self._round(bytes_per_rank, write=False)

    def _round(self, bytes_per_rank: float, *, write: bool) -> Generator:
        """One round of the canonical shared-file layout — the real
        engine's ``set_interleaved(bytes_per_rank)`` round: rank r's piece
        follows rank r-1's where the last round ended — charged as
        :func:`~repro.mpiio.plan.plan_round` plans it (which ranks issue
        backend calls with which extents; the hint matrix lives there)."""
        yield self.env.timeout(self.comm.barrier_cost() + self.perf.mpi_call_overhead)
        ppn = self.comm.ppn
        extents = {}
        for node in range(self.comm.nodes):
            # Fluid byte counts: a node's block starts where the previous
            # one ended and its ranks' pieces chain inside it, the last
            # taking what is left, so pieces meet exactly at every rank and
            # node boundary and no domain edge lands a rounding error
            # inside a node.
            end = self._offset + bytes_per_rank * ppn
            for rank in range(node * ppn, (node + 1) * ppn):
                length = end - self._offset if rank % ppn == ppn - 1 else bytes_per_rank
                extents[rank] = [Extent(self._offset, 0, length)]
                self._offset += length
            self._offset = end
        plan = plan_round(
            extents, nodes=self.comm.nodes, ppn=self.comm.ppn, hints=self.hints, write=write
        )
        yield self.env.all_of(
            [
                self.env.process(self._work(worker, plan.aggregated, write, bytes_per_rank))
                for worker in plan.workers
            ]
        )
        yield self.env.timeout(self.comm.barrier_cost())

    def _work(self, worker: Worker, aggregated: bool, write: bool, per_rank: float) -> Generator:
        client = self._clients[worker.rank]
        if aggregated and write:
            yield from self._exchange(worker)
        for call in worker.calls:
            if write:
                # Cache behaviour follows the application write size, not
                # the collective buffer.
                yield from self._backend_write(
                    client, call.offset, call.length, cache_gate=per_rank
                )
            else:
                yield from self._backend_read(client, call.offset, call.length)
        if aggregated and not write:
            yield from self._exchange(worker)

    def _exchange(self, worker: Worker) -> Generator:
        """Phase 1 at one aggregator, a write's gather or a read's scatter:
        pieces of its own node's ranks are shared-memory copies (plus the
        per-process synchronisation the paper notes grows with ppn); every
        other piece crosses the aggregator's NIC."""
        ppn = self.comm.ppn
        local = remote = 0.0
        for piece in worker.pieces:
            if piece.rank // ppn == worker.node:
                local += piece.length
            else:
                remote += piece.length
        perf = self.perf
        yield self.env.timeout((ppn - 1) * perf.ppn_sync_overhead + local / perf.memcpy_bandwidth)
        if remote > 0:
            yield from self.platform.nic(worker.node).transfer(remote)

    # ------------------------------------------------------------------ #
    # independent data path (per rank, no aggregation)
    # ------------------------------------------------------------------ #

    def write_independent(self, rank: RankInfo, offset: float, nbytes: float) -> Generator:
        """Process: MPI_File_write (independent) from one rank."""
        yield from self._backend_write(self.client(rank), offset, nbytes)

    def write_strided_independent(
        self,
        rank: RankInfo,
        base_offset: float,
        record_size: float,
        stride: float,
        count: int,
    ) -> Generator:
        """Process: one rank updates *count* records of *record_size*
        bytes placed *stride* apart (an interleaved file view, the
        pattern of the paper's §II data-sieving discussion).

        With ``romio_ds_write`` enabled on a shared file, ROMIO sieves:
        read the covering extent, modify in memory, write it back as one
        block — two large operations instead of *count* small strided
        ones, "at the expense of locking a larger portion of the file".
        PLFS containers never sieve (appends are cheap regardless of the
        logical stride).
        """
        client = self.client(rank)
        if (
            self.hints.romio_ds_write
            and self.shared is not None
            and count > 1
            and record_size < stride
        ):
            extent = stride * (count - 1) + record_size
            yield from client.read_shared(self.shared, base_offset, extent)
            yield from client.write_shared(self.shared, base_offset, extent)
            return
        for i in range(count):
            yield from self._backend_write(
                client,
                base_offset + i * stride,
                record_size,
                cache_gate=record_size,
            )

    def read_independent(self, rank: RankInfo, offset: float, nbytes: float) -> Generator:
        yield from self._backend_read(self.client(rank), offset, nbytes)
