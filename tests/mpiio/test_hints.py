"""Tests for MPI-IO hints: collective buffering knobs and data sieving."""

from __future__ import annotations

import pytest

from repro.cluster import MINERVA, SIERRA, Platform
from repro.mpiio import LDPLFS, MPIIO, Communicator, MPIHints, MPIIOSimFile
from repro.mpiio import file as mpiio_file
from repro.sim import Environment
from repro.sim.stats import MB


def setup(method, nodes=4, ppn=2, machine=SIERRA, hints=None):
    env = Environment()
    platform = Platform(env, machine)
    comm = Communicator(nodes, ppn)
    f = MPIIOSimFile(
        platform, method, comm, hints=hints or MPIHints()
    )
    return env, platform, f


def run(env, gen):
    return env.run(until=env.process(gen))


class TestHintValidation:
    def test_defaults(self):
        h = MPIHints()
        assert h.cb_nodes is None
        assert h.romio_cb_write
        assert not h.romio_ds_write
        assert h.aggregator_count(7) == 7

    def test_cb_nodes_clamped_to_nodes(self):
        assert MPIHints(cb_nodes=3).aggregator_count(8) == 3
        assert MPIHints(cb_nodes=100).aggregator_count(8) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            MPIHints(cb_nodes=0)
        with pytest.raises(ValueError):
            MPIHints(cb_buffer_size=0)


def planned(monkeypatch, f, bytes_per_rank=MB):
    """The plan the file executes for one collective write round."""
    plans = []
    real = mpiio_file.plan_round

    def recording(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(mpiio_file, "plan_round", recording)
    run(f.env, f.open_all())
    run(f.env, f.write_at_all(bytes_per_rank))
    (plan,) = plans
    return plan


def source_nodes(f, worker) -> set[int]:
    return {piece.rank // f.comm.ppn for piece in worker.pieces}


class TestAggregatorSelection:
    def test_default_one_per_node(self, monkeypatch):
        _, _, f = setup(LDPLFS, nodes=4)
        aggs = planned(monkeypatch, f).workers
        assert len(aggs) == 4
        assert all(source_nodes(f, agg) == {agg.node} for agg in aggs)

    def test_reduced_aggregators_cover_groups(self, monkeypatch):
        _, _, f = setup(LDPLFS, nodes=8, hints=MPIHints(cb_nodes=2))
        aggs = planned(monkeypatch, f).workers
        assert len(aggs) == 2
        assert [len(source_nodes(f, agg)) for agg in aggs] == [4, 4]
        assert set().union(*(source_nodes(f, agg) for agg in aggs)) == set(range(8))
        assert {agg.node for agg in aggs} == {0, 4}

    def test_uneven_split(self, monkeypatch):
        # 5 nodes over 2 aggregators: even file domains, 2.5 nodes' bytes
        # each — node 2's bytes are split between them.
        _, _, f = setup(LDPLFS, nodes=5, hints=MPIHints(cb_nodes=2))
        aggs = planned(monkeypatch, f).workers
        held = [sum(piece.length for piece in agg.pieces) for agg in aggs]
        assert held == [5 * 2 * MB / 2] * 2
        assert [sorted(source_nodes(f, agg)) for agg in aggs] == [[0, 1, 2], [2, 3, 4]]


class TestCollectiveBufferingBehaviour:
    def test_fewer_aggregators_fewer_droppings(self):
        env, platform, f = setup(LDPLFS, nodes=8, hints=MPIHints(cb_nodes=2))
        run(env, f.open_all())
        run(env, f.write_at_all(8 * MB))
        assert f.container.dropping_count == 2

    def test_remote_gather_crosses_nic(self):
        env, platform, f = setup(LDPLFS, nodes=4, hints=MPIHints(cb_nodes=1))
        run(env, f.open_all())
        run(env, f.write_at_all(8 * MB))
        # The single aggregator's NIC carried the three remote nodes'
        # data in as well as all data out.
        nic = platform.nic(0)
        assert nic.resource._busy_time > 0

    def test_remote_scatter_crosses_nic(self, monkeypatch):
        env, platform, f = setup(LDPLFS, nodes=4, hints=MPIHints(cb_nodes=1))
        run(env, f.open_all())
        run(env, f.write_at_all(8 * MB))
        run(env, f.close_all())
        run(env, f.open_all(for_read=True))
        nic = platform.nic(0)
        moved = []
        real = nic.transfer

        def recording(nbytes):
            moved.append(nbytes)
            return real(nbytes)

        monkeypatch.setattr(nic, "transfer", recording)
        run(env, f.read_at_all(8 * MB))
        # The single aggregator read all 64 MB in from the backend and
        # sent the three remote nodes' 48 MB back out over its NIC.
        assert sum(moved) == pytest.approx(64 * MB + 48 * MB)

    def test_cb_buffer_size_chunks_backend_writes(self):
        env, platform, f = setup(
            LDPLFS, nodes=1, ppn=1, hints=MPIHints(cb_buffer_size=4 * MB)
        )
        run(env, f.open_all())
        run(env, f.write_at_all(16 * MB))
        state = f.container.writers()[0]
        assert state.records == 4  # 16 MB went out as 4-MB buffers

    def test_cb_disabled_every_rank_writes(self):
        env, platform, f = setup(
            LDPLFS, nodes=2, ppn=3, hints=MPIHints(romio_cb_write=False)
        )
        run(env, f.open_all())
        run(env, f.write_at_all(1 * MB))
        assert f.container.dropping_count == 6  # no aggregation

    def test_cb_disabled_offsets_advance(self):
        env, platform, f = setup(
            MPIIO, nodes=2, ppn=2, hints=MPIHints(romio_cb_write=False)
        )
        run(env, f.open_all())
        run(env, f.write_at_all(2 * MB))
        run(env, f.write_at_all(2 * MB))
        assert f.shared.size == 16 * MB


class TestDataSieving:
    # A dense interleaved file view (2 writers' worth of 64 KB records):
    # the regime where §II says sieving is "extremely beneficial".  With
    # sparse views the amplification (reading the whole extent) dominates
    # and sieving loses — hence ROMIO exposes it as a hint.
    STRIDE = 128 * 1024
    RECORD = 64 * 1024
    COUNT = 256

    def _strided_time(self, ds: bool, method=MPIIO) -> float:
        env, platform, f = setup(
            method, nodes=1, ppn=1, machine=MINERVA,
            hints=MPIHints(romio_ds_write=ds),
        )
        run(env, f.open_all())
        t0 = env.now
        run(
            env,
            f.write_strided_independent(
                f.comm.ranks[0], 0, self.RECORD, self.STRIDE, self.COUNT
            ),
        )
        return env.now - t0

    def test_sieving_beats_naive_strided_writes(self):
        """The §II claim: fewer seek+write operations at the cost of
        moving (and locking) the covering extent."""
        assert self._strided_time(ds=True) < 0.5 * self._strided_time(ds=False)

    def test_sieving_moves_more_bytes(self):
        env, platform, f = setup(
            MPIIO, nodes=1, ppn=1, machine=MINERVA,
            hints=MPIHints(romio_ds_write=True),
        )
        run(env, f.open_all())
        run(
            env,
            f.write_strided_independent(
                f.comm.ranks[0], 0, self.RECORD, self.STRIDE, self.COUNT
            ),
        )
        extent = self.STRIDE * (self.COUNT - 1) + self.RECORD
        assert platform.total_bytes_serviced() == pytest.approx(2 * extent)

    def test_plfs_ignores_sieving(self):
        # Appends are cheap whatever the logical stride: PLFS takes the
        # per-record path even with the hint set.
        with_ds = self._strided_time(ds=True, method=LDPLFS)
        without = self._strided_time(ds=False, method=LDPLFS)
        assert with_ds == pytest.approx(without, rel=0.01)

    def test_contiguous_records_not_sieved(self):
        env, platform, f = setup(
            MPIIO, nodes=1, ppn=1, machine=MINERVA,
            hints=MPIHints(romio_ds_write=True),
        )
        run(env, f.open_all())
        run(
            env,
            f.write_strided_independent(
                f.comm.ranks[0], 0, self.STRIDE, self.STRIDE, 4
            ),
        )
        # record_size == stride: dense writes, no read-modify-write.
        assert platform.total_bytes_serviced() == pytest.approx(4 * self.STRIDE)
