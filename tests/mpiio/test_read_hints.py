"""Regression + hint matrix for the collective read path.

``read_at_all`` ignored the hints that ``write_at_all`` honored: every
node's aggregator always read its own node's block, regardless of
``cb_nodes`` (aggregator thinning) or ``romio_cb_read`` (collective
buffering off).  The matrix below pins the structural behavior — how
many aggregator reads happen and who issues the backend reads — by
recording the backend calls, plus the timing consequences the simulator
models.
"""

from __future__ import annotations

import pytest

from repro.cluster import SIERRA, Platform
from repro.mpiio import LDPLFS, Communicator, MPIIOSimFile
from repro.mpiio import file as mpiio_file
from repro.mpiio.hints import MPIHints
from repro.sim import Environment
from repro.sim.stats import MB


def setup(nodes=2, ppn=2, hints=None):
    env = Environment()
    platform = Platform(env, SIERRA)
    comm = Communicator(nodes, ppn)
    kwargs = {} if hints is None else {"hints": hints}
    f = MPIIOSimFile(platform, LDPLFS, comm, **kwargs)
    env.run(until=env.process(f.open_all()))
    env.run(until=env.process(f.write_at_all(1 * MB)))
    return env, f


def run(env, gen):
    return env.run(until=env.process(gen))


def _record_reads(monkeypatch, f):
    """Record every backend read as ``(node, proc, nbytes)`` of its issuer."""
    reads = []
    orig_backend = f._backend_read

    def backend(client, offset, nbytes):
        reads.append((client.node, client.proc, nbytes))
        return orig_backend(client, offset, nbytes)

    monkeypatch.setattr(f, "_backend_read", backend)
    return reads


def test_default_one_aggregator_read_per_node(monkeypatch):
    env, f = setup(nodes=4, ppn=2)
    reads = _record_reads(monkeypatch, f)
    run(env, f.read_at_all(1 * MB))
    assert reads == [(node, 0, 2 * MB) for node in range(4)]


def test_cb_nodes_hint_thins_read_aggregators(monkeypatch):
    env, f = setup(nodes=4, ppn=2, hints=MPIHints(cb_nodes=2))
    reads = _record_reads(monkeypatch, f)
    run(env, f.read_at_all(1 * MB))
    assert reads == [(0, 0, 4 * MB), (2, 0, 4 * MB)]


def test_cb_nodes_one_serializes_the_whole_read(monkeypatch):
    env, f = setup(nodes=4, ppn=2, hints=MPIHints(cb_nodes=1))
    reads = _record_reads(monkeypatch, f)
    run(env, f.read_at_all(1 * MB))
    assert reads == [(0, 0, 8 * MB)]


def test_romio_cb_read_off_reads_per_rank(monkeypatch):
    env, f = setup(nodes=2, ppn=4, hints=MPIHints(romio_cb_read=False))
    reads = _record_reads(monkeypatch, f)
    run(env, f.read_at_all(1 * MB))
    # one backend read per rank, each of its own piece: no aggregator
    assert sorted(reads) == [(node, proc, 1 * MB) for node in range(2) for proc in range(4)]


def test_thinned_read_takes_longer_than_default():
    """The cost consequence the hint matrix models: one aggregator
    pulling everybody's bytes serializes the read phase."""

    def read_time(hints):
        env, f = setup(nodes=4, ppn=2, hints=hints)
        t0 = env.now
        run(env, f.read_at_all(4 * MB))
        return env.now - t0

    assert read_time(MPIHints(cb_nodes=1)) > read_time(MPIHints())


def test_default_hints_unchanged_by_the_matrix(monkeypatch):
    """Under default hints the read path must behave exactly as before
    the hint plumbing: one aggregator per node covering its own node
    (the committed sim baselines depend on this)."""
    env, f = setup(nodes=3, ppn=2)
    plans = []
    real = mpiio_file.plan_round

    def recording(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(mpiio_file, "plan_round", recording)
    run(env, f.read_at_all(1 * MB))
    (plan,) = plans
    assert [
        (agg.node, {piece.rank // 2 for piece in agg.pieces}) for agg in plan.workers
    ] == [
        (0, {0}),
        (1, {1}),
        (2, {2}),
    ]
