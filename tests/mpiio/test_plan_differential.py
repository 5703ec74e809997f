"""The two executors of one two-phase plan agree call for call.

The simulator (:class:`repro.mpiio.MPIIOSimFile`) charges a collective
round, the real engine (:class:`repro.collective.CollectiveFile`) performs
it with bytes; both take aggregators, file domains and ``cb_buffer_size``
chunks from :func:`repro.mpiio.plan.plan_round`.  For the simulator's
round — every rank's piece of an interleaved view, two rounds of writes,
then the file reopened and two rounds of reads — the backend calls each
engine issues must be the same multiset of ``(issuer, offset, length)``:
the aggregator index when collective buffering is on, the rank when off.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter

import pytest

from repro.cluster import SIERRA, Platform
from repro.collective import CollectiveFile
from repro.mpiio import LDPLFS, Communicator, MPIHints, MPIIOSimFile
from repro.plfs import api as plfs_api
from repro.sim import Environment

BYTES_PER_RANK = 999  # integer bytes, not a divisor of any domain split
ROUNDS = 2


def _issuer_keys(issuers: list[int], aggregated: bool) -> dict[int, int]:
    """Aggregators are numbered in the order of the ranks that host them."""
    ordered = sorted(set(issuers))
    return {rank: ordered.index(rank) if aggregated else rank for rank in ordered}


def _sim_calls(nodes, ppn, hints) -> dict[str, Counter]:
    env = Environment()
    f = MPIIOSimFile(Platform(env, SIERRA), LDPLFS, Communicator(nodes, ppn), hints=hints)
    recorded: dict[str, list] = {"write": [], "read": []}
    backend_write, backend_read = f._backend_write, f._backend_read

    def write(client, offset, nbytes, **kwargs):
        recorded["write"].append((client.node * ppn + client.proc, offset, nbytes))
        return backend_write(client, offset, nbytes, **kwargs)

    def read(client, offset, nbytes):
        recorded["read"].append((client.node * ppn + client.proc, offset, nbytes))
        return backend_read(client, offset, nbytes)

    f._backend_write, f._backend_read = write, read

    def driver():
        yield from f.open_all()
        for _ in range(ROUNDS):
            yield from f.write_at_all(BYTES_PER_RANK)
        yield from f.close_all()
        yield from f.open_all(for_read=True)
        for _ in range(ROUNDS):
            yield from f.read_at_all(BYTES_PER_RANK)

    env.run(until=env.process(driver()))
    out = {}
    for kind, aggregated in (("write", hints.romio_cb_write), ("read", hints.romio_cb_read)):
        keys = _issuer_keys([rank for rank, _, _ in recorded[kind]], aggregated)
        out[kind] = Counter((keys[rank], off, n) for rank, off, n in recorded[kind])
    return out


def _real_calls(path, nodes, ppn, hints, monkeypatch) -> dict[str, Counter]:
    recorded: dict[str, list] = {"write": [], "read": []}
    writev, read = plfs_api.plfs_writev, plfs_api.plfs_read

    def recording_writev(fd, views, offset, *args, **kwargs):
        recorded["write"].append((fd, offset, sum(len(v) for v in views)))
        return writev(fd, views, offset, *args, **kwargs)

    def recording_read(fd, count, offset, *args, **kwargs):
        recorded["read"].append((fd, offset, count))
        return read(fd, count, offset, *args, **kwargs)

    monkeypatch.setattr(plfs_api, "plfs_writev", recording_writev)
    monkeypatch.setattr(plfs_api, "plfs_read", recording_read)
    with CollectiveFile(path, nodes=nodes, ppn=ppn, hints=hints) as f:
        f.set_interleaved(BYTES_PER_RANK)
        for rnd in range(ROUNDS):
            f.write_at_all(
                [bytes([rank, rnd]) * (BYTES_PER_RANK // 2) + b"!" for rank in range(f.ranks)]
            )
        f.set_interleaved(BYTES_PER_RANK)  # the reopen: view positions back to 0
        for _ in range(ROUNDS):
            f.read_at_all(BYTES_PER_RANK)
        issuer = {id(fd): i for i, fd in enumerate(f._agg_fds)}
        issuer.update({id(fd): rank for rank, fd in f._rank_fds.items()})
    return {
        kind: Counter((issuer[id(fd)], off, n) for fd, off, n in recorded[kind])
        for kind in recorded
    }


@pytest.mark.parametrize("nodes,ppn", [(4, 2), (5, 3)])
@pytest.mark.parametrize("cb_nodes", [None, 1, 2])
@pytest.mark.parametrize("cb_buffer_size", [1 << 20, 700])
@pytest.mark.parametrize(
    "cb_write,cb_read", [(True, True), (False, False), (True, False), (False, True)]
)
def test_sim_and_real_engines_issue_the_same_backend_calls(
    tmp_path, monkeypatch, nodes, ppn, cb_nodes, cb_buffer_size, cb_write, cb_read
):
    hints = MPIHints(
        cb_nodes=cb_nodes,
        cb_buffer_size=cb_buffer_size,
        romio_cb_write=cb_write,
        romio_cb_read=cb_read,
    )
    sim = _sim_calls(nodes, ppn, hints)
    real = _real_calls(str(tmp_path / "f"), nodes, ppn, hints, monkeypatch)
    written = sum(n * k for (_, _, n), k in sim["write"].items())
    assert written == ROUNDS * nodes * ppn * BYTES_PER_RANK
    assert sim["write"] == real["write"]
    assert sim["read"] == real["read"]


def test_the_plan_loads_neither_engine_nor_the_plfs_stack():
    """The planner is pure bookkeeping: importing it loads no PLFS module,
    no real-bytes engine and no simulator engine."""
    program = (
        "import sys, repro.mpiio.plan\n"
        "heavy = ('repro.plfs', 'repro.collective', 'repro.mpiio.file', 'repro.fs')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
