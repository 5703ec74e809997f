"""Differential property: whatever path the bytes take — two-phase
collective buffering through aggregator handles, or independent list I/O
through per-rank handles — the resulting container is byte-identical,
and both match a pure-Python oracle of the interleaved layout.

This is the contract that makes aggregation a *transport* optimisation:
the container index stays the single authority for file contents.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.collective import CollectiveFile
from repro.mpiio.hints import MPIHints
from repro.plfs import api as plfs_api


@st.composite
def workloads(draw):
    nodes = draw(st.integers(1, 2))
    ppn = draw(st.integers(1, 2))
    record = draw(st.integers(1, 48))
    ranks = nodes * ppn
    rounds = draw(
        st.lists(
            st.lists(
                st.integers(0, 3 * record + 7), min_size=ranks, max_size=ranks
            ),
            min_size=1,
            max_size=3,
        )
    )
    # an all-empty workload never opens a handle, so no container exists
    assume(any(any(sizes) for sizes in rounds))
    return nodes, ppn, record, rounds


def _payload(rank: int, rnd: int, nbytes: int) -> bytes:
    return bytes((rank * 13 + rnd * 7 + i) % 251 for i in range(nbytes))


def _oracle(ranks: int, record: int, rounds) -> bytearray:
    """Independent model of the interleaved view: view byte v of rank r
    lives at file offset ((v // record) * ranks + r) * record + v % record."""
    image = bytearray()
    positions = [0] * ranks
    for rnd, sizes in enumerate(rounds):
        for rank, nbytes in enumerate(sizes):
            data = _payload(rank, rnd, nbytes)
            for i, byte in enumerate(data):
                v = positions[rank] + i
                off = (v // record) * ranks + rank
                off = off * record + v % record
                if off >= len(image):
                    image.extend(bytes(off + 1 - len(image)))
                image[off] = byte
            positions[rank] += nbytes
    return image


def _run(path: str, nodes: int, ppn: int, record: int, rounds, hints) -> dict:
    with CollectiveFile(
        path,
        nodes=nodes,
        ppn=ppn,
        hints=hints,
        workers="inline",
    ) as f:
        f.set_interleaved(record)
        for rnd, sizes in enumerate(rounds):
            f.write_at_all(
                {r: _payload(r, rnd, n) for r, n in enumerate(sizes)}
            )
        totals = {
            r: sum(sizes[r] for sizes in rounds) for r in range(f.ranks)
        }
        readback = f.read_at_all(totals, position=0)
        return dict(f.counters), readback


def _container_bytes(path: str) -> bytes:
    fd = plfs_api.plfs_open(path, os.O_RDONLY)
    try:
        return plfs_api.plfs_read(fd, plfs_api.plfs_getattr(fd).st_size, 0)
    finally:
        plfs_api.plfs_close(fd)


@settings(deadline=None, max_examples=25)
@given(workloads())
def test_cb_independent_and_oracle_agree(workload):
    nodes, ppn, record, rounds = workload
    ranks = nodes * ppn
    root = tempfile.mkdtemp(prefix="cbdiff-")
    try:
        cb_path = os.path.join(root, "cb")
        indep_path = os.path.join(root, "indep")
        cb_counters, cb_read = _run(
            cb_path, nodes, ppn, record, rounds, MPIHints()
        )
        _, indep_read = _run(
            indep_path,
            nodes,
            ppn,
            record,
            rounds,
            MPIHints(romio_cb_write=False, romio_cb_read=False),
        )

        expected = bytes(_oracle(ranks, record, rounds))
        assert _container_bytes(cb_path) == expected
        assert _container_bytes(indep_path) == expected
        assert cb_read == indep_read
        if expected:
            assert cb_counters["cb_backend_writes"] >= 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


@settings(deadline=None, max_examples=15)
@given(workloads(), st.booleans())
def test_sieving_never_changes_the_container(workload, ds):
    nodes, ppn, record, rounds = workload
    ranks = nodes * ppn
    root = tempfile.mkdtemp(prefix="cbds-")
    try:
        path = os.path.join(root, "f")
        _, readback = _run(
            path,
            nodes,
            ppn,
            record,
            rounds,
            MPIHints(
                romio_cb_write=False,
                romio_cb_read=False,
                romio_ds_write=ds,
                romio_ds_read=ds,
            ),
        )
        assert _container_bytes(path) == bytes(_oracle(ranks, record, rounds))
    finally:
        shutil.rmtree(root, ignore_errors=True)
