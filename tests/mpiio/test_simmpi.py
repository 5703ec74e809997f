"""Tests for communicators and rank placement."""

from __future__ import annotations

import pytest

from repro.mpiio import Communicator


class TestCommunicator:
    def test_block_placement(self):
        comm = Communicator(nodes=2, ppn=3)
        assert comm.size == 6
        assert [(r.node, r.proc) for r in comm.ranks] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert [r.rank for r in comm.ranks] == list(range(6))

    def test_barrier_cost_grows_with_size(self):
        small = Communicator(2, 1).barrier_cost()
        large = Communicator(64, 8).barrier_cost()
        assert 0 < small < large

    def test_single_rank_barrier_free(self):
        assert Communicator(1, 1).barrier_cost() == 0.0

    def test_bcast_cost(self):
        comm = Communicator(16, 1)
        assert comm.bcast_cost(1e6, 1e9) > 0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Communicator(0, 1)
        with pytest.raises(ValueError):
            Communicator(1, 0)
