"""Minimal MPI abstractions for the simulator: ranks and communicators.

Only what the I/O benchmarks need — rank→(node, proc) placement and
barrier/broadcast cost.  The collective-buffering aggregators are the
planner's (:func:`repro.mpiio.plan.aggregators`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RankInfo:
    rank: int
    node: int
    proc: int  # process slot on the node


#: per-hop latency used for barrier/bcast cost estimates, seconds
HOP_LATENCY = 5e-6


class Communicator:
    """A set of MPI ranks placed block-wise onto nodes."""

    def __init__(self, nodes: int, ppn: int):
        if nodes < 1 or ppn < 1:
            raise ValueError("nodes and ppn must be >= 1")
        self.nodes = nodes
        self.ppn = ppn
        self.ranks = [
            RankInfo(rank=n * ppn + p, node=n, proc=p)
            for n in range(nodes)
            for p in range(ppn)
        ]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def barrier_cost(self) -> float:
        """Latency of a tree barrier across the communicator."""
        return HOP_LATENCY * max(1.0, math.log2(self.size)) if self.size > 1 else 0.0

    def bcast_cost(self, nbytes: float, bandwidth: float) -> float:
        """Latency of a tree broadcast of *nbytes*."""
        hops = max(1.0, math.log2(self.size))
        return hops * (HOP_LATENCY + nbytes / bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(nodes={self.nodes}, ppn={self.ppn})"
