"""Measurement helpers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

MB = 1024.0 * 1024.0
GB = 1024.0 * MB

#: Darshan-style access-size buckets: (inclusive upper bound, label).
#: Shared by the tracer and the insights characterisation layer so that
#: observed and simulated histograms are directly comparable.
SIZE_BUCKETS: tuple[tuple[float, str], ...] = (
    (100.0, "0-100"),
    (1e3, "100-1K"),
    (1e4, "1K-10K"),
    (1e5, "10K-100K"),
    (1e6, "100K-1M"),
    (4e6, "1M-4M"),
    (1e7, "4M-10M"),
    (1e8, "10M-100M"),
    (1e9, "100M-1G"),
    (float("inf"), "1G+"),
)

SIZE_BUCKET_LABELS: tuple[str, ...] = tuple(label for _, label in SIZE_BUCKETS)


def size_bucket(nbytes: float) -> str:
    """The histogram bucket label an access of *nbytes* falls into."""
    for bound, label in SIZE_BUCKETS:
        if nbytes <= bound:
            return label
    return SIZE_BUCKETS[-1][1]


@dataclass
class SizeHistogram:
    """Access-size histogram over the Darshan-style decade buckets."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, nbytes: float, n: int = 1) -> None:
        label = size_bucket(nbytes)
        self.counts[label] = self.counts.get(label, 0) + n

    def merge(self, other: "SizeHistogram") -> None:
        for label, n in other.counts.items():
            self.counts[label] = self.counts.get(label, 0) + n

    def total(self) -> int:
        return sum(self.counts.values())

    def fraction_at_most(self, limit: float) -> float:
        """Fraction of accesses in buckets wholly at or below *limit*."""
        total = self.total()
        if total == 0:
            return 0.0
        small = sum(
            self.counts.get(label, 0)
            for bound, label in SIZE_BUCKETS
            if bound <= limit
        )
        return small / total

    def as_dict(self) -> dict[str, int]:
        """Non-zero buckets in canonical bucket order (JSON-stable)."""
        return {
            label: self.counts[label]
            for label in SIZE_BUCKET_LABELS
            if self.counts.get(label, 0)
        }


@dataclass
class OpCounter:
    """Counts of operations by kind, e.g. MDS loads or lock acquisitions."""

    counts: dict[str, int] = field(default_factory=dict)

    def hit(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def get(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def total(self) -> int:
        return sum(self.counts.values())
