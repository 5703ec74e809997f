"""Severity-graded I/O issue detectors (the Drishti-style rule engine).

Each detector inspects an :class:`~repro.insights.metrics.IORunProfile`
and either returns a :class:`~repro.lint.findings.Finding` from its
catalogue row (``LDP401``–``LDP412``, numbered in :data:`ALL_RULES`
order) — severity, human explanation, actionable recommendation, and the
*evidence* (the exact metric values that triggered it) — or ``None``.
The rules are keyed to the paper's phenomena:

- small writes funnelled through a write-through shared file (the BT
  regime of Fig. 4 → deploy PLFS via LDPLFS);
- the per-rank dropping-create storm that melts a dedicated Lustre MDS
  (the Fig. 5 collapse → PLFS harmful at this scale);
- uncollective strided writes (§II → enable ROMIO collective buffering);
- FUSE request chunking (Fig. 3's FUSE deficit → use LDPLFS instead);
- an unflattened PLFS index on a read-heavy reopen (§III.B).

Thresholds follow Drishti's conventions (fractions of operations /
utilisations, validated to lie in [0, 1]) but are tuned to the paper's
machines; override them per call if a site needs different trip points.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.lint.findings import RULES, Finding, Severity, sort_findings
from repro.mpiio.hints import suggest_collective_hints

from .metrics import IORunProfile

#: trip points (module-level so sites can tune them, Drishti-style)
THRESHOLD_SMALL_WRITES = 0.5
THRESHOLD_SMALL_WRITES_HIGH = 0.9
THRESHOLD_MDS_UTILISATION = 0.5
THRESHOLD_MDS_UTILISATION_WARN = 0.25
THRESHOLD_LOCK_WAIT = 0.25
THRESHOLD_LOCK_WAIT_HIGH = 0.5
THRESHOLD_METADATA_RATE = 500.0  # metadata ops per GiB moved
THRESHOLD_RANDOM_ACCESS = 0.5
THRESHOLD_SKEW = 3.0
#: droppings beyond which an unflattened index read noticeably hurts
THRESHOLD_INDEX_DROPPINGS = 64
#: writers per server channel beyond which stream interleaving erodes
THRESHOLD_STREAM_OVERPROVISION = 4


def validate_thresholds() -> None:
    assert 0.0 <= THRESHOLD_SMALL_WRITES <= 1.0
    assert 0.0 <= THRESHOLD_SMALL_WRITES_HIGH <= 1.0
    assert 0.0 <= THRESHOLD_MDS_UTILISATION <= 1.0
    assert 0.0 <= THRESHOLD_MDS_UTILISATION_WARN <= 1.0
    assert 0.0 <= THRESHOLD_LOCK_WAIT <= 1.0
    assert 0.0 <= THRESHOLD_RANDOM_ACCESS <= 1.0
    assert THRESHOLD_METADATA_RATE >= 0.0
    assert THRESHOLD_SKEW >= 1.0


Detector = Callable[[IORunProfile], Optional[Finding]]


# ---------------------------------------------------------------------- #
# detectors
# ---------------------------------------------------------------------- #


def detect_small_writes_shared_file(p: IORunProfile) -> Optional[Finding]:
    """Small writes on a write-through shared file — the Fig. 4 regime.

    A shared file never keeps its pages dirty (conflicting extent locks
    revoke them), so every small write pays the full backend round trip.
    PLFS's per-process logs are lock-free and cache-absorbable: this is
    the configuration where the paper measures up to ~20x from PLFS, and
    LDPLFS delivers it without rebuilding the application.
    """
    if p.uses_plfs or not p.shared_file or p.write_calls == 0:
        return None
    if p.small_write_fraction < THRESHOLD_SMALL_WRITES:
        return None
    severity = (
        Severity.HIGH
        if p.small_write_fraction >= THRESHOLD_SMALL_WRITES_HIGH
        and p.write_through_shared
        else Severity.RECOMMEND
    )
    return RULES["LDP403"].finding(
        f"{p.small_write_fraction:.0%} of {p.write_calls} write calls are at or "
        f"below {p.small_write_threshold / 1024:.0f} KB on a shared file; "
        "extent-lock revocation makes these writes synchronous.",
        severity=severity,
        small_write_fraction=p.small_write_fraction,
        small_write_threshold=p.small_write_threshold,
        typical_write_size=p.typical_write_size,
        write_calls=p.write_calls,
        lock_wait_share=p.lock_wait_share,
    )


def detect_mds_create_storm(p: IORunProfile) -> Optional[Finding]:
    """Per-rank dropping creates melting a dedicated MDS — the Fig. 5 cliff."""
    if not p.uses_plfs or not p.mds_dedicated or p.dropping_creates == 0:
        return None
    if p.mds_utilisation < THRESHOLD_MDS_UTILISATION_WARN:
        return None
    severity = (
        Severity.HIGH
        if p.mds_utilisation >= THRESHOLD_MDS_UTILISATION
        else Severity.WARN
    )
    return RULES["LDP402"].finding(
        f"{p.dropping_creates} dropping creates from {p.writers} writers "
        f"funnel through {p.mds_count} metadata server(s); the MDS was "
        f"{p.mds_utilisation:.0%} busy with a peak of "
        f"{p.mds_peak_create_depth} concurrent creates — the regime where "
        "the paper measures PLFS collapsing below plain MPI-IO.",
        severity=severity,
        dropping_creates=p.dropping_creates,
        writers=p.writers,
        mds_count=p.mds_count,
        mds_utilisation=p.mds_utilisation,
        mds_peak_create_depth=p.mds_peak_create_depth,
        mds_dedicated=p.mds_dedicated,
    )


def detect_uncollective_strided_writes(p: IORunProfile) -> Optional[Finding]:
    """Every rank writing its own strided piece with no aggregation (§II)."""
    if p.collective or not p.strided_independent or p.ranks <= 1:
        return None
    hints = suggest_collective_hints(p.nodes, p.typical_write_size * p.ppn)
    return RULES["LDP406"].finding(
        f"{p.ranks} ranks issue {p.write_calls} independent writes of "
        f"~{p.typical_write_size / 1024:.0f} KB at interleaved offsets; "
        "two-phase collective buffering would aggregate each node's data "
        "into one large well-formed write.",
        recommendation=(
            "use collective MPI-IO calls with ROMIO collective buffering "
            f"(romio_cb_write=enable, cb_nodes={hints.cb_nodes}, "
            f"cb_buffer_size={int(hints.cb_buffer_size)})"
        ),
        ranks=p.ranks,
        write_calls=p.write_calls,
        typical_write_size=p.typical_write_size,
        suggested_cb_nodes=hints.cb_nodes,
        suggested_cb_buffer_size=hints.cb_buffer_size,
    )


def detect_fuse_request_chunking(p: IORunProfile) -> Optional[Finding]:
    """FUSE splitting large requests into max_write chunks (Fig. 3)."""
    if not p.fuse_transport or p.fuse_max_write <= 0:
        return None
    if p.typical_write_size <= p.fuse_max_write:
        return None
    chunks = int(p.typical_write_size // p.fuse_max_write) + (
        1 if p.typical_write_size % p.fuse_max_write else 0
    )
    return RULES["LDP405"].finding(
        f"writes of ~{p.typical_write_size / 1024:.0f} KB cross the FUSE "
        f"mount, which splits them into {chunks} kernel requests of "
        f"{p.fuse_max_write / 1024:.0f} KB each — double user/kernel "
        "crossings per chunk.",
        typical_write_size=p.typical_write_size,
        fuse_max_write=p.fuse_max_write,
        chunks_per_call=chunks,
    )


def detect_unflattened_index_reopen(p: IORunProfile) -> Optional[Finding]:
    """Read-heavy reopen paying the per-dropping global-index build (§III.B)."""
    if not p.uses_plfs or p.read_calls == 0 or p.index_rebuild_ops == 0:
        return None
    if p.writers < THRESHOLD_INDEX_DROPPINGS:
        return None
    return RULES["LDP407"].finding(
        f"the container holds ~{p.writers} index droppings; each reopen "
        f"for read performed {p.index_rebuild_ops} directory scans plus "
        "one small read per dropping to rebuild the global index.",
        droppings=p.writers,
        index_rebuild_ops=p.index_rebuild_ops,
        read_calls=p.read_calls,
    )


def detect_shared_file_lock_serialisation(p: IORunProfile) -> Optional[Finding]:
    """Writers queueing on a shared file's extent locks."""
    if p.uses_plfs or not p.shared_file:
        return None
    if p.lock_wait_share < THRESHOLD_LOCK_WAIT:
        return None
    severity = (
        Severity.HIGH
        if p.lock_wait_share >= THRESHOLD_LOCK_WAIT_HIGH
        else Severity.WARN
    )
    return RULES["LDP404"].finding(
        f"{p.writers} writers spent {p.lock_wait_share:.0%} of their time "
        "queued behind the shared file's byte-range locks instead of "
        "moving data.",
        severity=severity,
        lock_wait_share=p.lock_wait_share,
        writers=p.writers,
    )


def detect_metadata_heavy(p: IORunProfile) -> Optional[Finding]:
    """Metadata operations out of proportion to data moved."""
    if p.metadata_ops < 100 or p.metadata_op_rate < THRESHOLD_METADATA_RATE:
        return None
    return RULES["LDP409"].finding(
        f"{p.metadata_ops} metadata operations for "
        f"{p.total_bytes / (1024 ** 3):.2f} GiB of data "
        f"({p.metadata_op_rate:.0f} ops/GiB).",
        metadata_ops=p.metadata_ops,
        metadata_op_rate=p.metadata_op_rate,
    )


def detect_rank_imbalance(p: IORunProfile) -> Optional[Finding]:
    """One file (or rank's file) carrying a skewed share of the traffic."""
    if p.file_count <= 1 or p.per_file_skew < THRESHOLD_SKEW:
        return None
    return RULES["LDP410"].finding(
        f"the busiest of {p.file_count} files moved "
        f"{p.per_file_skew:.1f}x the per-file mean; stragglers gate "
        "collective phases.",
        per_file_skew=p.per_file_skew,
        file_count=p.file_count,
    )


def detect_random_access(p: IORunProfile) -> Optional[Finding]:
    """Non-consecutive offsets forcing positioning time on every access."""
    if p.write_calls + p.read_calls < 10:
        return None
    if p.sequentiality >= THRESHOLD_RANDOM_ACCESS:
        return None
    return RULES["LDP408"].finding(
        f"only {p.sequentiality:.0%} of accesses continue at the previous "
        "offset; the backend pays positioning time on nearly every "
        "operation.",
        sequentiality=p.sequentiality,
        accesses=p.write_calls + p.read_calls,
        seeks=p.seeks,
    )


def detect_buffered_opacity(p: IORunProfile) -> Optional[Finding]:
    """Trace files whose buffered traffic the tracer could not account."""
    if p.source != "trace" or p.buffered_opaque_files == 0:
        return None
    return RULES["LDP412"].finding(
        f"{p.buffered_opaque_files} file(s) were opened through "
        "builtins.open but show zero accounted bytes; their I/O happened "
        "below the traced layer (or never happened).",
        buffered_opaque_files=p.buffered_opaque_files,
    )


def detect_stream_overprovision(p: IORunProfile) -> Optional[Finding]:
    """More concurrent streams than the disk arrays can interleave well."""
    if not p.uses_plfs or p.io_servers == 0:
        return None
    channels = p.io_servers * max(p.server_concurrency, 1)
    if p.writers <= THRESHOLD_STREAM_OVERPROVISION * channels:
        return None
    return RULES["LDP411"].finding(
        f"{p.writers} concurrent droppings share {channels} server "
        "channels; interleaving that many streams erodes each array's "
        "sequential efficiency, so bandwidth has stopped scaling with "
        "writers.",
        writers=p.writers,
        io_servers=p.io_servers,
        server_channels=channels,
    )


def detect_fault_degraded_run(p: IORunProfile) -> Optional[Finding]:
    """The run ran degraded: injected faults fired, the shim's retry
    policy absorbed transient errors, or a metadata-service outage stalled
    the run.  Cites the fault evidence so the reader can separate "the
    storage was sick" from "the access pattern was wrong"."""
    if (
        p.injected_faults == 0
        and p.transient_retries == 0
        and p.short_write_resumes == 0
        and p.mds_outage_seconds == 0
    ):
        return None
    degraded_hard = bool(p.injected_faults or p.mds_outage_seconds)
    pieces = []
    if p.injected_faults:
        per_point = ", ".join(
            f"{n}x {point}" for point, n in sorted(p.fault_points.items())
        )
        pieces.append(
            f"{p.injected_faults} fault(s) fired ({per_point or 'unattributed'})"
        )
    if p.transient_retries or p.short_write_resumes:
        pieces.append(
            f"the shim retried {p.transient_retries} transient error(s) and "
            f"resumed {p.short_write_resumes} short write(s)"
        )
    if p.mds_outage_seconds:
        pieces.append(
            f"{p.mds_outages} MDS outage(s) totalling "
            f"{p.mds_outage_seconds:.1f}s delayed "
            f"{p.mds_ops_delayed_by_outage} metadata op(s)"
        )
    return RULES["LDP401"].finding(
        "; ".join(pieces) + ".",
        severity=Severity.WARN if degraded_hard else Severity.INFO,
        injected_faults=p.injected_faults,
        fault_points=dict(p.fault_points),
        transient_retries=p.transient_retries,
        short_write_resumes=p.short_write_resumes,
        mds_outages=p.mds_outages,
        mds_outage_seconds=p.mds_outage_seconds,
        mds_ops_delayed_by_outage=p.mds_ops_delayed_by_outage,
    )


#: registration order is the catalogue order (LDP401...LDP412), and so the
#: tiebreak for equal-severity findings
ALL_RULES: list[Detector] = [
    detect_fault_degraded_run,
    detect_mds_create_storm,
    detect_small_writes_shared_file,
    detect_shared_file_lock_serialisation,
    detect_fuse_request_chunking,
    detect_uncollective_strided_writes,
    detect_unflattened_index_reopen,
    detect_random_access,
    detect_metadata_heavy,
    detect_rank_imbalance,
    detect_stream_overprovision,
    detect_buffered_opacity,
]


def run_rules(
    profile: IORunProfile, rules: list[Detector] | None = None
) -> list[Finding]:
    """Run every detector; findings sorted most severe first."""
    findings = [rule(profile) for rule in rules or ALL_RULES]
    return sort_findings([f for f in findings if f is not None])
