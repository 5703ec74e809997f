"""Unified I/O run characterisation: the :class:`IORunProfile`.

The profile is the single currency of the insights subsystem.  It can be
built from two very different observations of the same reality:

- :func:`profile_from_trace` — a real :class:`repro.core.trace.Tracer`
  report (the shim path: Table II style workloads run under
  interposition on a local file system);
- :func:`profile_from_run` — a simulated benchmark run's
  :class:`~repro.workloads.base.RunResult`, carrying the platform's
  operation counters and utilisations (the Fig. 3–5 workloads).

Either way the rule engine in :mod:`repro.insights.rules` sees the same
derived metrics: small-write fraction, consecutive-offset
sequentiality, metadata-op rate, shared-file lock-wait share, per-file
skew, dropping-create pressure.  :func:`render_report` /
:func:`report_to_json` print a profile with the findings about its run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.analysis.export import canonical_json
from repro.cluster.machine import MachineSpec
from repro.core.trace import TraceReport
from repro.fs.plfssim import DROPPING_CREATE_OPS
from repro.lint.findings import Finding, findings_to_dict, render_findings
from repro.mpiio.methods import AccessMethod
from repro.sim.stats import GB, MB, SizeHistogram
from repro.workloads.base import RunResult

#: default "small write" threshold for trace-derived profiles (the
#: write-back-cache write-through threshold of the simulated machines)
DEFAULT_SMALL_WRITE = 4 * MB


@dataclass
class IORunProfile:
    """Everything the issue detectors need to know about one run."""

    source: str  # "trace" | "simulation"
    workload: str = ""
    machine: str = ""
    method: str = ""
    nodes: int = 1
    ppn: int = 1
    ranks: int = 1
    #: processes issuing backend writes (aggregators under collective
    #: buffering; every rank for independent I/O)
    writers: int = 1
    #: processes that opened the file (all produce PLFS metadata)
    openers: int = 1
    elapsed_seconds: float = 0.0

    # data-plane totals
    total_bytes_written: float = 0.0
    total_bytes_read: float = 0.0
    write_calls: int = 0
    read_calls: int = 0
    opens: int = 0
    closes: int = 0
    seeks: int = 0
    typical_write_size: float = 0.0
    write_size_histogram: dict[str, int] = field(default_factory=dict)
    read_size_histogram: dict[str, int] = field(default_factory=dict)

    # derived access-pattern metrics
    small_write_threshold: float = DEFAULT_SMALL_WRITE
    small_write_fraction: float = 0.0
    #: fraction of accesses at consecutive offsets (1.0 = pure log)
    sequentiality: float = 1.0
    collective: bool = True
    strided_independent: bool = False
    per_file_skew: float = 1.0
    file_count: int = 1

    # route / layout facts
    uses_plfs: bool = False
    fuse_transport: bool = False
    fuse_max_write: float = 0.0
    shared_file: bool = False
    #: shared-file writes are effectively write-through (lock revocation)
    write_through_shared: bool = True

    # metadata plane
    metadata_ops: int = 0
    metadata_op_counts: dict[str, int] = field(default_factory=dict)
    #: metadata operations per GiB of data moved
    metadata_op_rate: float = 0.0
    dropping_creates: int = 0
    mds_dedicated: bool = False
    mds_count: int = 1
    mds_utilisation: float = 0.0
    mds_busy_seconds: float = 0.0
    mds_peak_create_depth: int = 0
    index_rebuild_ops: int = 0

    # contention
    #: share of aggregate writer time spent queued on shared-file locks
    lock_wait_share: float = 0.0
    io_servers: int = 0
    server_concurrency: int = 1

    # fault / degradation evidence (repro.faults, shim retry policy,
    # simulated MDS outages)
    injected_faults: int = 0
    fault_points: dict[str, int] = field(default_factory=dict)
    transient_retries: int = 0
    short_write_resumes: int = 0
    mds_outages: int = 0
    mds_outage_seconds: float = 0.0
    mds_ops_delayed_by_outage: int = 0

    # trace-only bookkeeping
    buffered_opaque_files: int = 0
    files: list[dict] = field(default_factory=list)

    @property
    def total_bytes(self) -> float:
        return self.total_bytes_written + self.total_bytes_read

    @property
    def write_bandwidth_mbps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_bytes_written / MB / self.elapsed_seconds

    def as_dict(self) -> dict:
        """JSON-ready summary (canonical key order left to the dumper):
        every field but the per-file detail, plus the derived bandwidth."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "files"
        }
        out["write_bandwidth_mbps"] = self.write_bandwidth_mbps
        return out


def attach_fault_evidence(
    profile: IORunProfile,
    *,
    events=None,
    shim_stats: dict | None = None,
) -> IORunProfile:
    """Fold fault evidence into *profile* (returns it for chaining).

    *events* is an iterable of fired fault events (anything with ``point``
    attributes — e.g. :class:`repro.faults.injector.FaultEvent`); the
    injection points are tallied into ``fault_points``.  *shim_stats* is a
    :class:`~repro.core.shim.Shim`'s ``stats`` dict, contributing the
    retry-policy counters.  Kept decoupled from :mod:`repro.faults` so
    insights never imports the injection machinery.
    """
    if events is not None:
        points: dict[str, int] = dict(profile.fault_points)
        count = 0
        for event in events:
            point = getattr(event, "point", None) or str(event)
            points[point] = points.get(point, 0) + 1
            count += 1
        profile.fault_points = points
        profile.injected_faults += count
    if shim_stats:
        profile.transient_retries += int(shim_stats.get("transient_retries", 0))
        profile.short_write_resumes += int(
            shim_stats.get("short_write_resumes", 0)
        )
    return profile


def _cb_aggregation_ratio(stats: dict) -> float:
    accesses = int(stats.get("cb_backend_writes", 0)) + int(
        stats.get("cb_backend_reads", 0)
    )
    if accesses <= 0:
        return 0.0
    return int(stats.get("cb_member_extents", 0)) / accesses


def export_runtime_counters(
    *,
    cache_stats: dict | None = None,
    writer_stats: dict | None = None,
    reader_stats: dict | None = None,
    collective_stats: dict | None = None,
) -> dict:
    """Flatten fast-lane counter dicts into one namespaced counter set.

    The ``counters`` section of a :mod:`repro.bench` ``BenchRecord``:
    the stats dicts of the index cache, writer, reader and collective
    engine under one naming scheme.

    Only *deterministic* counters are exported (counts, not durations):
    bench guards compare these exactly across runs of the same seed, so
    anything timing-dependent (the daemon's queue-wait seconds) stays out
    of a record.
    """
    out: dict[str, int | float] = {}
    if cache_stats:
        out["index_cache_hits"] = int(cache_stats.get("hits", 0))
        out["index_cache_misses"] = int(cache_stats.get("misses", 0))
        out["compacted_index_loads"] = int(cache_stats.get("compacted_loads", 0))
        out["index_rebuild_ops"] = int(cache_stats.get("merged_builds", 0))
        out["index_cache_invalidations"] = int(cache_stats.get("invalidations", 0))
    if writer_stats:
        out["write_appends"] = int(writer_stats.get("appends", 0))
        out["write_records_merged"] = int(writer_stats.get("records_merged", 0))
        out["write_index_flushes"] = int(writer_stats.get("index_flushes", 0))
    if reader_stats:
        out["read_preads"] = int(reader_stats.get("preads", 0))
        out["read_preads_coalesced"] = int(reader_stats.get("coalesced_slices", 0))
        out["read_sieved_gap_bytes"] = int(reader_stats.get("sieved_gap_bytes", 0))
        out["read_index_builds"] = int(reader_stats.get("index_builds", 0))
        if out["read_preads"]:
            out["read_coalesce_rate"] = (
                out["read_preads_coalesced"] / out["read_preads"]
            )
    if collective_stats:
        out["cb_rounds"] = int(collective_stats.get("cb_rounds", 0))
        out["cb_member_extents"] = int(collective_stats.get("cb_member_extents", 0))
        out["cb_backend_writes"] = int(collective_stats.get("cb_backend_writes", 0))
        out["cb_backend_reads"] = int(collective_stats.get("cb_backend_reads", 0))
        out["cb_exchange_messages"] = int(
            collective_stats.get("exchange_messages", 0)
        )
        out["cb_exchange_bytes"] = int(collective_stats.get("exchange_bytes", 0))
        out["listio_runs"] = int(collective_stats.get("listio_runs", 0))
        out["listio_backend_calls"] = int(
            collective_stats.get("listio_backend_calls", 0)
        )
        out["ds_sieve_hits"] = int(collective_stats.get("sieve_hits", 0))
        out["ds_sieve_read_bytes"] = int(collective_stats.get("sieve_read_bytes", 0))
        ratio = _cb_aggregation_ratio(collective_stats)
        if ratio:
            out["cb_aggregation_ratio"] = ratio
    return out


# ---------------------------------------------------------------------- #
# simulation path
# ---------------------------------------------------------------------- #


def profile_from_run(
    result: RunResult,
    machine: MachineSpec,
    method: AccessMethod,
    *,
    workload: str = "",
) -> IORunProfile:
    """Characterise a simulated benchmark run.

    Uses the pattern details the workload recorded
    (``write_size``/``collective``/``strided``) plus the platform report
    captured at the end of the run (metadata op counts, MDS utilisation,
    lock waits, peak create depth).
    """
    perf = machine.perf
    report = result.platform_report or {}
    details = result.details
    ranks = result.nodes * result.ppn

    op_counts = dict(report.get("mds_op_counts", {}))
    dropping_creates = op_counts.get("dropping_create", 0)
    collective = bool(details.get("collective", True))
    write_size = float(details.get("write_size", 0.0))
    calls_per_rank = int(details.get("write_calls_per_rank", 0))
    write_calls = calls_per_rank * ranks

    if method.uses_plfs and dropping_creates:
        writers = dropping_creates // DROPPING_CREATE_OPS
    elif collective:
        writers = result.nodes
    else:
        writers = ranks
    openers = ranks if method.uses_plfs else 1

    hist = SizeHistogram()
    if write_calls and write_size > 0:
        hist.add(write_size, write_calls)
    header_writes = int(details.get("header_writes", 0))
    if header_writes:
        hist.add(float(details.get("header_bytes", 0.0)), header_writes)
        write_calls += header_writes

    # Sequentiality as the backend sees the byte stream: PLFS droppings
    # are pure logs; collectively buffered shared files are contiguous
    # within an aggregator's round; strided independent shared writes
    # interleave ranks at every offset.
    if method.uses_plfs:
        sequentiality = 1.0
    elif collective:
        sequentiality = 0.9
    elif details.get("strided"):
        sequentiality = 1.0 / max(ranks, 1)
    else:
        sequentiality = 0.5

    elapsed = result.write_seconds + result.read_seconds
    lock_wait = float(report.get("shared_lock_wait_seconds", 0.0))
    lock_wait_share = 0.0
    if elapsed > 0 and writers > 0:
        lock_wait_share = min(1.0, lock_wait / (elapsed * writers))

    total_gib = max(result.total_bytes / GB, 1e-12)
    mds_ops = int(report.get("mds_ops", result.mds_ops))
    index_rebuild = op_counts.get("container_readdir", 0) + op_counts.get(
        "hostdir_readdir", 0
    )

    if not workload and "class" in details:
        workload = f"bt.{details['class']}"
    return IORunProfile(
        source="simulation",
        workload=workload,
        machine=result.machine,
        method=result.method,
        nodes=result.nodes,
        ppn=result.ppn,
        ranks=ranks,
        writers=writers,
        openers=openers,
        elapsed_seconds=elapsed,
        total_bytes_written=result.total_bytes,
        total_bytes_read=result.total_bytes if result.read_seconds > 0 else 0.0,
        write_calls=write_calls,
        read_calls=write_calls if result.read_seconds > 0 else 0,
        opens=openers,
        closes=openers,
        seeks=0,
        typical_write_size=write_size,
        write_size_histogram=hist.as_dict(),
        read_size_histogram={},
        small_write_threshold=perf.cache_write_through,
        small_write_fraction=hist.fraction_at_most(perf.cache_write_through),
        sequentiality=sequentiality,
        collective=collective,
        strided_independent=bool(details.get("strided", False)),
        per_file_skew=1.0,
        file_count=1,
        uses_plfs=method.uses_plfs,
        fuse_transport=method.fuse_transport,
        fuse_max_write=perf.fuse_max_write,
        shared_file=not method.uses_plfs,
        write_through_shared=not method.uses_plfs,
        metadata_ops=mds_ops,
        metadata_op_counts=op_counts,
        metadata_op_rate=mds_ops / total_gib,
        dropping_creates=dropping_creates,
        mds_dedicated=int(report.get("mds_count", perf.mds_count)) == 1,
        mds_count=int(report.get("mds_count", perf.mds_count)),
        mds_utilisation=float(report.get("mds_utilisation", 0.0)),
        mds_busy_seconds=float(report.get("mds_busy_seconds", 0.0)),
        mds_peak_create_depth=int(
            report.get("mds_peak_create_depth", 0)
        ),
        index_rebuild_ops=index_rebuild,
        lock_wait_share=lock_wait_share,
        io_servers=int(report.get("io_servers", machine.io_servers)),
        server_concurrency=perf.server_concurrency,
        mds_outages=int(report.get("mds_outages", 0)),
        mds_outage_seconds=float(report.get("mds_outage_seconds", 0.0)),
        mds_ops_delayed_by_outage=int(
            report.get("mds_ops_delayed_by_outage", 0)
        ),
    )


# ---------------------------------------------------------------------- #
# trace path
# ---------------------------------------------------------------------- #


def profile_from_trace(
    report: TraceReport,
    *,
    small_write_threshold: float = DEFAULT_SMALL_WRITE,
    elapsed_seconds: float = 0.0,
    shared_file: bool = False,
    workload: str = "",
) -> IORunProfile:
    """Characterise a real traced run (the LDPLFS shim path).

    *shared_file* tells the detectors the traced application writes one
    file from many processes (a single tracer only sees its own process,
    so this is caller-supplied context, as Drishti takes it from the
    Darshan header).
    """
    write_hist = SizeHistogram()
    read_hist = SizeHistogram()
    opens = closes = seeks = reads = writes = 0
    bytes_read = bytes_written = 0.0
    sequential = accesses = 0
    buffered_opaque = 0
    dropping_creates = 0
    per_file: list[dict] = []
    io_time = 0.0

    for path in sorted(report.files):
        f = report.files[path]
        opens += f.opens
        closes += f.closes
        seeks += f.seeks
        reads += f.reads
        writes += f.writes
        bytes_read += f.bytes_read
        bytes_written += f.bytes_written
        write_hist.merge(f.write_sizes)
        read_hist.merge(f.read_sizes)
        sequential += f.sequential_accesses
        accesses += f.accesses
        io_time += f.read_time + f.write_time
        if f.buffered and f.accesses == 0:
            buffered_opaque += 1
        if "dropping" in path:
            dropping_creates += f.opens
        per_file.append(
            {
                "path": path,
                "opens": f.opens,
                "closes": f.closes,
                "reads": f.reads,
                "writes": f.writes,
                "seeks": f.seeks,
                "bytes_read": f.bytes_read,
                "bytes_written": f.bytes_written,
                "sequentiality": f.sequentiality,
                "buffered": f.buffered,
                "mode": f.mode,
            }
        )

    touched = [
        f for f in report.files.values() if f.bytes_read + f.bytes_written > 0
    ]
    skew = 1.0
    if len(touched) > 1:
        volumes = [f.bytes_read + f.bytes_written for f in touched]
        skew = max(volumes) / (sum(volumes) / len(volumes))

    # Metadata rate for a POSIX trace: namespace ops (opens/closes) per
    # GiB moved — the analogue of the simulator's MDS op rate.
    total_bytes = bytes_read + bytes_written
    meta_ops = opens + closes
    meta_rate = meta_ops / max(total_bytes / GB, 1e-12)

    return IORunProfile(
        source="trace",
        workload=workload,
        elapsed_seconds=elapsed_seconds or io_time,
        total_bytes_written=bytes_written,
        total_bytes_read=bytes_read,
        write_calls=writes,
        read_calls=reads,
        opens=opens,
        closes=closes,
        seeks=seeks,
        typical_write_size=bytes_written / writes if writes else 0.0,
        write_size_histogram=write_hist.as_dict(),
        read_size_histogram=read_hist.as_dict(),
        small_write_threshold=small_write_threshold,
        small_write_fraction=write_hist.fraction_at_most(small_write_threshold),
        sequentiality=(sequential / accesses) if accesses else 1.0,
        collective=False,
        strided_independent=False,
        per_file_skew=skew,
        file_count=len(report.files),
        shared_file=shared_file,
        write_through_shared=shared_file,
        metadata_ops=meta_ops,
        metadata_op_counts={"open": opens, "close": closes, "seek": seeks},
        metadata_op_rate=meta_rate,
        dropping_creates=dropping_creates,
        buffered_opaque_files=buffered_opaque,
        files=per_file,
    )


# ---------------------------------------------------------------------- #
# the run report: this profile, then the findings (text and JSON)
# ---------------------------------------------------------------------- #


def _label(p: IORunProfile) -> str:
    return " ".join(x for x in (p.workload, p.machine, p.method) if x) or "(unlabelled run)"


def _human_bytes(n: float) -> str:
    if n >= 1024**3:
        return f"{n / 1024 ** 3:.2f} GiB"
    if n >= 1024**2:
        return f"{n / 1024 ** 2:.2f} MiB"
    if n >= 1024:
        return f"{n / 1024:.1f} KiB"
    return f"{n:.0f} B"


def render_profile(profile: IORunProfile) -> str:
    """The characterisation header of a Drishti-style console report."""
    p = profile
    lines = [
        f"I/O insights — {_label(p)} [{p.source}]",
        (
            f"  {p.ranks} ranks on {p.nodes} node(s) x {p.ppn} ppn; "
            f"{p.writers} writer(s), {p.openers} opener(s)"
        ),
        (
            f"  wrote {_human_bytes(p.total_bytes_written)} in "
            f"{p.write_calls} calls"
            + (
                f", read {_human_bytes(p.total_bytes_read)} in "
                f"{p.read_calls} calls"
                if p.read_calls
                else ""
            )
        ),
        (
            f"  typical write {_human_bytes(p.typical_write_size)}; "
            f"small-write fraction {p.small_write_fraction:.0%} "
            f"(<= {p.small_write_threshold / MB:.0f} MB); "
            f"sequentiality {p.sequentiality:.0%}"
        ),
        (
            f"  metadata: {p.metadata_ops} ops "
            f"({p.metadata_op_rate:.0f}/GiB), "
            f"{p.dropping_creates} dropping creates, MDS x{p.mds_count} "
            f"{p.mds_utilisation:.0%} busy "
            f"(peak create depth {p.mds_peak_create_depth})"
        ),
    ]
    if p.elapsed_seconds > 0:
        lines.append(
            f"  elapsed {p.elapsed_seconds:.2f} s "
            f"-> {p.write_bandwidth_mbps:.0f} MB/s write"
        )
    if p.shared_file:
        lines.append(f"  shared file: lock-wait share {p.lock_wait_share:.0%}")
    if p.write_size_histogram:
        hist = ", ".join(
            f"{label}: {count}" for label, count in p.write_size_histogram.items()
        )
        lines.append(f"  write sizes: {hist}")
    return "\n".join(lines)


def render_report(profile: IORunProfile, findings: list[Finding]) -> str:
    """The profile, then every finding about the run — the detectors' and
    any linted script's — most severe first."""
    return "\n".join([render_profile(profile), "-" * 72, render_findings(findings)])


def report_to_dict(profile: IORunProfile, findings: list[Finding]) -> dict:
    report = findings_to_dict(findings, target=_label(profile))
    report["profile"] = profile.as_dict()
    return report


def report_to_json(profile: IORunProfile, findings: list[Finding]) -> str:
    """Canonical JSON report (byte-identical for identical runs)."""
    return canonical_json(report_to_dict(profile, findings))
