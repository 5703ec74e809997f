"""Names, units, directions and bounds of everything the ledger reports.

``BENCHMARK.json`` at the root of the repo states the same tables for the
driver; ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the base value by which the metric may worsen before
    #: ``compare`` calls it a regression (None: reported, never gated)
    bound: float | None = None


#: name -> one-line reason the workload exists (also BENCHMARK.json's "why")
WORKLOADS = {
    "n1_checkpoint": (
        "N-1 small strided writes (paper's BT regime): shim dispatch, fd table, "
        "writer, backing and index flush/compaction at close do the work; the read path none"
    ),
    "restart_read": (
        "random 4 KiB preads + sequential scan of a 16-dropping container: index cache, "
        "reader and coalescing do the work, the writer none; fits the program's caches"
    ),
    "metadata_storm": (
        "create/stat/read/rename/unlink of 1,000 tiny files (paper's create storm): mount "
        "resolution, container and re-entrant shim calls; exceeds the 64-entry index cache"
    ),
    "unixtools_stream": (
        "Table II cp/cat/md5sum/cp of 128 MiB in 128 KiB blocks: bytes dominate, per-call "
        "cost is amortised; the control on which a per-call optimisation predicts no change"
    ),
    "rw_interleave": (
        "writer and reader descriptors on one file, every round invalidates what the reader "
        "cached: a read-side caching gain that costs writers or serves stale bytes shows here"
    ),
}

#: The eight end-to-end metrics, same names on every workload.  The timing
#: bounds are what the sandbox's noise floor supports, not what one would
#: wish for: in its quiet minutes ten runs on ten seeds spread (IQR/median)
#: by 3-5%, but a noisy-neighbour episode of a few minutes slows the
#: interpreter-heavy workloads by up to 70%, and a set of ten runs that
#: catches one spreads by 9-16%.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("calls_per_s", "1/s", "higher", 0.25),
    Metric("mib_per_s", "MiB/s", "higher", 0.25),
    Metric("overhead_x", "ratio", "lower", 0.25),
    #: absolute: any rise is a regression (and the value is 0 on a healthy
    #: tree, which is why BENCHMARK.json cannot list it: the driver wants
    #: metrics that are never 0 and carries failures in ``failed`` instead)
    Metric("fail_share", "ratio", "lower", 0.0),
    Metric("space_amp", "ratio", "lower", 0.001),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Layers of the program, outermost first, as the tracer names them.
LAYERS = (
    "unixtools",
    "core.shim",
    "core.mounts",
    "core.fdtable",
    "plfs.api",
    "plfs.container",
    "plfs.writer",
    "plfs.reader",
    "plfs.index",
    "plfs.cache",
    "plfs.backing",
    "syscall",
)

#: Application call kinds that get their own median root-span latency.
CALL_KINDS = (
    "open", "close", "read", "write", "pread", "pwrite", "stat", "fstat",
    "fsync", "listdir", "rename", "unlink", "mkdir",
)


def per_layer_metrics() -> tuple[Metric, ...]:
    out: list[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.calls", "1/call", "lower"))
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.share", "ratio", "lower"))
    out += [
        Metric("app.self_s", "s", "lower"),
        Metric("app.share", "ratio", "lower"),
        Metric("core.shim.reentrant_calls", "1/call", "lower"),
        Metric("core.shim.passthrough_calls", "1/call", "lower"),
        Metric("syscall.stat_calls", "1/call", "lower"),
        Metric("syscall.write_amp", "ratio", "lower"),
        Metric("syscall.read_amp", "ratio", "lower"),
        Metric("plfs.cache.hit_rate", "ratio", "higher"),
        Metric("plfs.cache.builds", "count", "lower"),
        Metric("plfs.index.compactions", "count", "lower"),
        Metric("plfs.reader.preads_per_read", "ratio", "lower"),
        Metric("plfs.writer.generation_bumps", "count", "lower"),
        Metric("plfs.container.files_per_create", "ratio", "lower"),
    ]
    out += [Metric(f"app.{kind}_us", "us", "lower") for kind in CALL_KINDS]
    out += [
        Metric("app.call_p50_us", "us", "lower"),
        Metric("app.call_p99_us", "us", "lower"),
        Metric("app.call_samples", "count", "higher"),
        Metric("app.cold_open_us", "us", "lower"),
        Metric("flat.wall_s", "s", "lower"),
        Metric("trace.overhead_x", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = per_layer_metrics()
