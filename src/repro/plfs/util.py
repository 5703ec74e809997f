"""Small helpers shared across the PLFS implementation."""

from __future__ import annotations

import functools
import math
import socket
import threading
import time

from . import constants

_stamp_lock = threading.Lock()
_last_stamp = 0.0


def accumulate(totals: dict, stats: dict) -> None:
    """Add *stats*' numeric counters into *totals* (flags and text skipped)."""
    for key, value in stats.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            totals[key] = totals.get(key, 0) + value


@functools.cache
def hostname() -> str:
    """Return this host's name, sanitised for use inside dropping names
    (asked of the system once per process, not once per path naming it)."""
    return socket.gethostname().replace(".", "_") or "localhost"


def unique_timestamp() -> float:
    """A strictly increasing timestamp for dropping names and index records.

    ``time.time()`` alone can return equal values for back-to-back calls,
    and a smaller one after the clock steps back; the PLFS index resolves
    overlapping writes by recency, so either would make overwrite
    resolution arbitrary.  Each call returns the clock, or the next double
    above the previous result when the clock has not passed it — unique and
    ordered within a process while remaining ordered against other
    processes at clock resolution (the same guarantee the C library relies
    on).  A nanosecond sequence term would not do: at today's epoch a
    double's resolution is about 0.24 µs.
    """
    global _last_stamp
    with _stamp_lock:
        now = time.time()
        # max(now, nextafter(last, inf)), without the calls when the clock
        # has moved past the last stamp (then it is at least nextafter's)
        _last_stamp = now if now > _last_stamp else math.nextafter(_last_stamp, math.inf)
        return _last_stamp


@functools.lru_cache(maxsize=64)
def hostdir_bucket(host: str, num_hostdirs: int = constants.NUM_HOSTDIRS) -> int:
    """Deterministically hash *host* into a ``hostdir.N`` bucket.

    Uses a small FNV-1a so the mapping is stable across Python processes
    (``hash()`` is salted per-process and must not be used here); the
    buckets of the last 64 hosts asked about are remembered, so the local
    host's is computed once per process.
    """
    h = 0xCBF29CE484222325
    for byte in host.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % num_hostdirs


def dropping_suffix(host: str, pid: int, ts: float) -> str:
    """The common ``<ts>.<host>.<pid>`` tail of data/index dropping names."""
    return f"{ts:.9f}.{host}.{pid}"


def index_name_for_data(data_name: str) -> str:
    """Map a data dropping file name to its sibling index dropping name."""
    if not data_name.startswith(constants.DATA_PREFIX):
        raise ValueError(f"not a data dropping name: {data_name!r}")
    return constants.INDEX_PREFIX + data_name[len(constants.DATA_PREFIX):]
