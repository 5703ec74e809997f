"""Small helpers shared across the PLFS implementation."""

from __future__ import annotations

import itertools
import socket
import threading
import time

from . import constants

_seq_lock = threading.Lock()
_seq = itertools.count()


def accumulate(totals: dict, stats: dict) -> None:
    """Add *stats*' numeric counters into *totals* (flags and text skipped)."""
    for key, value in stats.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            totals[key] = totals.get(key, 0) + value


def hostname() -> str:
    """Return this host's name, sanitised for use inside dropping names."""
    return socket.gethostname().replace(".", "_") or "localhost"


def unique_timestamp() -> float:
    """A strictly increasing timestamp for dropping names and index records.

    ``time.time()`` alone can return equal values for back-to-back calls; the
    PLFS index resolves overlapping writes by recency, so ties would make
    overwrite resolution non-deterministic.  We fold in a process-wide
    monotonically increasing sequence number at nanosecond granularity, which
    keeps values unique within a process while remaining ordered against
    other processes at clock resolution (the same guarantee the C library
    relies on).
    """
    with _seq_lock:
        n = next(_seq)
    return time.time() + n * 1e-9


def hostdir_bucket(host: str, num_hostdirs: int = constants.NUM_HOSTDIRS) -> int:
    """Deterministically hash *host* into a ``hostdir.N`` bucket.

    Uses a small FNV-1a so the mapping is stable across Python processes
    (``hash()`` is salted per-process and must not be used here).
    """
    h = 0xCBF29CE484222325
    for byte in host.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % num_hostdirs


def dropping_suffix(host: str, pid: int, ts: float) -> str:
    """The common ``<ts>.<host>.<pid>`` tail of data/index dropping names."""
    return f"{ts:.9f}.{host}.{pid}"


def data_dropping_name(host: str, pid: int, ts: float) -> str:
    return constants.DATA_PREFIX + dropping_suffix(host, pid, ts)


def index_dropping_name(host: str, pid: int, ts: float) -> str:
    return constants.INDEX_PREFIX + dropping_suffix(host, pid, ts)


def wal_dropping_name(host: str, pid: int, ts: float) -> str:
    return constants.WAL_PREFIX + dropping_suffix(host, pid, ts)


def wal_name_for_data(data_name: str) -> str:
    """Map a data dropping file name to its sibling WAL dropping name."""
    if not data_name.startswith(constants.DATA_PREFIX):
        raise ValueError(f"not a data dropping name: {data_name!r}")
    return constants.WAL_PREFIX + data_name[len(constants.DATA_PREFIX):]


def index_name_for_data(data_name: str) -> str:
    """Map a data dropping file name to its sibling index dropping name."""
    if not data_name.startswith(constants.DATA_PREFIX):
        raise ValueError(f"not a data dropping name: {data_name!r}")
    return constants.INDEX_PREFIX + data_name[len(constants.DATA_PREFIX):]
