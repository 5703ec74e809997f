"""An I/O tracing interposer that stacks with LDPLFS.

The paper's footnote 1: "although LDPLFS makes use of the LD_PRELOAD
environmental variable ... other libraries can also make use of the
dynamic loader (by appending multiple libraries into the environmental
variable), allowing tracing tools to be used alongside LDPLFS."  This is
that tracing tool — a Darshan-style characterisation layer that records
per-file operation counts, byte totals, access-size histograms, seek and
close counts, consecutive-offset sequentiality and timings: the inputs
the :mod:`repro.insights` rule engine needs to diagnose a run.

It is a second :class:`~repro.core.interpose.Layer` on the stack LDPLFS
is a layer of — the same symbols (``os.*``, ``builtins.open`` *and*
``io.open``), whatever is currently installed saved underneath, modules
that bound their calls at import reached by :meth:`Tracer.wrap_module` —
and which calls it stands in for is read off the tags of the
interposed-symbol table (:data:`repro.plfs.route.INTERPOSED`).  Layers
come off in reverse order of install.  It composes in either order:

- install the tracer *after* LDPLFS and it observes the application's
  logical I/O (calls destined for PLFS included);
- install it *before* and it observes the physical backend traffic the
  PLFS layer generates.

Use :class:`Tracer` directly or the :func:`traced` context manager::

    with interposed(mounts):
        with traced() as tracer:
            run_application()
    print(tracer.report())

Buffered I/O: ``builtins.open`` file objects perform their reads and
writes below the Python symbol layer (the C ``io`` module calls the
syscalls directly), so a symbol interposer cannot see them at the ``os``
level.  The tracer therefore wraps every :class:`io.IOBase` object that
``builtins.open`` returns in a delegating proxy that accounts at the
file-object layer (logical bytes; text-mode lengths are character
counts).  Files opened this way are flagged ``buffered`` in the report
so a reader knows which accounting layer produced their numbers —
previously such files reported 0 bytes as if no I/O had happened.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MethodType

from repro.plfs.route import INTERPOSED
from repro.sim.stats import SizeHistogram

from .interpose import Layer


@dataclass
class FileStats:
    """Accumulated statistics for one path (or descriptor lineage)."""

    path: str
    opens: int = 0
    closes: int = 0
    reads: int = 0
    writes: int = 0
    seeks: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_time: float = 0.0
    write_time: float = 0.0
    max_read: int = 0
    max_write: int = 0
    #: accesses whose offset continued exactly where the previous access
    #: on the same descriptor ended (consecutive-offset sequentiality)
    sequential_accesses: int = 0
    read_sizes: SizeHistogram = field(default_factory=SizeHistogram)
    write_sizes: SizeHistogram = field(default_factory=SizeHistogram)
    #: last ``builtins.open`` mode seen for this path ("" = os-level only)
    mode: str = ""
    #: True when I/O was accounted at the buffered file-object layer
    buffered: bool = False

    def observe_read(self, nbytes: int, elapsed: float, *, sequential: bool = True) -> None:
        self.reads += 1
        self.bytes_read += nbytes
        self.read_time += elapsed
        self.read_sizes.add(nbytes)
        if sequential:
            self.sequential_accesses += 1
        if nbytes > self.max_read:
            self.max_read = nbytes

    def observe_write(self, nbytes: int, elapsed: float, *, sequential: bool = True) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        self.write_time += elapsed
        self.write_sizes.add(nbytes)
        if sequential:
            self.sequential_accesses += 1
        if nbytes > self.max_write:
            self.max_write = nbytes

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def sequentiality(self) -> float:
        """Fraction of accesses at consecutive offsets (1.0 = pure log)."""
        if self.accesses == 0:
            return 1.0
        return self.sequential_accesses / self.accesses


@dataclass
class TraceReport:
    files: dict[str, FileStats] = field(default_factory=dict)

    @property
    def total_bytes_written(self) -> int:
        return sum(f.bytes_written for f in self.files.values())

    @property
    def total_bytes_read(self) -> int:
        return sum(f.bytes_read for f in self.files.values())

    @property
    def total_ops(self) -> int:
        return sum(f.opens + f.reads + f.writes for f in self.files.values())

    def render(self) -> str:
        lines = [
            f"{'file':40s} {'opens':>5s} {'reads':>6s} {'writes':>6s} "
            f"{'seeks':>5s} {'B read':>10s} {'B written':>10s} {'seq':>5s}"
        ]
        for path in sorted(self.files):
            f = self.files[path]
            note = ""
            if f.buffered:
                note = " [opacity: buffered]" if f.accesses == 0 else " [buffered]"
            lines.append(
                f"{path[-40:]:40s} {f.opens:5d} {f.reads:6d} {f.writes:6d} "
                f"{f.seeks:5d} {f.bytes_read:10d} {f.bytes_written:10d} "
                f"{f.sequentiality:5.0%}{note}"
            )
        lines.append(
            f"total: {self.total_ops} ops, {self.total_bytes_read} B read, "
            f"{self.total_bytes_written} B written"
        )
        return "\n".join(lines)


class _TracedFile:
    """Delegating proxy around a ``builtins.open`` file object.

    Accounts reads/writes/seeks/closes at the file-object layer, where
    buffered I/O is actually visible.  Everything else is forwarded to
    the wrapped object untouched.
    """

    def __init__(self, fh, stats: FileStats, clock):
        self.__dict__["_fh"] = fh
        self.__dict__["_stats"] = stats
        self.__dict__["_clock"] = clock
        # The next access is sequential until a repositioning seek.
        self.__dict__["_seq"] = True

    # -- accounting helpers --------------------------------------------- #

    def _observe_read(self, n: int, elapsed: float) -> None:
        self._stats.observe_read(n, elapsed, sequential=self._seq)
        self.__dict__["_seq"] = True

    def _observe_write(self, n: int, elapsed: float) -> None:
        self._stats.observe_write(n, elapsed, sequential=self._seq)
        self.__dict__["_seq"] = True

    # -- traced methods -------------------------------------------------- #

    def read(self, *args, **kwargs):
        t0 = self._clock()
        data = self._fh.read(*args, **kwargs)
        self._observe_read(len(data) if data else 0, self._clock() - t0)
        return data

    def read1(self, *args, **kwargs):
        t0 = self._clock()
        data = self._fh.read1(*args, **kwargs)
        self._observe_read(len(data) if data else 0, self._clock() - t0)
        return data

    def readinto(self, b):
        t0 = self._clock()
        n = self._fh.readinto(b)
        self._observe_read(n or 0, self._clock() - t0)
        return n

    def readline(self, *args, **kwargs):
        t0 = self._clock()
        data = self._fh.readline(*args, **kwargs)
        self._observe_read(len(data) if data else 0, self._clock() - t0)
        return data

    def readlines(self, *args, **kwargs):
        t0 = self._clock()
        lines = self._fh.readlines(*args, **kwargs)
        self._observe_read(sum(len(x) for x in lines), self._clock() - t0)
        return lines

    def write(self, data):
        t0 = self._clock()
        n = self._fh.write(data)
        self._observe_write(n if n is not None else len(data), self._clock() - t0)
        return n

    def writelines(self, lines):
        lines = list(lines)
        t0 = self._clock()
        result = self._fh.writelines(lines)
        self._observe_write(sum(len(x) for x in lines), self._clock() - t0)
        return result

    def seek(self, *args, **kwargs):
        try:
            before = self._fh.tell()
        except (OSError, ValueError):
            before = None
        result = self._fh.seek(*args, **kwargs)
        if before is not None and result != before:
            self._stats.seeks += 1
            self.__dict__["_seq"] = False
        return result

    def close(self):
        if not self._fh.closed:
            self._stats.closes += 1
        return self._fh.close()

    # -- protocol forwarding --------------------------------------------- #

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        if not self._fh.closed:
            self._stats.closes += 1
        return self._fh.__exit__(*exc)

    def __iter__(self):
        return self

    def __next__(self):
        t0 = self._clock()
        line = next(self._fh)
        self._observe_read(len(line), self._clock() - t0)
        return line

    def __getattr__(self, name):
        return getattr(self.__dict__["_fh"], name)

    def __setattr__(self, name, value):
        setattr(self.__dict__["_fh"], name, value)

    def __repr__(self):
        return f"<traced {self._fh!r}>"


def _opens(name: str):
    def call(self, path, flags, mode=0o777, **kwargs):
        fd = self._below[name](path, flags, mode, **kwargs)
        try:
            opened = _path_name(path)
        except TypeError:
            opened = repr(path)
        self._fd_paths[fd] = opened
        self._fd_pos[fd] = 0
        self._fd_expect[fd] = 0
        self._stats_for(opened).opens += 1
        return fd

    return call


def _closes(name: str):
    def call(self, fd):
        path = self._fd_paths.pop(fd, None)
        if path is not None:
            self._stats_for(path).closes += 1
        self._fd_pos.pop(fd, None)
        self._fd_expect.pop(fd, None)
        return self._below[name](fd)

    return call


def _seeks(name: str):
    def call(self, fd, pos, how):
        result = self._below[name](fd, pos, how)
        path = self._fd_paths.get(fd)
        if path is not None:
            if result != self._fd_pos.get(fd, 0):
                # Repositioning (not a tell-style SEEK_CUR 0) counts.
                self._stats_for(path).seeks += 1
            self._fd_pos[fd] = result
        return result

    return call


def _moves_bytes(name: str, tag: str):
    """``os.<name>(fd, data_or_length_or_iovec[, offset[, flags]])``: a
    scalar read returns the bytes, every other data call their count."""
    read, positional = "r" in tag, "@" in tag
    counted = "v" in tag or not read

    def call(self, fd, arg, *rest):
        t0 = self._clock()
        result = self._below[name](fd, arg, *rest)
        nbytes = result if counted else len(result)
        self._moved(fd, t0, nbytes, rest[0] if positional else None, read=read)
        return result

    return call


_DATA_TAGS = {"r", "w", "r@", "w@", "rv", "wv", "r@v", "w@v"}
_CURSOR_TAGS = {"opens": _opens, "closes": _closes, "seeks": _seeks}


def _traced_call(name: str, tag: str):
    if tag in _DATA_TAGS:
        return _moves_bytes(name, tag)
    if tag in _CURSOR_TAGS:
        return _CURSOR_TAGS[tag](name)
    raise ValueError(f"interposed symbol {name!r} has a tag the tracer cannot handle: {tag!r}")


#: the tracer's stand-in for every tagged row of the table, unbound; a tag
#: with no handler fails here, at import, instead of going untraced
_CALLS = {name: _traced_call(name, row.tag) for name, row in INTERPOSED.items() if row.tag}


def _path_name(path) -> str:
    name = os.fspath(path)
    return os.fsdecode(name) if isinstance(name, bytes) else name


class Tracer:
    """Characterisation interposer; stacks over whatever is installed."""

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        self._layer = Layer()
        #: what each traced symbol held when this tracer was installed
        self._below = self._layer.displaced
        self._fd_paths: dict[int, str] = {}
        #: current file-cursor position per descriptor (mirrors lseek)
        self._fd_pos: dict[int, int] = {}
        #: offset at which the next access would be sequential
        self._fd_expect: dict[int, int] = {}
        self._stats: dict[str, FileStats] = {}

    # ------------------------------------------------------------------ #

    def _stats_for(self, path: str) -> FileStats:
        stats = self._stats.get(path)
        if stats is None:
            stats = FileStats(path)
            self._stats[path] = stats
        return stats

    def report(self) -> TraceReport:
        return TraceReport(files=dict(self._stats))

    def reset(self) -> None:
        self._stats.clear()

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        # Displaces whatever is live *now* — possibly the LDPLFS shims.
        calls = {name: MethodType(fn, self) for name, fn in _CALLS.items()}
        self._layer.push(calls, self._builtin_open)
        return self

    def uninstall(self) -> None:
        self._layer.pop()

    def wrap_module(self, module) -> int:
        """Trace a module that bound its calls at import (``from os import
        write``) or was wrapped by the layer underneath: see
        :meth:`~repro.core.interpose.Interposer.wrap_module`."""
        return self._layer.wrap_module(module)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # traced calls (delegate to the layer underneath)
    # ------------------------------------------------------------------ #

    def _moved(self, fd, t0, nbytes, offset, *, read: bool) -> None:
        """Account one data access of *nbytes* at *offset* — None: at the
        cursor, which it moves — and whether it continued the previous one
        on the descriptor (consecutive-offset sequentiality)."""
        path = self._fd_paths.get(fd)
        if path is None:
            return
        start = self._fd_pos.get(fd, 0) if offset is None else offset
        sequential = start == self._fd_expect.get(fd, start)
        self._fd_expect[fd] = start + nbytes
        if offset is None:
            self._fd_pos[fd] = start + nbytes
        stats = self._stats_for(path)
        observe = stats.observe_read if read else stats.observe_write
        observe(nbytes, self._clock() - t0, sequential=sequential)

    def _builtin_open(self, file, mode="r", *args, **kwargs):
        fh = self._below["builtins.open"](file, mode, *args, **kwargs)
        if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
            name = _path_name(file)
            stats = self._stats_for(name)
            stats.opens += 1
            stats.mode = mode
            try:
                self._fd_paths[fh.fileno()] = name
            except (OSError, ValueError, AttributeError):
                pass
            if isinstance(fh, io.IOBase):
                # Buffered file-object I/O is invisible at the os level;
                # account it at the file-object layer instead.
                stats.buffered = True
                return _TracedFile(fh, stats, self._clock)
        return fh


@contextmanager
def traced(**kwargs):
    with Tracer(**kwargs) as tracer:
        yield tracer
