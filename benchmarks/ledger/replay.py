"""Replaying a call stream as an unmodified program would issue it.

Everything here goes through plain ``os.*`` / ``builtins.open`` /
``repro.unixtools`` looked up at call time — never ``plfs_*`` — so the
same code runs on the floor and, once an ``Interposer`` is installed,
under the shim.
"""

from __future__ import annotations

import hashlib
import os
import time

from repro import unixtools

from .streams import (
    CAT, CLOSE, CP, F, FSTAT, FSYNC, LISTDIR, MARK, MD5, MIB, MKDIR, OPEN, PREAD,
    PWRITE, READ, RENAME, RMDIR, SCAN, STAT, T, UNLINK, WRITE, Stream,
)

_PATH_ARGS = {
    OPEN: (2,), STAT: (1,), UNLINK: (1,), RENAME: (1, 2), LISTDIR: (1,), MKDIR: (1,),
    RMDIR: (1,), SCAN: (1,), CP: (1, 2), CAT: (1,), MD5: (1,),
}


def bind(stream: Stream, target_root: str, flat_root: str) -> list:
    """The stream with symbolic roots resolved to real paths and payload
    indices to the payload records — done before the clock starts."""
    roots = {T: target_root, F: flat_root}
    pool = stream.pool
    out = []
    for op in stream.ops:
        kind = op[0]
        if kind == PWRITE:
            op = (kind, op[1], pool[op[2]], op[3])
        elif kind == WRITE:
            op = (kind, op[1], pool[op[2]])
        elif kind == PREAD or kind == READ:
            # what the call must return: a payload record, or the tail of
            # one followed by the head of the next
            expect = op[-1]
            if isinstance(expect, tuple):
                a, b, intra = expect
                expect = stream.straddles.setdefault(expect, pool[a][intra:] + pool[b][:intra])
            else:
                expect = pool[expect]
            op = op[:-1] + (expect,)
        elif kind in _PATH_ARGS:
            op = list(op)
            for i in _PATH_ARGS[kind]:
                root, rel = op[i]
                op[i] = os.path.join(roots[root], rel)
            op = tuple(op)
        out.append(op)
    return out


def _scan(path: str, block: int) -> str:
    """Sequential read of a whole file through ``builtins.open``; md5 hex."""
    digest = hashlib.md5()
    with open(path, "rb") as fh:
        while True:
            data = fh.read(block)
            if not data:
                break
            digest.update(data)
    return digest.hexdigest()


class _Discard:
    """``cat``'s output: counted by the tool, kept by nobody."""

    @staticmethod
    def write(block) -> int:
        return len(block)


def replay(ops: list, slots: int, probe=None) -> tuple[float, list, int]:
    """Issue every op in order.  Returns (wall seconds, per-call returns,
    calls that raised).  A read's return is checked on the spot against
    the bytes the stream says it must deliver and recorded as its length
    when they match, as the wrong bytes when not: keeping 160 MiB of read
    results until the clock stops would put first-touch page faults into
    the timed region.  *probe* is called at a MARK with the clock stopped
    (the warm-up uses it to look at the backend mid-stream)."""
    fds = [-1] * slots
    rets: list = []
    push = rets.append
    raised = 0
    paused = 0.0
    clock = time.perf_counter
    t0 = clock()
    for op in ops:
        kind = op[0]
        try:
            if kind == PWRITE:
                push(os.pwrite(fds[op[1]], op[2], op[3]))
            elif kind == PREAD:
                data = os.pread(fds[op[1]], op[2], op[3])
                push(op[2] if data == op[4] else data)
            elif kind == WRITE:
                push(os.write(fds[op[1]], op[2]))
            elif kind == READ:
                data = os.read(fds[op[1]], op[2])
                push(op[2] if data == op[3] else data)
            elif kind == OPEN:
                fds[op[1]] = os.open(op[2], op[3], 0o644)
                push(None)
            elif kind == CLOSE:
                fd, fds[op[1]] = fds[op[1]], -1
                push(os.close(fd))
            elif kind == STAT:
                push(os.stat(op[1]))
            elif kind == FSTAT:
                push(os.fstat(fds[op[1]]))
            elif kind == FSYNC:
                push(os.fsync(fds[op[1]]))
            elif kind == UNLINK:
                push(os.unlink(op[1]))
            elif kind == RENAME:
                push(os.rename(op[1], op[2]))
            elif kind == LISTDIR:
                push(os.listdir(op[1]))
            elif kind == MKDIR:
                push(os.mkdir(op[1]))
            elif kind == RMDIR:
                push(os.rmdir(op[1]))
            elif kind == SCAN:
                push(_scan(op[1], op[2]))
            elif kind == CP:
                push(unixtools.cp(op[1], op[2]))
            elif kind == CAT:
                push(unixtools.cat([op[1]], _Discard))
            elif kind == MD5:
                push(unixtools.md5sum(op[1])[0][0])
            elif kind == MARK:
                if probe is not None:
                    t = clock()
                    probe()
                    paused += clock() - t
            else:
                raise ValueError(f"unknown op kind {kind}")
        except OSError as exc:
            raised += 1
            push(("raised", type(exc).__name__, exc.errno))
    wall = clock() - t0 - paused
    # A stream that failed half-way must not strand descriptors.
    for fd in fds:
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
    return wall, rets, raised


def summarise(rets: list) -> tuple[str, list]:
    """(sha256 over the normalised returns, one fingerprint per call).

    Normalised: bytes as they are, ints and strings by value, a
    ``stat_result`` by its ``st_size``, a ``listdir`` sorted, ``None`` for
    calls that return nothing (descriptor numbers differ between the two
    sides and are not compared).  The fingerprints only locate *which*
    calls differ when the digests do; they are process-local.
    """
    h = hashlib.sha256()
    prints = []
    for r in rets:
        if isinstance(r, bytes):
            h.update(b"b%d:" % len(r))
            h.update(r)
            prints.append(hash(r))
            continue
        if isinstance(r, os.stat_result):
            r = ("size", r.st_size)
        elif isinstance(r, list):
            r = tuple(sorted(r))
        h.update(repr(r).encode())
        prints.append(hash(r))
    return h.hexdigest(), prints


def tree_digest(root: str, skip=()) -> str:
    """sha256 over the logical contents under *root*: every relative path,
    in sorted order, with its kind and (for files) its bytes — read back
    through ``os.*`` / ``open`` like any program would.  Top-level names
    in *skip* (set-up inputs nobody writes) are left out."""
    h = hashlib.sha256()

    def visit(path: str, rel: str) -> None:
        for name in sorted(os.listdir(path)):
            if not rel and name in skip:
                continue
            child, child_rel = os.path.join(path, name), f"{rel}/{name}"
            # A logical file stats as S_IFREG under the shim, so the same
            # test works on both sides.
            if os.path.isdir(child):
                h.update(f"d:{child_rel}\n".encode())
                visit(child, child_rel)
            else:
                h.update(f"f:{child_rel}:".encode())
                with open(child, "rb") as fh:
                    while True:
                        data = fh.read(MIB)
                        if not data:
                            break
                        h.update(data)
                h.update(b"\n")

    visit(root, "")
    return h.hexdigest()
