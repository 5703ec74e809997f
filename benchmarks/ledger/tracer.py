"""Outside-in span tracing: every layer's public entry points are wrapped
from here, for one repetition, and put back afterwards.  Nothing under
``src/`` knows it is being traced.

A span is (id, parent id, application-call id, layer, name, start ns,
end ns).  Spans live in preallocated parallel arrays while the stream
runs; :func:`analyse` turns them into the per-layer ledger and
:meth:`Tracer.write_jsonl` writes them out afterwards.
"""

from __future__ import annotations

import builtins
import functools
from array import array
import io
import os
import sys
import time
import types

import numpy as np

from . import spec

APP = "app"
_LAYERS = spec.LAYERS + (APP,)
_LAYER_ID = {name: i for i, name in enumerate(_LAYERS)}
_UNIXTOOLS = _LAYER_ID["unixtools"]
_SHIM = _LAYER_ID["core.shim"]

# st[] slots of the recorder state shared by every wrapper
_N, _CUR, _CAP = 0, 1, 2

_WRITE_FAMILY = {"write", "pwrite", "writev", "pwritev"}
_READ_FAMILY = {"read", "pread"}
_READV_FAMILY = {"readv", "preadv"}
_STAT_FAMILY = {"stat", "lstat", "fstat", "access"}


class Tracer:
    def __init__(self, capacity: int = 1 << 21):
        # Typed arrays, not lists: a list would keep two fresh int objects
        # per span alive, and the growing heap costs more than the stores.
        self.parent = array("q", [-1]) * capacity
        self.nid = array("q", [0]) * capacity
        self.start = array("q", [0]) * capacity
        self.end = array("q", [0]) * capacity
        #: bytes moved, for spans of the real read/write family
        self.val = array("q", [0]) * capacity
        self.st = [0, -1, capacity]
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _grow(self) -> None:
        # In place: the wrappers hold these very array objects.
        extra = self.st[_CAP]
        for arr, fill in ((self.parent, -1), (self.nid, 0), (self.start, 0),
                          (self.end, 0), (self.val, 0)):
            arr.extend(array("q", [fill]) * extra)
        self.st[_CAP] += extra

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.name_layer.append(_LAYER_ID[layer])
        return len(self.names) - 1

    def _traced(self, fn, layer: str, name: str):
        """*fn* wrapped in a span.  ``app`` wrappers record only when they
        are the outermost call the application made (directly, or from
        inside a unixtools function); re-entrant uses pass straight
        through.  The real read/write family also records bytes moved."""
        nid = self._name_id(layer, name)
        parent, nids, start, end, val, st = (
            self.parent, self.nid, self.start, self.end, self.val, self.st)
        name_layer, grow, clock = self.name_layer, self._grow, time.perf_counter_ns
        is_app = layer == APP
        if layer != "syscall":
            measure = None
        elif name in _WRITE_FAMILY or name in _READV_FAMILY:
            measure = int
        elif name in _READ_FAMILY:
            measure = len
        else:
            measure = None

        # One closure per flavour keeps branches out of the hot path.
        if is_app:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                cur = st[_CUR]
                if cur != -1 and name_layer[nids[cur]] != _UNIXTOOLS:
                    return fn(*args, **kwargs)
                i = st[_N]
                if i >= st[_CAP]:
                    grow()
                st[_N] = i + 1
                parent[i] = cur
                nids[i] = nid
                st[_CUR] = i
                start[i] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    st[_CUR] = cur
        elif measure is not None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = st[_N]
                if i >= st[_CAP]:
                    grow()
                st[_N] = i + 1
                parent[i] = cur = st[_CUR]
                nids[i] = nid
                st[_CUR] = i
                start[i] = clock()
                try:
                    result = fn(*args, **kwargs)
                    val[i] = measure(result)
                    return result
                finally:
                    end[i] = clock()
                    st[_CUR] = cur
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = st[_N]
                if i >= st[_CAP]:
                    grow()
                st[_N] = i + 1
                parent[i] = cur = st[_CUR]
                nids[i] = nid
                st[_CUR] = i
                start[i] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    st[_CUR] = cur

        return traced

    # ------------------------------------------------------------------ #
    # wrapping and unwrapping
    # ------------------------------------------------------------------ #

    def _set(self, obj, attr: str, value) -> None:
        # vars(), not getattr(): a class must get its plain function back,
        # not a bound or inherited one.
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def mark(self) -> int:
        return len(self._undo)

    def unwrap(self, mark: int = 0) -> None:
        """Put back everything wrapped since *mark*, newest first."""
        while len(self._undo) > mark:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def wrap_attr(self, obj, attr: str, layer: str, name: str | None = None) -> None:
        self._set(obj, attr, self._traced(getattr(obj, attr), layer, name or attr))

    def wrap_methods(self, cls: type, layer: str, names=None) -> None:
        """Wrap plain-function attributes of *cls* (all public ones, or
        *names*); properties and static/class methods are left alone."""
        if names is None:
            names = [n for n in cls.__dict__ if not n.startswith("_")]
        for name in names:
            fn = cls.__dict__.get(name)
            if isinstance(fn, types.FunctionType):
                self._set(cls, name, self._traced(fn, layer, f"{cls.__name__}.{name}"))

    def wrap_everywhere(self, fn, layer: str) -> None:
        """Wrap module-level *fn* under every name any ``repro`` module
        holds it by (``from x import fn`` copies the reference)."""
        wrapper = self._traced(fn, layer, fn.__name__)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def wrap_syscalls(self) -> None:
        """Layer ``syscall``: the original ``os.*`` / ``builtins.open``.
        Must run *before* the ``Interposer`` is constructed so that
        ``RealOS.snapshot()`` captures the traced originals."""
        from repro.core.interpose import _OS_PATCHES

        for name in _OS_PATCHES:
            if hasattr(os, name):
                self.wrap_attr(os, name, "syscall")
        opener = self._traced(builtins.open, "syscall", "builtins.open")
        self._set(builtins, "open", opener)
        self._set(io, "open", opener)

    def wrap_program(self) -> None:
        """Every layer between the installed names and the real OS."""
        from repro import unixtools
        from repro.core.fdtable import FdTable
        from repro.core.interpose import _OS_PATCHES
        from repro.core.mounts import MountTable
        from repro.core.shim import Shim
        from repro.plfs import api, backing, cache, container, index, reader, writer

        shim_names = {"unlink" if n == "remove" else n for n in _OS_PATCHES} | {"builtin_open"}
        self.wrap_methods(Shim, "core.shim", sorted(shim_names))
        self.wrap_methods(MountTable, "core.mounts", ["resolve", "find"])
        self.wrap_methods(FdTable, "core.fdtable", [
            "lookup", "insert", "remove", "dup", "tell", "set_cursor", "advance",
            "close_shadow"])
        for name, fn in list(vars(api).items()):
            if name.startswith("plfs_") and isinstance(fn, types.FunctionType):
                self.wrap_everywhere(fn, "plfs.api")
        self.wrap_methods(container.Container, "plfs.container")
        for fn in (container.is_container, container.readdir_logical, container.rmdir_logical):
            self.wrap_everywhere(fn, "plfs.container")
        self.wrap_methods(writer.WriteFile, "plfs.writer")
        self.wrap_methods(writer.WriteFile, "plfs.writer", ["__init__"])
        self.wrap_methods(reader.ReadFile, "plfs.reader")
        self.wrap_methods(reader.ReadFile, "plfs.reader", ["__init__"])
        self.wrap_everywhere(reader.logical_size, "plfs.reader")
        self.wrap_methods(index.GlobalIndex, "plfs.index", ["add_records", "query"])
        for fn in (index.load_global_index, index.pack_compacted, index.parse_compacted):
            self.wrap_everywhere(fn, "plfs.index")
        self.wrap_methods(cache.IndexCache, "plfs.cache", ["get", "invalidate"])
        for fn in (cache.load_index, cache.compact, cache.invalidate_cross_process):
            self.wrap_everywhere(fn, "plfs.cache")
        self.wrap_methods(backing.BackingStore, "plfs.backing")
        for fn in (unixtools.cp, unixtools.cat, unixtools.md5sum):
            self.wrap_everywhere(fn, "unixtools")

    def wrap_app(self) -> None:
        """Layer ``app``: the *installed* names once more, on top, as the
        root span of each application call.  Run after ``install()``."""
        from repro.core.interpose import _OS_PATCHES

        for name in _OS_PATCHES:
            if hasattr(os, name):
                self.wrap_attr(os, name, APP, f"os.{name}")
        opener = self._traced(builtins.open, APP, "builtins.open")
        self._set(builtins, "open", opener)
        self._set(io, "open", opener)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def span_count(self) -> int:
        return self.st[_N]

    def write_jsonl(self, path: str, lo: int, hi: int, t0: int) -> None:
        """One span per line, times in ns relative to the stream's start."""
        call = _call_ids(self.parent, lo, hi)
        names, name_layer = self.names, self.name_layer
        with builtins.open(path, "w") as fh:
            for k, i in enumerate(range(lo, hi)):
                p = self.parent[i]
                nid = self.nid[i]
                fh.write(
                    f'{{"id":{k},"parent":{p - lo if p >= lo else -1},"call":{call[k]},'
                    f'"layer":"{_LAYERS[name_layer[nid]]}","name":"{names[nid]}",'
                    f'"start_ns":{self.start[i] - t0},"end_ns":{self.end[i] - t0}}}\n'
                )


def _call_ids(parent: list, lo: int, hi: int) -> list:
    """Application-call id of each span: the id of its outermost ancestor."""
    call = [0] * (hi - lo)
    for k in range(hi - lo):
        p = parent[lo + k]
        call[k] = k if p < lo else call[p - lo]
    return call


def analyse(tracer: Tracer, lo: int, hi: int, wall_ns: int, *, calls: int,
            bytes_written: int, bytes_read: int) -> dict:
    """The span-derived part of the ledger for spans ``[lo, hi)`` of a
    stream that took *wall_ns* and made *calls* application calls."""
    n = hi - lo
    parent = np.array(tracer.parent[lo:hi], dtype=np.int64) - lo
    parent[parent < 0] = -1
    nid = np.array(tracer.nid[lo:hi], dtype=np.int64)
    dur = np.array(tracer.end[lo:hi], dtype=np.int64) - np.array(tracer.start[lo:hi], dtype=np.int64)
    val = np.array(tracer.val[lo:hi], dtype=np.int64)
    layer = np.array(tracer.name_layer, dtype=np.int64)[nid] if n else np.zeros(0, dtype=np.int64)
    names = np.array(tracer.names, dtype=object)

    # self time: a span's duration minus what its children cover
    covered = np.zeros(n, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_ns = dur - covered
    layer_self = np.bincount(layer, weights=self_ns, minlength=len(_LAYERS))
    layer_count = np.bincount(layer, minlength=len(_LAYERS))
    # time between root spans is the driver's own (the replay loop)
    driver_ns = wall_ns - int(dur[~has_parent].sum())

    # which layers each span has above it (parents precede children)
    above = [0] * n
    layer_l, parent_l = layer.tolist(), parent.tolist()
    for k in range(n):
        p = parent_l[k]
        if p >= 0:
            above[k] = above[p] | (1 << layer_l[p])
    above = np.array(above, dtype=np.int64) if n else np.zeros(0, dtype=np.int64)
    plfs_bits = sum(1 << i for i, name in enumerate(_LAYERS) if name.startswith("plfs."))
    only_tools_above = (above & ~(1 << _UNIXTOOLS)) == 0

    out: dict[str, float] = {}
    wall_s = wall_ns / 1e9
    for i, name in enumerate(_LAYERS):
        s = layer_self[i] / 1e9 + (driver_ns / 1e9 if name == APP else 0.0)
        if name != APP:
            out[f"{name}.calls"] = layer_count[i] / calls
        out[f"{name}.self_s"] = s
        out[f"{name}.share"] = s / wall_s

    is_shim = layer == _SHIM
    out["core.shim.reentrant_calls"] = int((is_shim & ((above & plfs_bits) != 0)).sum()) / calls

    span_name = names[nid] if n else np.zeros(0, dtype=object)
    is_sys = layer == _LAYER_ID["syscall"]

    def sys_named(group) -> np.ndarray:
        return is_sys & np.isin(span_name, list(group))

    out["syscall.stat_calls"] = int(sys_named(_STAT_FAMILY).sum()) / calls
    wrote = int(val[sys_named(_WRITE_FAMILY)].sum())
    read = int(val[sys_named(_READ_FAMILY | _READV_FAMILY)].sum())
    out["syscall.write_amp"] = wrote / bytes_written if bytes_written else 0.0
    out["syscall.read_amp"] = read / bytes_read if bytes_read else 0.0

    out["plfs.index.compactions"] = int((span_name == "compact").sum())
    out["plfs.writer.generation_bumps"] = int((span_name == "invalidate_cross_process").sum())
    reads = int((span_name == "ReadFile.read").sum())
    under_reader = (above & (1 << _LAYER_ID["plfs.reader"])) != 0
    preads = int((sys_named({"pread", "preadv"}) & under_reader).sum())
    out["plfs.reader.preads_per_read"] = preads / reads if reads else 0.0

    # application calls: app spans, plus the shim spans a file object
    # enters directly (buffered reads/writes never pass through os.*)
    is_call = (layer == _LAYER_ID[APP]) | (is_shim & only_tools_above)
    call_dur = dur[is_call] / 1e3
    call_kind = np.array(
        [str(s).rsplit(".", 1)[-1] for s in span_name[is_call]], dtype=object)
    for kind in spec.CALL_KINDS:
        sel = call_dur[call_kind == kind]
        out[f"app.{kind}_us"] = float(np.median(sel)) if sel.size else 0.0
    out["app.call_samples"] = int(call_dur.size)
    out["app.call_p50_us"] = float(np.percentile(call_dur, 50)) if call_dur.size else 0.0
    out["app.call_p99_us"] = float(np.percentile(call_dur, 99)) if call_dur.size else 0.0
    return out
