"""One workload, measured in this process: set-up, warm-up, timed
repetitions (flat and shim alternating), verification, and — when asked —
one traced repetition for the per-layer ledger.

A closed loop with one client: the single load-generating thread issues
the next call only when the previous one returned.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from . import spec, streams

#: timed repetitions when no time budget is given
REPS = {"rw_interleave": 5}
DEFAULT_REPS = 7
#: with a time budget: never fewer than this, never more than that
MIN_REPS, MAX_REPS = 3, 15
#: repetitions timed before the traced one when only the ledger is wanted
#: (they give ``flat.wall_s`` and the base of ``trace.overhead_x``)
TRACE_BASE_REPS = 3

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def scratch_base(explicit: str | None = None) -> str:
    """Where the flat directory and the PLFS backend live (always the same
    filesystem): *explicit*, else ``/dev/shm`` with >= 2 GiB free, else
    ``out/`` beside this file.  tmpfs on purpose — the ledger measures the
    program, not a device: on the sandbox's ext4 the very same
    ``metadata_storm`` replay drifts from 3.0 s to 6.8 s over five
    repetitions."""
    if explicit:
        os.makedirs(explicit, exist_ok=True)
        return explicit
    shm = "/dev/shm"
    try:
        st = os.statvfs(shm)
        if st.f_bavail * st.f_frsize >= 2 << 30 and os.access(shm, os.W_OK | os.X_OK):
            return shm
    except OSError:
        pass
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def typical(samples: list) -> float:
    """The lower quartile of a timing's repetitions.

    The sandbox is a shared VM: a fixed pure-CPU loop takes 0.18 s or
    0.25 s depending on the second it runs in.  Interference only ever adds
    time, so repetitions have a hard floor and a long upper tail; with the
    5-8 repetitions a run affords, their median moves by 8% from run to
    run and their lower quartile by 2-3%.  Every sample is in the result
    document."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def import_seconds(times: int = 3) -> list:
    """Seconds a fresh interpreter takes to import the program, *times*
    over.  Importing is set-up a user pays and a place work can be moved
    to, but this process can import only once — one sample, and the
    noisiest one: the first touch of every file."""
    code = ("import time; t = time.perf_counter(); "
            "import repro.core.interpose, repro.plfs.cache, repro.unixtools; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(times)
    ]


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mnt, typ = line.split()[:3]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                    best, kind = mnt, typ
    except OSError:
        pass
    return kind


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _tree_usage(root: str) -> tuple[int, int]:
    """(apparent bytes of every regular file, files + directories) under
    *root*, not counting *root* itself."""
    size = entries = 0
    for dirpath, dirnames, filenames in os.walk(root):
        entries += len(dirnames) + len(filenames)
        for name in filenames:
            size += os.lstat(os.path.join(dirpath, name)).st_size
    return size, entries


class _Stopwatch:
    """Accumulates the set-up share of a repetition."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t


class WorkloadRun:
    def __init__(self, name: str, seed: int, *, scratch: str | None = None,
                 sizes: dict | None = None, out_dir: str = OUT_DIR):
        self.name, self.seed, self.sizes, self.out_dir = name, seed, sizes, out_dir
        self.base = scratch_base(scratch)
        self.root = ""
        self.once = _Stopwatch()  # set-up done once per process
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.rep_no = 0

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #

    def _prepare(self) -> None:
        from repro.core.interpose import Interposer
        from repro.plfs.cache import shared_cache

        from . import replay as rp

        self.Interposer, self.shared_cache, self.rp = Interposer, shared_cache, rp
        replay, bind = rp.replay, rp.bind
        with self.once:
            self.stream = streams.generate(self.name, self.seed, self.sizes)
            self.inputs = {fname for fname, _size in self.stream.flat_inputs}
            self.masters = os.path.join(self.root, "masters")
            self.master_inputs = os.path.join(self.masters, "inputs")
            os.makedirs(self.master_inputs)
            for fname, size in self.stream.flat_inputs:
                with open(os.path.join(self.master_inputs, fname), "wb") as fh:
                    for tile in streams.flat_input_tiles(self.seed, fname, size):
                        fh.write(tile)
            fixture = self.stream.fixture
            if fixture is not None:
                # What an earlier run of the program left behind: the same
                # stream written raw (floor) and through the shim (mount).
                flat = os.path.join(self.masters, "flat")
                backend = os.path.join(self.masters, "backend")
                mnt = os.path.join(self.masters, "mnt")
                os.makedirs(flat)
                replay(bind(fixture, flat, self.master_inputs), fixture.slots)
                with self.Interposer([(mnt, backend)]):
                    _w, _r, raised = replay(bind(fixture, mnt, self.master_inputs), fixture.slots)
                if raised:
                    self._fail(raised, "fixture stream raised")

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        self.notes.append(why)

    def _side_dirs(self, side: str, master: str | None) -> dict:
        """Fresh tree for one side of a repetition: ``T`` (from the fixture
        *master* when the stream has one) and ``F`` with the inputs linked
        in.  Each side is built just before it runs and removed right
        after, so the other side re-uses the pages it freed (touching
        memory the sandbox has not handed out before costs far more than
        the work being measured)."""
        # The same paths every repetition, as a program re-run on the same
        # mount would use: the program's path-keyed caches then hold one
        # entry, not one per repetition.
        top = os.path.join(self.root, side)
        d = {"top": top, "T": os.path.join(top, "T"), "F": os.path.join(top, "F"),
             "mnt": os.path.join(top, "mnt")}
        if master is not None:
            shutil.copytree(os.path.join(self.masters, master), d["T"])
        else:
            os.makedirs(d["T"])
        os.makedirs(d["F"])
        for fname in self.inputs:
            os.link(os.path.join(self.master_inputs, fname), os.path.join(d["F"], fname))
        return d

    # ------------------------------------------------------------------ #
    # one repetition
    # ------------------------------------------------------------------ #

    def _final_contents(self, target_root: str, flat_root: str) -> tuple:
        """Digests of what the stream left behind, read back like any
        program would.  A stream that writes nothing leaves its fixture,
        which its own scan has just digested call by call."""
        if not self.stream.bytes_written:
            return ()
        return (self.rp.tree_digest(target_root), self.rp.tree_digest(flat_root, self.inputs))

    def _flat_side(self, sw: _Stopwatch) -> dict:
        with sw:
            d = self._side_dirs("flat", "flat" if self.stream.fixture else None)
        try:
            with sw:
                ops = self.rp.bind(self.stream, d["T"], d["F"])
                gc.collect()
            wall, rets, raised = self.rp.replay(ops, self.stream.slots)
            digest, prints = self.rp.summarise(rets)
            del rets
            return {"wall": wall, "raised": raised, "digest": digest, "prints": prints,
                    "tree": self._final_contents(d["T"], d["F"])}
        finally:
            with sw:
                shutil.rmtree(d["top"], ignore_errors=True)

    def _shim_side(self, sw: _Stopwatch, *, probe=None, tracer=None) -> dict:
        with sw:
            d = self._side_dirs("shim", "backend" if self.stream.fixture else None)
        try:
            return self._shim_replay(d, sw, probe, tracer)
        finally:
            with sw:
                shutil.rmtree(d["top"], ignore_errors=True)

    def _shim_replay(self, d: dict, sw: _Stopwatch, probe, tracer) -> dict:
        """The stream under an installed ``Interposer`` mounted on the
        side's ``T`` (the PLFS backend), wrapped in spans when *tracer*.
        The wrapping order matters (see tracer.py); *undo* reverses it on
        every path."""
        out: dict = {}
        undo = contextlib.ExitStack()
        try:
            with sw:
                ops = self.rp.bind(self.stream, d["mnt"], d["F"])
                if tracer is not None:
                    undo.callback(tracer.unwrap, tracer.mark())
                    tracer.wrap_syscalls()
                interposer = self.Interposer([(d["mnt"], d["T"])])
                if tracer is not None:
                    tracer.wrap_program()
                undo.enter_context(interposer)
                if tracer is not None:
                    tracer.wrap_app()
                    out["cache_before"] = dict(self.shared_cache().stats)
                    out["span_lo"] = tracer.span_count()
                gc.collect()
            out["t0"] = time.perf_counter_ns()
            wall, rets, raised = self.rp.replay(ops, self.stream.slots, probe)
            if tracer is not None:
                # Spans recorded from here on (the read-back below) are
                # outside [span_lo, span_hi) and never analysed.
                out["span_hi"] = tracer.span_count()
                out["cache_after"] = dict(self.shared_cache().stats)
                out["passthrough_calls"] = interposer.shim.stats["passthrough_calls"]
            digest, prints = self.rp.summarise(rets)
            del rets
            out.update(wall=wall, raised=raised, digest=digest, prints=prints,
                       tree=self._final_contents(d["mnt"], d["F"]))
        finally:
            with sw:
                undo.close()
        return out

    def _verify(self, flat: dict, shim: dict) -> None:
        calls = self.stream.calls
        self.attempted += calls
        bad = flat["raised"] + shim["raised"]
        if flat["digest"] != shim["digest"]:
            a, b = flat["prints"], shim["prints"]
            differ = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            bad = max(bad, differ)
        if bad:
            self._fail(bad, f"rep {self.rep_no}: {bad} call(s) raised or returned differently")
        if flat["tree"] != shim["tree"]:
            self._fail(1, f"rep {self.rep_no}: final contents differ")

    def repetition(self, *, probe=None, tracer=None) -> dict:
        """Flat and shim once each (odd repetitions shim first), verified."""
        self.rep_no += 1
        sw = _Stopwatch()
        if self.rep_no % 2:
            shim = self._shim_side(sw, probe=probe, tracer=tracer)
            flat = self._flat_side(sw)
        else:
            flat = self._flat_side(sw)
            shim = self._shim_side(sw, probe=probe, tracer=tracer)
        self._verify(flat, shim)
        shim["flat_wall"], shim["setup"] = flat["wall"], sw.total
        return shim

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def _cold_open_us(self) -> float:
        """First open + first 4 KiB pread of the fixture in this process:
        the cold-index cost a restart pays once."""
        mnt = os.path.join(self.masters, "mnt")
        with self.Interposer([(mnt, os.path.join(self.masters, "backend"))]):
            t0 = time.perf_counter()
            fd = os.open(os.path.join(mnt, "ckpt"), os.O_RDONLY)
            try:
                os.pread(fd, 4096, 0)
                return (time.perf_counter() - t0) * 1e6
            finally:
                os.close(fd)

    def run(self, *, timed: bool = True, trace: bool = False, seconds: float | None = None,
            reps: int | None = None) -> dict:
        t_begin = time.perf_counter()
        fds_before = _open_fds()
        old_tmp = tempfile.tempdir
        self.root = tempfile.mkdtemp(prefix="ledger-", dir=self.base)
        # The shim's shadow descriptors are temp files: keep them on the
        # scratch filesystem with everything else.
        tempfile.tempdir = self.root
        result: dict = {
            "workload": self.name, "seed": self.seed, "scratch_fs": fs_type(self.root),
            "scratch_base": self.base,
        }
        try:
            self._prepare()
            stream = self.stream
            result.update(stream_digest=stream.digest(), calls=stream.calls,
                          bytes_written=stream.bytes_written, bytes_read=stream.bytes_read)
            cold_us = self._cold_open_us() if stream.fixture is not None else 0.0

            usage: dict = {}

            def probe_backend() -> None:
                backend = os.path.join(self.root, "shim", "T")
                usage["bytes"], usage["entries"] = _tree_usage(backend)

            self.repetition(probe=probe_backend)  # warm-up, untimed

            # A fixed count, or (one timed run under a time budget) as many
            # as the budget lasts for, within [MIN_REPS, MAX_REPS].
            budgeted = timed and seconds is not None and reps is None
            if reps is None:
                reps = REPS.get(self.name, DEFAULT_REPS) if timed else TRACE_BASE_REPS
            deadline = time.perf_counter() + (seconds or 0)

            def another() -> bool:
                done = len(samples)
                if not budgeted:
                    return done < reps
                return done < MIN_REPS or (done < MAX_REPS and time.perf_counter() < deadline)

            samples: list[dict] = []
            while another():
                samples.append(self.repetition())
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

            shim_walls = [s["wall"] for s in samples]
            flat_walls = [s["flat_wall"] for s in samples]
            wall = typical(shim_walls)
            moved = stream.bytes_written + stream.bytes_read
            setups = [s["setup"] for s in samples]
            imports = import_seconds()
            result["samples"] = {
                "shim_wall_s": shim_walls, "flat_wall_s": flat_walls, "rep_setup_s": setups,
                "import_s": imports,
            }
            result["repetitions"] = len(samples)
            result["once_setup_s"] = self.once.total
            result["flat_wall_s"] = typical(flat_walls)
            end_to_end = {
                "wall_s": wall,
                "calls_per_s": stream.calls / wall,
                "mib_per_s": moved / streams.MIB / wall,
                "overhead_x": wall / result["flat_wall_s"],
                "space_amp": usage["bytes"] / stream.stored,
                "peak_rss_mib": peak_rss,
                "setup_s": typical(imports) + self.once.total + typical(setups),
            }

            if trace:
                result["per_layer"], result["traced_wall_s"] = self._traced_repetition(
                    wall, result["flat_wall_s"], cold_us, usage["entries"] / stream.creates)
        finally:
            tempfile.tempdir = old_tmp
            shutil.rmtree(self.root, ignore_errors=True)
        if os.path.exists(self.root):
            self._fail(1, "scratch tree left behind")
        gc.collect()
        leaked = _open_fds() - fds_before
        if leaked:
            self._fail(abs(leaked), f"{leaked} descriptor(s) leaked")
        end_to_end["fail_share"] = self.failed / self.attempted
        result.update(
            end_to_end=end_to_end, attempted=self.attempted, failed=self.failed,
            notes=self.notes, child_wall_s=time.perf_counter() - t_begin,
        )
        return result

    def _traced_repetition(self, wall: float, flat_wall: float, cold_us: float,
                           files_per_create: float) -> tuple[dict, float]:
        """(the per-layer ledger, the traced replay's wall)."""
        from .tracer import Tracer, analyse

        tracer = Tracer()
        shim = self.repetition(tracer=tracer)
        lo, hi = shim["span_lo"], shim["span_hi"]
        stream = self.stream
        ledger = analyse(
            tracer, lo, hi, int(shim["wall"] * 1e9), calls=stream.calls,
            bytes_written=stream.bytes_written, bytes_read=stream.bytes_read)
        cache = {k: shim["cache_after"][k] - shim["cache_before"][k] for k in shim["cache_after"]}
        gets = cache["hits"] + cache["misses"]
        ledger["plfs.cache.hit_rate"] = cache["hits"] / gets if gets else 0.0
        ledger["plfs.cache.builds"] = cache["merged_builds"] + cache["compacted_loads"]
        ledger["core.shim.passthrough_calls"] = shim["passthrough_calls"] / stream.calls
        ledger["plfs.container.files_per_create"] = files_per_create
        ledger["app.cold_open_us"] = cold_us
        ledger["flat.wall_s"] = flat_wall
        ledger["trace.overhead_x"] = shim["wall"] / wall
        os.makedirs(self.out_dir, exist_ok=True)
        tracer.write_jsonl(
            os.path.join(self.out_dir, f"trace_{self.name}.jsonl"), lo, hi, shim["t0"])
        return {m.name: float(ledger[m.name]) for m in spec.PER_LAYER}, shim["wall"]
