"""Command line of the ledger.

``python -m benchmarks.ledger [--workload NAME] [--seed N] [--out FILE]``
    the run-set: every workload (or one) in its own child process, one
    after the other, timed repetitions then the traced one; prints every
    metric with its unit, writes one result document, exits 1 on any
    failed call.
``python -m benchmarks.ledger compare A.json B.json``
    applies the bounds to two result documents.
``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one measured run in this process, for the driver (BENCHMARK.json): the
    last line of stdout is one JSON object with the end-to-end (trace 0)
    or per-layer (trace 1) metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile

from . import spec

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="result document (default: out/ledger_seed<N>.json)")
    p.add_argument("--scratch", help="scratch directory (default: /dev/shm, else the temp dir)")
    p.add_argument("--seconds", type=float, help="time budget of the timed repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="single measured run: 0 end-to-end metrics, 1 the per-layer ledger")
    p.add_argument("--child", metavar="FILE", help=argparse.SUPPRESS)
    return p


def _need_program() -> None:
    """Make ``repro`` importable (without importing it: that is timed as
    set-up) or stop: there is nothing to measure."""
    if importlib.util.find_spec("repro") is None:
        src = os.path.join(_ROOT, "src")
        if not os.path.isdir(os.path.join(src, "repro")):
            sys.stderr.write(f"benchmarks.ledger: no program to measure under {src}\n")
            sys.exit(2)
        sys.path.insert(0, src)


def _single(args) -> int:
    """One measured run in this process; contract output on the last line."""
    from .runner import WorkloadRun

    if args.workload is None:
        sys.stderr.write("--trace needs --workload\n")
        return 2
    run = WorkloadRun(args.workload, args.seed, scratch=args.scratch)
    traced = bool(args.trace)
    result = run.run(timed=not traced, trace=traced, seconds=args.seconds)
    if traced:
        table, values = spec.PER_LAYER, result["per_layer"]
    else:
        table = [m for m in spec.END_TO_END if m.name != "fail_share"]
        values = result["end_to_end"]
    for note in result["notes"]:
        print(f"FAILED: {note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }))
    return 0 if result["failed"] == 0 else 1


def _child(args) -> int:
    from .runner import WorkloadRun

    result = WorkloadRun(args.workload, args.seed, scratch=args.scratch).run(
        timed=True, trace=True, seconds=args.seconds)
    with open(args.child, "w") as fh:
        json.dump(result, fh)
    return 0


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True,
            check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _print_workload(name: str, res: dict) -> None:
    print(f"\n== {name} ==  ({spec.WORKLOADS[name]})")
    print(f"   {res['calls']} calls, {res['bytes_written']} B written, {res['bytes_read']} B read, "
          f"{res['repetitions']} timed repetitions, scratch on {res['scratch_fs']}, "
          f"child {res['child_wall_s']:.1f} s")
    for m in spec.END_TO_END:
        print(f"   {m.name:<34}{res['end_to_end'][m.name]:>16.6g} {m.unit}")
    print("   -- per layer (one traced repetition) --")
    for m in spec.PER_LAYER:
        print(f"   {m.name:<34}{res['per_layer'][m.name]:>16.6g} {m.unit}")
    for note in res["notes"]:
        print(f"   FAILED: {note}")


def _run_set(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    out_dir = os.path.join(_HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "schema": 1,
        "seed": args.seed,
        "git_head": _git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "workloads": {},
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_ROOT, "src"), _ROOT] + [p for p in [env.get("PYTHONPATH")] if p])
    failed = 0
    for name in names:
        fd, path = tempfile.mkstemp(prefix=f"child_{name}_", suffix=".json", dir=out_dir)
        os.close(fd)
        try:
            cmd = [sys.executable, "-m", "benchmarks.ledger", "--workload", name,
                   "--seed", str(args.seed), "--child", path]
            if args.scratch:
                cmd += ["--scratch", args.scratch]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, cwd=_ROOT, env=env)
            if proc.returncode != 0:
                print(f"\n== {name} ==  child exited with {proc.returncode}")
                failed += 1
                continue
            with open(path) as fh:
                res = json.load(fh)
        finally:
            os.unlink(path)
        doc["workloads"][name] = res
        doc.setdefault("scratch_fs", res["scratch_fs"])
        failed += res["failed"]
        _print_workload(name, res)
    out = args.out or os.path.join(out_dir, f"ledger_seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"\nresult document: {out}")
    print("fail_share = 0 on every workload" if not failed else f"{failed} failure(s)")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from . import compare

        if len(argv) != 3:
            sys.stderr.write("usage: python -m benchmarks.ledger compare A.json B.json\n")
            return 2
        return compare.main(argv[1], argv[2])
    args = _parser().parse_args(argv)
    _need_program()
    if args.child:
        return _child(args)
    if args.trace is not None:
        return _single(args)
    return _run_set(args)
