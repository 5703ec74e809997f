"""``repro-bench`` — replay scenarios, hold their records to a baseline.

Subcommands:

``run``
    Execute scenarios (``--scenario``/``--config``/``--profile``) and
    write ``BENCH_*.json`` records to the output directory.
``guard``
    Exits nonzero when any current record's op-stream digest or counters
    differ from the baseline's, or a baselined scenario went missing
    (what ``tests/bench/test_baselines.py`` does on every ``pytest`` run).
``list``
    Show the scenario registry (profiles, configs, descriptions).
"""

from __future__ import annotations

import argparse
import sys

from . import guard as guard_mod
from . import record as record_mod
from . import runner
from .scenarios import DEFAULT_SEED, SCENARIOS


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default=None,
        help="record directory (default: $REPRO_BENCH_OUT or ./benchmarks/out)",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="production workload suite + conformance guard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenarios and write BENCH_*.json")
    run_p.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario to run (repeatable; default: all)",
    )
    run_p.add_argument(
        "--config",
        action="append",
        choices=sorted(runner.CONFIGS),
        help="configuration to run (repeatable; default: direct)",
    )
    run_p.add_argument("--profile", default="short", choices=("short", "full"))
    run_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(run_p)

    guard_p = sub.add_parser(
        "guard", help="fail (exit 1) on any difference from the baseline"
    )
    guard_p.add_argument("--baseline", required=True)
    guard_p.add_argument("--scenario", action="append", default=None)
    guard_p.add_argument(
        "--config",
        action="append",
        default=None,
        help="restrict the guard to these configs (repeatable; a job "
        "that only regenerated one config guards only that config)",
    )
    _add_common(guard_p)

    sub.add_parser("list", help="show the scenario registry")
    return parser


def _cmd_run(args) -> int:
    out_dir = args.out or record_mod.default_out_dir()
    names = args.scenario or sorted(SCENARIOS)
    configs = args.config or ["direct"]
    wrote = []
    for name in names:
        scenario = SCENARIOS[name]
        for config in configs:
            if config not in scenario.configs:
                print(
                    f"skip {name}/{config}: unsupported "
                    f"(supports {', '.join(scenario.configs)})",
                    file=sys.stderr,
                )
                continue
            rec = runner.run_scenario(
                name, profile=args.profile, config=config, seed=args.seed
            )
            path = record_mod.save(rec, out_dir)
            print(
                f"{name}/{config} [{args.profile}]: "
                f"{rec['counters']['ops_total']} ops, "
                f"digest {rec['op_stream']['digest'][:12]} -> {path}"
            )
            wrote.append(path)
    if not wrote:
        print("nothing ran (scenario/config selection was empty)", file=sys.stderr)
        return 2
    return 0


def _cmd_guard(args) -> int:
    out_dir = args.out or record_mod.default_out_dir()
    results = guard_mod.guard_directory(
        out_dir, args.baseline, scenarios=args.scenario, configs=args.config
    )
    print(guard_mod.render_results(results))
    return 0 if all(r.ok for r in results) else 1


def _cmd_list(args) -> int:
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        print(f"{name}: {s.description}")
        print(f"  profiles: {', '.join(sorted(s.profiles))}")
        print(f"  configs:  {', '.join(s.configs)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "guard": _cmd_guard,
        "list": _cmd_list,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
