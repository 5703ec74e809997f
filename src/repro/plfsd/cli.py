"""``repro-plfsd`` — run the PLFS container daemon from the shell.

Usage::

    repro-plfsd --socket /run/plfsd.sock [options]

Clients route through the daemon by adding ``?daemon=/run/plfsd.sock`` to
a mount's backend spec (``LDPLFS_MOUNTS=/mnt/plfs:/backend?daemon=...``).
The daemon exits on ``SIGINT``/``SIGTERM`` or a ``shutdown`` request over
the wire, closing every open handle first (indexes reach disk).

Fault injection: exporting ``REPRO_FAULTS`` (and optionally
``REPRO_FAULT_SEED``) before launch arms an injector inside the daemon,
exactly as it would in any other subprocess of the fault harness.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.plfs import api as plfs_api

from . import server as plfsd_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plfsd",
        description="PLFS as a service: async multi-writer container daemon",
    )
    parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="unix socket to listen on (created, replaced if stale)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=plfsd_server.DEFAULT_IDLE_TIMEOUT,
        metavar="SECONDS",
        help="reap a handle's cached read fds after this idle time "
        f"(default {plfsd_server.DEFAULT_IDLE_TIMEOUT:g})",
    )
    parser.add_argument(
        "--reap-interval",
        type=float,
        default=plfsd_server.DEFAULT_REAP_INTERVAL,
        metavar="SECONDS",
        help="how often the idle-handle reaper sweeps "
        f"(default {plfsd_server.DEFAULT_REAP_INTERVAL:g})",
    )
    parser.add_argument(
        "--write-ahead-index",
        action="store_true",
        help="open writers with the write-ahead index dropping enabled",
    )
    parser.add_argument(
        "--wal-batch-records",
        type=int,
        default=1,
        metavar="N",
        help="group-commit window for the write-ahead index (default 1)",
    )
    parser.add_argument(
        "--no-shm",
        action="store_true",
        help="refuse the shared-memory data plane (clients fall back to "
        "sending append payloads over the socket)",
    )
    return parser


async def _run(args: argparse.Namespace) -> None:
    options = plfs_api.OpenOptions(
        write_ahead_index=args.write_ahead_index,
        wal_batch_records=args.wal_batch_records,
    )
    serve_task = asyncio.ensure_future(
        plfsd_server.serve(
            args.socket,
            open_options=options,
            idle_timeout=args.idle_timeout,
            reap_interval=args.reap_interval,
            allow_shm=not args.no_shm,
        )
    )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, serve_task.cancel)
    with contextlib.suppress(asyncio.CancelledError):
        await serve_task


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_run(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
