"""``repro-plfsd`` — run the PLFS metadata daemon from the shell.

Usage::

    repro-plfsd --socket /run/plfsd.sock

Clients route their container creates through the daemon by adding
``?daemon=/run/plfsd.sock`` to a mount's backend spec
(``LDPLFS_MOUNTS=/mnt/plfs:/backend?daemon=...``); their data never
reaches it.  The daemon exits on ``SIGINT``/``SIGTERM`` or a ``shutdown``
request over the wire.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from . import server as plfsd_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plfsd",
        description="PLFS as a service: the container metadata daemon",
    )
    parser.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="unix socket to listen on (created, replaced if stale)",
    )
    return parser


async def _run(args: argparse.Namespace) -> None:
    serve_task = asyncio.ensure_future(plfsd_server.serve(args.socket))
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
