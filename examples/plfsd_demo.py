#!/usr/bin/env python
"""PLFS as a service: many processes, one metadata daemon.

Starts ``repro-plfsd`` on a unix socket, then shows the two ways creates
reach it — and that data never does:

1. An *unmodified* script whose mount carries ``daemon=<socket>`` — the
   interposition shim sends each creating open's container create to the
   daemon and opens in-process; the droppings are written by the script's
   own process (PLFS's own data/metadata split).
2. Explicit clients: ``PlfsdClient.open`` is the same split, the handle it
   returns an ordinary in-process one.
3. A direct-path reader in this process observing everything the
   tenants wrote — cross-process coherence via the container's
   generation file, not the socket.

Finally it prints the daemon's own accounting: per-client creates and the
queue-wait totals that the create-storm benchmark turns into the paper's
§V.C meltdown curve.

Run:  python examples/plfsd_demo.py
"""

import json
import os
import shutil
import tempfile

from repro import plfs
from repro.core.interpose import Interposer
from repro.plfsd import stress
from repro.plfsd.client import connect

CHUNK = 1 << 20


def main() -> None:
    arena = tempfile.mkdtemp(prefix="plfsd-demo-", dir="/tmp")
    sock = os.path.join(arena, "plfsd.sock")
    backend = os.path.join(arena, "backend")
    mount = os.path.join(arena, "mnt")
    os.makedirs(backend)

    daemon = stress.start_daemon(sock)
    try:
        # --- 1. unmodified code, daemon-backed mount ------------------- #
        ip = Interposer([(mount, backend + "?daemon=" + sock)])
        ip.install()
        try:
            with open(os.path.join(mount, "app.log"), "wb") as fh:
                fh.write(b"written by plain open()\n")
            with open(os.path.join(mount, "app.log"), "rb") as fh:
                first_line = fh.read()
        finally:
            ip.uninstall()
        print(f"shim route: {first_line!r}")
        print(f"shim stats: creates via daemon={ip.shim.stats['daemon_creates']}, "
              f"fallbacks={ip.shim.stats['daemon_fallbacks']}")

        # --- 2. explicit clients: the create hop, then local data ------ #
        shared = os.path.join(backend, "shared.dat")
        for tenant in range(2):
            with connect(sock, name=f"tenant-{tenant}") as client:
                fd = client.open(shared, os.O_CREAT | os.O_WRONLY)
                payload = bytes([0x41 + tenant]) * CHUNK
                for i in range(4):
                    plfs.plfs_write(fd, payload, CHUNK, (tenant * 4 + i) * CHUNK)
                plfs.plfs_close(fd)

        # --- 3. direct-path reader sees the tenants' bytes ------------- #
        rfd = plfs.plfs_open(shared, os.O_RDONLY)
        head = plfs.plfs_read(rfd, 8, 0)
        tail = plfs.plfs_read(rfd, 8, 8 * CHUNK - 8)
        size = plfs.plfs_getattr(rfd).st_size
        plfs.plfs_close(rfd)
        print(f"direct reader: {size} logical bytes, "
              f"head={head!r}, tail={tail!r}")

        # --- the daemon's own accounting ------------------------------- #
        stats = stress.daemon_stats(sock)
        agg = stats["aggregate"]
        print(f"daemon: {agg['creates']} creates, "
              f"queue wait {agg['queue_wait_seconds'] * 1e6:.0f} us total")
        print(json.dumps({c["name"]: c["creates"] for c in stats["per_client"]},
                         sort_keys=True))
    finally:
        stress.stop_daemon(daemon, sock)
        shutil.rmtree(arena, ignore_errors=True)


if __name__ == "__main__":
    main()
