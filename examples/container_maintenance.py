#!/usr/bin/env python
"""Operating on PLFS containers: inspection, garbage, crash recovery.

A PLFS container is a *log*: overwrites append rather than replace, so a
long-running job that rewrites its output accumulates dead bytes, and a
crashed writer leaves openhost markers and missing metadata behind.
This example walks the operator workflow with the bundled tools:

    plfs_check -> consistency + garbage report (repro-fsck --dry-run)
    flatten    -> compact the log
    fsck       -> repair after a simulated crash (repro-fsck)

Run:  python examples/container_maintenance.py
"""

import os
import tempfile

from repro import plfs
from repro.plfs.fsck import fsck, plfs_check

backend = tempfile.mkdtemp(prefix="plfs-maint-")
path = os.path.join(backend, "results.dat")

# --- a job rewrites the same region many times (log garbage) -----------
fd = plfs.plfs_open(path, os.O_CREAT | os.O_WRONLY)
for iteration in range(8):
    payload = bytes([iteration]) * 65536
    plfs.plfs_write(fd, payload, len(payload), 0)
plfs.plfs_write(fd, b"tail", 4, 65536)
plfs.plfs_close(fd)

print("after the job:")
report = plfs_check(path)
print(report.render())
assert report.ok and report.garbage_ratio > 0.8

# --- compact --------------------------------------------------------------
plfs.plfs_flatten_index(path)
usage = plfs_check(path)
print(f"\nafter flatten: {usage.physical_bytes} physical bytes, "
      f"garbage {usage.garbage_ratio:.0%}")
assert usage.garbage_bytes == 0

# --- simulate a crash: writer died without closing -------------------------
fd = plfs.plfs_open(path, os.O_WRONLY, pid=777)
plfs.plfs_write(fd, b"partial state", 13, 100000)
fd.writer.sync()          # data reached the droppings...
fd.writer.close()
# ...but the process died before plfs_close: marker + no meta update.
print("\nafter the crash:")
crashed = plfs_check(path)
print(crashed.render())
assert any("openhost" in w for w in crashed.warnings)

# --- recover ----------------------------------------------------------------
print("\nrecovering:")
repaired = fsck(path)
print(repaired.render())
assert repaired.ok and not repaired.check.warnings
size = plfs.plfs_getattr(path).st_size
print(f"\nlogical size after recovery: {size} bytes "
      "(the crashed writer's synced data is preserved)")
assert size == 100013
