"""Seeded LDP006 violations: library code that reaches the OS by name.

Audited as if it were a ``repro.plfs`` module (see
``tests/lint/test_route_audit.py``); never imported or run.
"""

import os
import shutil
import tempfile

from repro.plfs.route import posix


def probe_then_act(path):
    if os.path.exists(path):  # a probe the shim would have to pass through
        os.stat(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("x")
    fd, name = tempfile.mkstemp()
    os.close(fd)
    shutil.rmtree(name, ignore_errors=True)


def routed(path):
    # All fine: the route, flag constants, pure path arithmetic.
    fd = posix.open(os.path.join(path, "f"), os.O_RDONLY)
    posix.close(fd)
    with posix.builtins_open(path) as fh:
        return fh.read(), os.getpid(), os.stat_result
