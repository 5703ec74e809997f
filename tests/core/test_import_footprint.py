"""What a process pays for loading the shim: the interposition layer, the
PLFS library and the unix tools load nothing a process that never touches
a mount has no use for — no array library, no simulator, no tracer."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro


def test_the_interposed_process_imports_no_numpy_simulator_or_tracer():
    code = (
        "import json, sys\n"
        "import repro.core.interpose, repro.plfs.cache, repro.unixtools\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    loaded = json.loads(out)
    assert "repro.plfs.index" in loaded  # the import under test happened
    assert [m for m in loaded if m == "numpy" or m.startswith("numpy.")] == []
    assert [m for m in loaded if m == "repro.sim" or m.startswith("repro.sim.")] == []
    assert "repro.core.trace" not in loaded


def test_the_tracer_names_still_resolve_from_the_package():
    from repro.core import FileStats, TraceReport, Tracer, traced
    from repro.core import trace

    assert (Tracer, traced, TraceReport, FileStats) == (
        trace.Tracer, trace.traced, trace.TraceReport, trace.FileStats)
