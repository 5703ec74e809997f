"""The shim-vs-flat ledger: the repo's end-to-end benchmark.

Unmodified POSIX call streams (plain ``os.*`` / ``builtins.open`` /
``repro.unixtools``) are replayed once against a raw directory (``flat``,
the floor) and once under :class:`repro.core.interpose.Interposer` on a
PLFS mount (``shim``); a second, traced repetition wraps the public entry
points of every layer *from here* to produce the per-layer ledger.  See
``README.md`` in this directory for every metric and workload.
"""
