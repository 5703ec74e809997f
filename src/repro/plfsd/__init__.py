"""``repro.plfsd`` — PLFS as a service: the container metadata daemon.

The paper's scaling failure (§V.C) is metadata: when thousands of clients
create dropping files at once, Lustre's *dedicated* metadata server
serializes the storm and PLFS turns from accelerator into bottleneck.
This package runs that MDS for real containers so the phenomenon — and
its eventual fixes — can be reproduced with real bytes.  Only the create
crosses to the daemon; every byte is written and read by the client
process itself, as on Lustre every rank writes straight to the OSTs:

- :mod:`repro.plfsd.protocol` — the length-prefixed binary wire protocol
  (request framing, typed error envelope);
- :mod:`repro.plfsd.server` — the asyncio daemon: container creates from
  many client processes serialized on one metadata lock, per-client
  queue-wait accounting;
- :mod:`repro.plfsd.client` — the synchronous client whose ``open`` makes
  the create in the daemon and opens in-process, behind ``repro.core``'s
  ``daemon=`` mount option;
- :mod:`repro.plfsd.stress` — the create-storm / multi-tenant stress
  harness reproducing the dedicated-MDS meltdown in the real path;
- :mod:`repro.plfsd.cli` — the ``repro-plfsd`` console entry point.
"""

from .client import PlfsdClient, PlfsdUnavailable
from .protocol import ProtocolError, RemoteError
from .server import PlfsdServer

__all__ = [
    "PlfsdClient",
    "PlfsdServer",
    "PlfsdUnavailable",
    "ProtocolError",
    "RemoteError",
]
