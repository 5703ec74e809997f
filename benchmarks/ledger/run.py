"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/ledger/run.py``.

Run as a script from the root of a checkout, so it puts the checkout on
``sys.path`` itself and hands over to the CLI ``python -m benchmarks.ledger``
uses (which finds ``src`` the same way: no ``PYTHONPATH`` needed).
"""

import os
import sys

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    # The script directory must not shadow anything; the package is
    # imported under its full name, exactly as ``-m`` would.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path.insert(0, os.path.dirname(os.path.dirname(here)))
    from benchmarks.ledger.cli import main

    sys.exit(main())
