"""``cat`` — concatenate files to an output stream."""

from __future__ import annotations

from typing import BinaryIO, Iterable

#: Read granularity; matches GNU coreutils' preferred I/O block ballpark.
BLOCK_SIZE = 128 * 1024


def cat(paths: Iterable[str], out: BinaryIO | None = None) -> int:
    """Concatenate *paths* into *out* (or a discarding sink).

    Returns the total number of bytes written.  Reads in fixed blocks with
    plain ``open``/``read`` so the interposition layer sees the same POSIX
    call pattern the real tool produces.
    """
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            while True:
                block = fh.read(BLOCK_SIZE)
                if not block:
                    break
                if out is not None:
                    out.write(block)
                total += len(block)
    return total
