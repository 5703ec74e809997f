"""Slotted shared-memory segments: the plfsd data plane's geometry.

The plfsd client's append plane (``client.py``) parks payloads at or
above :data:`SHM_THRESHOLD` in a slot so only a 16-byte descriptor
crosses the socket.

A :class:`SegmentPool` is one shared-memory segment carved into
fixed-size slots with a free list.  Slot recycling is the caller's
ordering contract: a slot may be released only once the consumer is
provably done with its pages (for plfsd, when the strictly-ordered reply
arrives).

Shared memory is an optimisation, never a requirement — creation failure
(no ``/dev/shm``, no ``multiprocessing.shared_memory``) must degrade to
the plain copy path, which is why :func:`try_create_pool` returns
``None`` instead of raising.
"""

from __future__ import annotations

from collections import deque

#: one slot: large enough for a cb_buffer_size-chunked piece
SHM_SLOT_BYTES = 1 << 20
#: slots per segment (bounds in-flight staged payloads)
SHM_SLOTS = 16
#: below this the bookkeeping costs more than the copy it saves
SHM_THRESHOLD = 256 * 1024


class SegmentPool:
    """One shared-memory segment carved into recyclable fixed-size slots."""

    def __init__(self, *, slot_bytes: int = SHM_SLOT_BYTES, slots: int = SHM_SLOTS):
        from multiprocessing import shared_memory

        self.slot_bytes = slot_bytes
        self.slots = slots
        self._seg = shared_memory.SharedMemory(create=True, size=slot_bytes * slots)
        self._free: deque[int] = deque(range(slots))

    # -- identity (what crosses the wire to the attaching peer) --------- #

    @property
    def name(self) -> str:
        return self._seg.name

    @property
    def size(self) -> int:
        return self._seg.size

    # -- slot lifecycle ------------------------------------------------- #

    @property
    def available(self) -> bool:
        return bool(self._free)

    def acquire(self) -> int:
        """Take a free slot index (caller must have checked *available*)."""
        return self._free.popleft()

    def release(self, slot: int) -> None:
        self._free.append(slot)

    def stage(self, view) -> tuple[int, int, int]:
        """Copy up to one slot's worth of *view* into a free slot.

        Returns ``(slot, base, taken)``: the slot index, its byte offset
        inside the segment, and how many bytes were staged.
        """
        slot = self.acquire()
        base = slot * self.slot_bytes
        take = min(len(view), self.slot_bytes)
        self._seg.buf[base : base + take] = view[:take]
        return slot, base, take

    # -- teardown (close/unlink split so client._destroy_shm works) ----- #

    def close(self) -> None:
        self._seg.close()

    def unlink(self) -> None:
        self._seg.unlink()


def try_create_pool(
    *, slot_bytes: int = SHM_SLOT_BYTES, slots: int = SHM_SLOTS
) -> SegmentPool | None:
    """A :class:`SegmentPool`, or ``None`` where shared memory is
    unavailable — callers degrade to their copy path."""
    try:
        return SegmentPool(slot_bytes=slot_bytes, slots=slots)
    except (ImportError, OSError):
        return None
