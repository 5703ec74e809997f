"""The fault matrix: every fault class, its invariant, and its verdict.

Each :class:`FaultCase` is either an *injected* fault (the
:class:`~repro.faults.injector.FaultInjector` fires it mid-run at a chosen
operation) or a *damage* pattern (applied to the container after the run,
modelling backend corruption such as a lost ``hostdir.N`` tree).

Every case carries its **post-crash invariant** — what must hold after
``repro-fsck`` runs — and one recovery verdict, ``recoverable``: ``True``
means the recovered container must read back *byte-identical* to the
expected shadow content; ``False`` means the loss is inherent (no on-disk
record of the lost bytes' logical offsets exists, see the recovery
invariant in :mod:`repro.plfs`) and fsck must instead **detect and
report** it as unrecoverable.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

from repro.plfs import constants

from .injector import FaultSpec


@dataclass(frozen=True)
class FaultCase:
    """One row of the fault matrix."""

    name: str
    #: "inject" (fires mid-run) or "damage" (applied to the container after
    #: a clean run)
    mode: str
    description: str
    #: what must hold after repro-fsck
    invariant: str
    #: the container reads back byte-identical after fsck (else fsck must
    #: report the loss)
    recoverable: bool
    #: injection point/behavior (inject mode)
    point: str | None = None
    behavior: str | None = None
    #: extra FaultSpec parameters (e.g. short_bytes)
    params: dict = field(default_factory=dict)
    #: the run "dies" mid-schedule (InjectedCrash escapes)
    crashes: bool = False
    #: fire on exactly this operation number, overriding the harness's
    #: default arm position (needed when the fault must land at a precise
    #: step of the tier's upload drain)
    fire_op: int | None = None
    #: additional faults armed alongside the primary one; each entry is a
    #: dict with "point", "behavior", optional "params", and either "op"
    #: (absolute) or "op_frac" (fraction of the schedule length)
    companions: tuple = ()
    #: objectstore arm: the schedule runs over the tiered object backend
    #: and the fault fires during the post-run tier drain (upload), not
    #: during the schedule itself — see ``harness.run_objectstore_case``
    objectstore: bool = False
    #: after the (faulted) drain, evict the tier's clean entries and
    #: restore from the store — exposing any entry a failed upload
    #: falsely marked clean (the stale-tier-eviction failure mode)
    tier_evict: bool = False
    #: damage function (damage mode): takes the container path
    damage: Callable[[str], None] | None = None

    def spec(self, op: int = 1) -> FaultSpec:
        """Build the armed FaultSpec, firing on the *op*-th operation at
        this case's point (inject mode only)."""
        if self.mode != "inject":
            raise ValueError(f"{self.name} is a damage case, not an injection")
        return FaultSpec(self.point, self.behavior, op=op, **self.params)


# ---------------------------------------------------------------------- #
# damage functions
# ---------------------------------------------------------------------- #


def damage_lose_index_droppings(path: str) -> None:
    """Delete every index dropping, orphaning the data droppings — the
    lost-``hostdir.N``-metadata class from the issue, in its most hostile
    form (data survives, the map to logical offsets does not)."""
    for entry in sorted(os.listdir(path)):
        if not entry.startswith(constants.HOSTDIR_PREFIX):
            continue
        hostdir = os.path.join(path, entry)
        if not os.path.isdir(hostdir):
            continue
        for name in sorted(os.listdir(hostdir)):
            if name.startswith(constants.INDEX_PREFIX):
                os.unlink(os.path.join(hostdir, name))


def damage_lose_skeleton(path: str) -> None:
    """Delete the bookkeeping directories (``openhosts/``, ``meta/``) —
    recoverable damage: they carry no unrecoverable state."""
    for name in (constants.OPENHOSTS_DIR, constants.META_DIR):
        shutil.rmtree(os.path.join(path, name), ignore_errors=True)


def damage_stale_openhost_marker(path: str) -> None:
    """Plant an openhost marker for a writer that no longer exists — the
    residue of a crashed process that never reached unregister."""
    d = os.path.join(path, constants.OPENHOSTS_DIR)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "deadhost.99999"), "w") as fh:
        fh.write("0.0\n")


# ---------------------------------------------------------------------- #
# the matrix
# ---------------------------------------------------------------------- #

FAULT_MATRIX: tuple[FaultCase, ...] = (
    FaultCase(
        name="short-data-write",
        mode="inject",
        point="data_write",
        behavior="short",
        params={"short_bytes": 3},
        description="a data-dropping append persists only a prefix and "
        "returns the short count (POSIX short write)",
        invariant="the index records exactly the bytes the append "
        "acknowledged; the container is consistent without repair and "
        "reads back byte-identical to the acknowledged writes",
        recoverable=True,
    ),
    FaultCase(
        name="enospc-data-write",
        mode="inject",
        point="data_write",
        behavior="enospc",
        description="a data-dropping append fails wholesale with ENOSPC",
        invariant="the failed write leaves no trace: no data bytes, no "
        "index record; the container reads back byte-identical to the "
        "successful writes",
        recoverable=True,
    ),
    FaultCase(
        name="eintr-data-write",
        mode="inject",
        point="data_write",
        behavior="eintr",
        description="a data-dropping append is interrupted by a signal "
        "before writing anything (EINTR)",
        invariant="identical to enospc-data-write: the interrupted call "
        "leaves no trace (the shim retry policy makes it invisible to "
        "applications; here the bare API surfaces it)",
        recoverable=True,
    ),
    FaultCase(
        name="torn-data-write",
        mode="inject",
        point="data_write",
        behavior="torn",
        params={"short_bytes": 5},
        crashes=True,
        description="the process is killed mid-append: a prefix of the "
        "payload reached the data dropping, the index record only ever "
        "existed in memory",
        invariant="the torn bytes are unindexed: fsck trims them, reports "
        "them unrecoverable, and the file reads back as the last synced "
        "state",
        recoverable=False,
    ),
    FaultCase(
        name="crash-before-data-write",
        mode="inject",
        point="data_write",
        behavior="crash",
        crashes=True,
        description="the process is killed the instant before a data "
        "append: zero payload bytes of it ever landed",
        invariant="earlier unflushed records are lost with the process: "
        "fsck trims their data bytes and reports them unrecoverable",
        recoverable=False,
    ),
    FaultCase(
        name="crash-before-index-flush",
        mode="inject",
        point="index_flush",
        behavior="crash",
        crashes=True,
        description="the process is killed after data appends but before "
        "the buffered index records are flushed (the canonical PLFS "
        "crash window)",
        invariant="the unindexed data bytes are trimmed and reported "
        "unrecoverable; previously synced records always survive",
        recoverable=False,
    ),
    FaultCase(
        name="torn-index-flush",
        mode="inject",
        point="index_flush",
        behavior="torn",
        crashes=True,
        description="the process is killed mid-index-flush: the index "
        "dropping ends on a partial record",
        invariant="fsck truncates to the last whole record — the "
        "surviving content is a write-order-consistent prefix and the "
        "stranded tail is reported unrecoverable",
        recoverable=False,
    ),
    FaultCase(
        name="short-write-then-crash-before-index-flush",
        mode="inject",
        point="index_flush",
        behavior="crash",
        crashes=True,
        companions=(
            {
                "point": "data_write",
                "behavior": "short",
                "params": {"short_bytes": 3},
                "op_frac": 0.75,
            },
        ),
        description="a mid-stream append persists only a prefix (short "
        "write), more appends follow in the same dropping, then the "
        "process is killed before the index flush",
        invariant="the records buffered since the last sync die with the "
        "process: the unindexed tail is trimmed and reported "
        "unrecoverable",
        recoverable=False,
    ),
    FaultCase(
        name="enospc-meta-create",
        mode="inject",
        point="meta_create",
        behavior="enospc",
        description="writing the cached-size meta dropping at close time "
        "fails with ENOSPC (close raises; index and data are already "
        "safe)",
        invariant="the container is fully readable without the meta "
        "cache; fsck rebuilds it from the global index and the file "
        "reads back byte-identical",
        recoverable=True,
    ),
    FaultCase(
        name="lost-index-droppings",
        mode="damage",
        damage=damage_lose_index_droppings,
        description="backend metadata loss deletes every index dropping "
        "after a clean close, orphaning the data droppings",
        invariant="no record of the data's logical offsets survives: "
        "fsck quarantines the orphaned data droppings, "
        "reports every lost byte as unrecoverable, and leaves a "
        "consistent (empty) container",
        recoverable=False,
    ),
    FaultCase(
        name="lost-container-skeleton",
        mode="damage",
        damage=damage_lose_skeleton,
        description="backend metadata loss deletes the bookkeeping "
        "directories (openhosts/, meta/) while droppings survive",
        invariant="the skeleton carries no unrecoverable state: fsck "
        "recreates it and rebuilds the meta cache from the index; the "
        "file reads back byte-identical",
        recoverable=True,
    ),
    FaultCase(
        name="stale-openhost-marker",
        mode="damage",
        damage=damage_stale_openhost_marker,
        description="a crashed writer's openhost marker survives, making "
        "the size cache permanently untrusted",
        invariant="fsck clears the stale marker (it runs offline, like "
        "plfs_recover) and the file reads back byte-identical",
        recoverable=True,
    ),
    # ------------------------------------------------------------------ #
    # objectstore arms: the schedule runs clean over the tiered object
    # backend; the fault fires during the tier's upload drain.
    # ------------------------------------------------------------------ #
    FaultCase(
        name="lost-object-put",
        mode="inject",
        point="object_commit",
        behavior="lost",
        objectstore=True,
        # drain order is FIFO by first local write: the index dropping is
        # touched at open (commit 1), the data dropping's first append
        # enters second (commit 2), the close-time meta drop third
        fire_op=2,
        description="the object store acknowledges the data dropping's "
        "PUT but persists nothing (a lost PUT): the key manifest never "
        "commits, yet the tier's flusher sees success",
        invariant="the local tier copy survives (it is only a *cache* "
        "that may be dropped, but it has not been yet): fsck's resync "
        "detects the missing object, re-uploads it from the repaired "
        "local copy, and the file reads back byte-identical",
        recoverable=True,
    ),
    FaultCase(
        name="torn-multipart-upload",
        mode="inject",
        point="object_part",
        behavior="torn",
        crashes=True,
        objectstore=True,
        fire_op=2,
        description="the uploader is killed mid-multipart-upload: part "
        "one of the data dropping landed in staging, part two tore, no "
        "key manifest was ever committed",
        invariant="the torn staging is invisible to readers (the "
        "manifest commit is the linearization point): fsck sweeps the "
        "staging directory, re-uploads the dropping whole from the "
        "intact local copy, and the file reads back byte-identical",
        recoverable=True,
    ),
    FaultCase(
        name="stale-tier-eviction",
        mode="inject",
        point="object_commit",
        behavior="lost",
        objectstore=True,
        tier_evict=True,
        fire_op=2,  # the data dropping's commit; see lost-object-put
        description="a lost PUT is compounded by capacity pressure: the "
        "tier — believing the acknowledged upload — marks the data "
        "dropping clean and evicts its local copy before anyone notices "
        "the object never landed",
        invariant="both copies are gone; the index records promise "
        "bytes nothing holds.  fsck restores what the store does have "
        "(index, meta), detects the orphaned index, and reports the "
        "promised extent explicitly unrecoverable — never a silent "
        "truncation",
        recoverable=False,
    ),
)


def matrix_by_name(name: str) -> FaultCase:
    for case in FAULT_MATRIX:
        if case.name == name:
            return case
    raise KeyError(name)
