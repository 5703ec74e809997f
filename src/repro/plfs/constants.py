"""On-disk names and magic values for the PLFS container format.

The layout follows the PLFS 2.x container structure described in the paper
(Fig. 1) and in Bent et al., SC'09: a logical file is a directory on the
backend file system holding one ``hostdir.N`` sub-directory per writing host,
each containing *data droppings* (the log) and *index droppings* (the maps
from logical file offsets to extents inside the data droppings).
"""

from __future__ import annotations

#: Marker file that makes a backend directory recognisable as a PLFS
#: container rather than a plain directory.  The numeric suffix matches the
#: magic used by the original C implementation.
ACCESS_FILE = ".plfsaccess113918400"

#: Records which host/pid created the container and when.
CREATOR_FILE = "creator"

#: Directory holding one marker file per host that currently has the
#: container open for writing (used to decide whether cached metadata in
#: ``META_DIR`` can be trusted).
OPENHOSTS_DIR = "openhosts"

#: Directory of cached-metadata droppings written at close time; each file is
#: named ``<last_offset>.<total_bytes>.<host>``.
META_DIR = "meta"

#: Prefix of the per-host data/index sub-directories: ``hostdir.0`` ...
HOSTDIR_PREFIX = "hostdir."

#: Data dropping file name prefix: ``dropping.data.<ts>.<host>.<pid>``.
DATA_PREFIX = "dropping.data."

#: Index dropping file name prefix: ``dropping.index.<ts>.<host>.<pid>``.
INDEX_PREFIX = "dropping.index."

#: Write-ahead index dropping prefix: ``dropping.wal.<ts>.<host>.<pid>``.
#: Present only while a WAL-enabled writer is open (or crashed): each data
#: append persists its index record here *before* touching the data
#: dropping, so ``repro-fsck`` can rebuild a lost or torn index dropping.
#: Deleted on clean close, when the index dropping becomes authoritative.
WAL_PREFIX = "dropping.wal."

#: Number of ``hostdir.N`` buckets a container is created with.  Hosts hash
#: into a bucket, so the bucket count bounds backend-directory fan-out.
NUM_HOSTDIRS = 32

#: Version tag written into the creator file; bump on incompatible change.
FORMAT_VERSION = 1

#: Sentinel dropping id used in a read plan for a hole (unwritten region).
HOLE = -1

#: File name of the persistent compacted global index, stored in the
#: container root (never inside a hostdir, so dropping enumeration ignores
#: it).  Written by ``repro-plfs compact`` and, where it can save a reader
#: something (see :data:`COMPACT_MIN_RECORDS`), on clean close; validated
#: against the container epoch and *never* trusted when stale — a reader
#: that finds a mismatching or unparsable file silently falls back to
#: merging the per-writer index droppings.
GLOBAL_INDEX_FILE = "global.index"

#: A clean close leaves a container of *one* index dropping uncompacted
#: unless that dropping holds more than this many records.  Compaction
#: exists to skip the merge of several droppings; with one, a reader opens
#: one file either way, and a cold ``load_index`` of it is no slower merged
#: than compacted through 4,096 records (it loses only on many out-of-order
#: records, which the one sort then pays for: DESIGN §5 decision 17 has the
#: table).  More than one dropping always compacts.
COMPACT_MIN_RECORDS = 4096

#: Magic string opening the compacted-global-index header.
GLOBAL_INDEX_MAGIC = "plfs-global-index"

#: Version of the compacted-global-index format; bump on incompatible change.
GLOBAL_INDEX_VERSION = 1

#: Default cap on a read handle's data-dropping descriptor cache.  One fd
#: per dropping with no bound exhausts ``RLIMIT_NOFILE`` on wide containers
#: (one dropping per writing rank); past the cap the least-recently-used
#: descriptor is closed and reopened on demand.
FD_CACHE_LIMIT = 64

#: Maximum physical gap (bytes, within one data dropping) across which two
#: plan slices are still serviced by a single pread — the data-sieving
#: trade described by Thakur et al.: reading and discarding a small gap is
#: cheaper than a second I/O.  Slices merge when physically adjacent or
#: separated by at most this many bytes.
READ_COALESCE_GAP = 4096

#: Number of containers the process-wide shared index cache retains.
INDEX_CACHE_CAPACITY = 64

#: File name of the per-container generation file, stored in the container
#: root.  Atomically replaced (write + rename, so it gets a fresh inode and
#: mtime) by every write-path flush/sync/close, it lets readers in *other*
#: processes see their cached index go stale with one ``fstat`` of the copy
#: they hold open (replaced is unlinked).
#: Purely advisory: a missing or unreadable generation file only disables
#: the cross-process fast check, never correctness (the container epoch
#: remains the authority).
GENERATION_FILE = "generation"
