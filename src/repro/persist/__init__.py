"""Durable platform state: versioned snapshots + a mutation WAL.

Everything the platform serves — privatised semi-ring sketches, packed
MinHash signatures, sparse TF-IDF postings — used to be rebuilt from
scratch on every start.  This package makes that state restartable:

* :mod:`repro.persist.snapshot` — the versioned, checksummed snapshot
  format (atomic-rename writes; restore is bit-identical, DP-randomised
  sketches included);
* :mod:`repro.persist.wal` — the append-only mutation log with torn-tail
  recovery; replaying it on a restored snapshot is deterministic;
* :mod:`repro.persist.manager` — :class:`SnapshotManager`, the cadence
  policy (every N mutations / M seconds) that re-snapshots and truncates
  the WAL, and the warm-start loader.

Entry points most callers want: ``Mileena.save(path)`` /
``Mileena.load(path)`` / ``Mileena.attach_snapshots(directory)`` on the
platform facade, and ``GatewayConfig(snapshot_dir=...)`` on the serving
layer (which also re-bases process-backend replicas onto each new
snapshot — see ``docs/ARCHITECTURE.md``, "Durable state").

Cadence knobs, with defaults:

===================  =========  ==============================================
knob                 default    effect
===================  =========  ==============================================
``every_mutations``  ``64``     re-snapshot after N journaled mutations; also
                                bounds the WAL and the process backend's
                                envelope mutation logs
``every_seconds``    ``None``   re-snapshot when M seconds have passed,
                                checked at mutation time
``fsync``            ``False``  fsync every WAL append and snapshot write
                                (power-cut durability) instead of flush-only
===================  =========  ==============================================
"""

from repro.persist.manager import (
    SNAPSHOT_FILE,
    WAL_FILE,
    SnapshotManager,
    quarantine_corrupt,
)
from repro.persist.snapshot import (
    FORMAT_VERSION,
    read_snapshot,
    restore_platform,
    snapshot_platform,
    write_snapshot,
)
from repro.persist.wal import (
    MutationWAL,
    WalRecord,
    apply_records,
    read_wal_records,
)

__all__ = [
    "SnapshotManager",
    "MutationWAL",
    "WalRecord",
    "apply_records",
    "read_wal_records",
    "quarantine_corrupt",
    "snapshot_platform",
    "restore_platform",
    "read_snapshot",
    "write_snapshot",
    "FORMAT_VERSION",
    "SNAPSHOT_FILE",
    "WAL_FILE",
]
