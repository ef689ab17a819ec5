"""Snapshot cadence management: re-snapshot, retain a chain, warm-start.

:class:`SnapshotManager` owns one durable-state directory::

    <directory>/snapshot.bin            the latest full snapshot (atomic replace)
    <directory>/wal.bin                 mutations since that snapshot
    <directory>/snapshot-<epoch>.bin    retained previous snapshot versions
    <directory>/wal-<epoch>.bin         sealed WAL segments continuing them
    <directory>/*.corrupt               quarantined files that failed checksum

It subscribes to the corpus's mutation journal: every register /
bulk-register / unregister is appended to the WAL *inside the corpus
lock* (so the log can never miss or reorder a mutation), and when the
cadence policy fires — every ``every_mutations`` mutations and/or every
``every_seconds`` seconds, evaluated at mutation time — the manager
writes a fresh snapshot.  The superseded snapshot is *retained* (hard
link, falling back to a copy) as ``snapshot-<epoch>.bin`` and the live
WAL is sealed beside it as ``wal-<epoch>.bin``, keeping the last
``keep_snapshots`` versions recoverable: each retained snapshot plus the
segment chain after it replays to exactly the newest state.  Restart is
``SnapshotManager.load(directory)`` (or ``Mileena.load``): restore the
newest *verifiable* snapshot — a corrupt one is logged, quarantined to
``<name>.corrupt``, and skipped in favour of the previous version — then
replay the sealed segments and the live WAL tail on top.

Listeners (the process backend) are notified after each snapshot with
``(path, epoch)`` so replica bootstrap state and envelope mutation logs
can be re-based onto the new snapshot; see
``repro.serving.backends.ProcessPoolBackend``.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
from pathlib import Path

from repro.core.clock import WallClock
from repro.exceptions import PersistError, SnapshotCorrupt
from repro.obs import span
from repro.persist.snapshot import read_snapshot, snapshot_platform, write_snapshot
from repro.persist.wal import MutationWAL, apply_records, read_wal_records

SNAPSHOT_FILE = "snapshot.bin"
WAL_FILE = "wal.bin"

_VERSIONED_SNAPSHOT = re.compile(r"^snapshot-(\d{12})\.bin$")
_SEALED_SEGMENT = re.compile(r"^wal-(\d{12})\.bin$")

_LOG = logging.getLogger("repro.persist")


def quarantine_corrupt(path: Path) -> Path:
    """Rename a corrupt durable-state file to ``<name>.corrupt``.

    The bytes are preserved for forensics but taken out of every future
    load's candidate chain; an existing quarantine of the same name is
    overwritten (the newer corruption is the interesting one).
    """
    target = path.with_name(path.name + ".corrupt")
    with span("persist.snapshot_quarantine", path=str(path)):
        os.replace(path, target)
    return target


def _versioned_snapshots(directory: str | Path) -> list[tuple[int, Path]]:
    """Retained ``(epoch, snapshot-<epoch>.bin)`` pairs, oldest first.

    :meth:`SnapshotManager.load` walks them newest first as fallbacks
    when ``snapshot.bin`` fails verification; pruning drops the oldest.
    """
    versions = []
    for path in Path(directory).iterdir():
        match = _VERSIONED_SNAPSHOT.match(path.name)
        if match:
            versions.append((int(match.group(1)), path))
    return sorted(versions)


def _sealed_segments(directory: str | Path) -> list[tuple[int, Path]]:
    """Sealed ``(base epoch, wal-<epoch>.bin)`` pairs, oldest first.

    The base epoch is the epoch of the snapshot the segment *continues*
    (its first record is ``base + 1``).  :meth:`SnapshotManager.load`
    replays segments in this order on top of whichever snapshot it
    restored, then the live WAL — the epoch guard in
    :func:`~repro.persist.wal.apply_records` skips anything already
    covered.
    """
    segments = []
    for path in Path(directory).iterdir():
        match = _SEALED_SEGMENT.match(path.name)
        if match:
            segments.append((int(match.group(1)), path))
    return sorted(segments)


class SnapshotManager:
    """Keeps one platform's durable state current under a cadence policy.

    Parameters
    ----------
    platform:
        The :class:`~repro.core.platform.Mileena` whose corpus to journal.
    directory:
        Durable-state directory (created if missing).
    every_mutations:
        Re-snapshot after this many journaled mutations (``None`` = never
        by count).  This is also the bound on the WAL length — and, once
        the process backend is wired in, on its envelope mutation logs.
    every_seconds:
        Re-snapshot when this much wall time has passed since the last
        snapshot, checked when a mutation arrives (``None`` = never by
        time; an idle corpus is never re-snapshotted — its snapshot is
        already current).
    clock:
        Time source for ``every_seconds`` (defaults to the platform's
        clock, falling back to :class:`~repro.core.clock.WallClock`).
    fsync:
        Fsync WAL appends and snapshot writes (power-cut durability)
        instead of flush-only (process-crash durability, the default).
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry`:
        ``persist.wal_records``, ``persist.snapshots``, and the
        ``persist.wal_length`` gauge land here.
    keep_snapshots:
        How many *previous* snapshot versions (and the sealed WAL
        segments continuing them) to retain beside the newest one.  Each
        retained version is a fallback if a newer snapshot file is found
        corrupt at load time; ``0`` disables the chain (newest-only, the
        pre-chain layout).
    """

    def __init__(
        self,
        platform,
        directory: str | Path,
        every_mutations: int | None = 64,
        every_seconds: float | None = None,
        clock: object | None = None,
        fsync: bool = False,
        metrics: object | None = None,
        keep_snapshots: int = 2,
    ) -> None:
        if every_mutations is not None and every_mutations <= 0:
            raise PersistError("every_mutations must be positive (or None)")
        if every_seconds is not None and every_seconds <= 0:
            raise PersistError("every_seconds must be positive (or None)")
        if keep_snapshots < 0:
            raise PersistError("keep_snapshots must be non-negative")
        self.keep_snapshots = keep_snapshots
        self.platform = platform
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every_mutations = every_mutations
        self.every_seconds = every_seconds
        self.fsync = fsync
        self.metrics = metrics
        self.clock = clock or getattr(platform, "clock", None) or WallClock()
        self.wal = MutationWAL(self.wal_path, fsync=fsync)
        self.snapshot_epoch: int | None = None
        self._listeners: list = []
        self._mutations_since = 0
        self._last_snapshot_time = self.clock.now()
        self._attached = False

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_FILE

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_FILE

    # -- lifecycle ---------------------------------------------------------------
    def attach(self) -> "SnapshotManager":
        """Subscribe to the corpus journal; baseline the directory.

        A directory with no usable snapshot gets one immediately —
        otherwise a crash before the first cadence snapshot would lose
        every pre-attach registration.  A directory that already restores
        to the platform's exact epoch (the ``Mileena.load`` resume path)
        is left untouched and the WAL simply continues.  Any *other*
        epoch means the directory holds some different platform's history:
        attaching would silently overwrite durable state, so it refuses —
        resume with ``Mileena.load(directory)``, or point the manager at a
        fresh directory.
        """
        if self._attached:
            return self
        with self.platform.corpus.frozen():
            on_disk = self._on_disk_epoch()
            if on_disk is not None and on_disk != self.platform.corpus.epoch:
                raise PersistError(
                    f"{self.directory} already holds durable state restoring to "
                    f"epoch {on_disk}, but this platform is at epoch "
                    f"{self.platform.corpus.epoch}; resume it with "
                    f"Mileena.load({str(self.directory)!r}) or use a fresh "
                    f"directory"
                )
            self.platform.corpus.subscribe(self._observe)
            self._attached = True
            if on_disk is None:
                self.snapshot()
        return self

    def detach(self) -> None:
        """Stop journaling and release the WAL file handle."""
        if self._attached:
            self.platform.corpus.unsubscribe(self._observe)
            self._attached = False
        self.wal.close()

    def _on_disk_epoch(self) -> int | None:
        """Epoch the directory currently restores to, or None when unusable."""
        if not self.snapshot_path.exists():
            return None
        try:
            epoch = read_snapshot(self.snapshot_path)["epoch"]
        except SnapshotCorrupt as error:
            # The live platform is authoritative here and will re-baseline
            # the directory; keep the corrupt bytes for forensics.
            quarantined = quarantine_corrupt(self.snapshot_path)
            _LOG.warning(
                "snapshot %s failed verification at attach (%s); quarantined as %s",
                self.snapshot_path,
                error,
                quarantined.name,
            )
            return None
        except PersistError:
            return None
        self.snapshot_epoch = epoch
        last = self.wal.last_epoch
        return last if last is not None and last > epoch else epoch

    def add_listener(self, listener) -> None:
        """``listener(path, epoch)`` fires after every snapshot write.

        This is the *publish* hook: the path is the freshly replaced
        ``snapshot.bin`` and the epoch is the corpus state it captures.
        The process backend re-bases its envelope mutation log on it.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- journaling --------------------------------------------------------------
    def _observe(self, epoch: int, op: str, payload: object) -> None:
        # Runs inside the corpus lock: the WAL sees every mutation exactly
        # once, in commit order, and a cadence snapshot taken here is a
        # consistent image of the post-mutation corpus.
        self.wal.append(epoch, op, payload)
        self._mutations_since += 1
        if self.metrics is not None:
            self.metrics.increment("persist.wal_records")
            self.metrics.set_gauge("persist.wal_length", self.wal.record_count)
        if self._cadence_due():
            self.snapshot()

    def _cadence_due(self) -> bool:
        if self.every_mutations is not None and self._mutations_since >= self.every_mutations:
            return True
        if (
            self.every_seconds is not None
            and self.clock.now() - self._last_snapshot_time >= self.every_seconds
        ):
            return True
        return False

    # -- snapshotting ------------------------------------------------------------
    def snapshot(self) -> Path:
        """Write a fresh snapshot now; retain the superseded version.

        Safe both from the journal observer (corpus lock already held —
        ``frozen`` is re-entrant) and from any other thread: the whole
        retain → seal → capture → write sequence runs under the corpus
        lock, which is what makes concurrent snapshot calls and racing
        mutations impossible to interleave with the file/WAL pair.  The
        cost is that *mutations* stall for the write's duration
        (``BENCH_persist.json``'s ``save_ms`` per corpus size — queries
        never take this lock); moving the write off the lock is a
        ROADMAP item, not worth the snapshot/WAL coherence risk here.

        Crash windows: the previous snapshot is retained (hard link) and
        the WAL sealed as its segment *before* the new ``snapshot.bin``
        is published, so every intermediate state still replays to the
        full mutation history — the chain loader walks newest-usable
        snapshot plus every later segment, and the epoch guard in
        :func:`~repro.persist.wal.apply_records` skips whatever the
        restored snapshot already covers.
        """
        corpus = self.platform.corpus
        with corpus.frozen(), span("persist.snapshot_save") as save:
            sections = snapshot_platform(self.platform)
            self._retain_previous()
            write_snapshot(self.snapshot_path, sections, fsync=self.fsync)
            self.snapshot_epoch = sections["epoch"]
            save.annotate(epoch=self.snapshot_epoch)
            self._prune_chain()
            self._mutations_since = 0
            self._last_snapshot_time = self.clock.now()
            if self.metrics is not None:
                self.metrics.increment("persist.snapshots")
                self.metrics.set_gauge("persist.wal_length", 0)
            for listener in list(self._listeners):
                listener(self.snapshot_path, self.snapshot_epoch)
        return self.snapshot_path

    def _retain_previous(self) -> None:
        """Link the outgoing snapshot into the chain and seal its WAL.

        With ``keep_snapshots == 0``, or with no verified previous
        snapshot (first write into a directory), the WAL is simply
        truncated — the pre-chain behaviour.
        """
        previous_epoch = self.snapshot_epoch
        if (
            self.keep_snapshots > 0
            and previous_epoch is not None
            and self.snapshot_path.exists()
        ):
            retained = self.directory / f"snapshot-{previous_epoch:012d}.bin"
            if not retained.exists():
                try:
                    os.link(self.snapshot_path, retained)
                except OSError:
                    # Filesystems without hard links (or cross-device
                    # layouts) fall back to a byte copy.
                    shutil.copy2(self.snapshot_path, retained)
            self.wal.rotate(self.directory / f"wal-{previous_epoch:012d}.bin")
        else:
            self.wal.truncate()

    def _prune_chain(self) -> None:
        """Drop retained versions beyond ``keep_snapshots`` (and their segments)."""
        versions = _versioned_snapshots(self.directory)
        excess = versions[: -self.keep_snapshots] if self.keep_snapshots else versions
        for _, path in excess:
            path.unlink(missing_ok=True)
        kept = versions[-self.keep_snapshots:] if self.keep_snapshots else []
        oldest_kept = kept[0][0] if kept else None
        for epoch, path in _sealed_segments(self.directory):
            if oldest_kept is None or epoch < oldest_kept:
                path.unlink(missing_ok=True)

    # -- restart -----------------------------------------------------------------
    @classmethod
    def load(cls, directory: str | Path):
        """Restore a platform from ``directory``: snapshot chain + WAL replay.

        Walks the snapshot candidates newest first (``snapshot.bin``,
        then the retained ``snapshot-<epoch>.bin`` versions).  A
        candidate that fails verification is logged, quarantined to
        ``<name>.corrupt``, and skipped — warm-start falls back to the
        previous version in the chain instead of raising.  On top of the
        restored snapshot every sealed WAL segment plus the live WAL is
        replayed in epoch order, so whichever version survived, the
        platform comes back at the newest journaled state.  A torn WAL
        tail (crash mid-append) is dropped; records the snapshot already
        covers are skipped by the epoch guard in
        :func:`repro.persist.wal.apply_records`.
        """
        from repro.persist.snapshot import restore_platform

        directory = Path(directory)
        candidates: list[Path] = []
        if (directory / SNAPSHOT_FILE).exists():
            candidates.append(directory / SNAPSHOT_FILE)
        candidates.extend(
            path for _, path in reversed(_versioned_snapshots(directory))
        )
        if not candidates:
            raise PersistError(f"{directory} holds no snapshot to restore")
        platform = None
        for candidate in candidates:
            try:
                sections = read_snapshot(candidate)
            except SnapshotCorrupt as error:
                quarantined = quarantine_corrupt(candidate)
                _LOG.warning(
                    "snapshot %s failed verification (%s); quarantined as %s, "
                    "falling back to the previous version in the chain",
                    candidate,
                    error,
                    quarantined.name,
                )
                continue
            platform = restore_platform(sections)
            break
        if platform is None:
            raise SnapshotCorrupt(
                f"every snapshot in {directory} failed verification "
                f"({len(candidates)} candidate(s) quarantined)"
            )
        # Sealed segments first (ascending base epoch), then the live WAL:
        # together they continue whichever snapshot version survived.
        for _, segment in _sealed_segments(directory):
            apply_records(platform.corpus, read_wal_records(segment))
        wal_path = directory / WAL_FILE
        if wal_path.exists():
            wal = MutationWAL(wal_path)
            try:
                apply_records(platform.corpus, wal.replay())
            finally:
                wal.close()
        return platform
