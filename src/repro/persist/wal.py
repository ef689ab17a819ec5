"""The append-only mutation write-ahead log.

Every corpus mutation (register / bulk-register / unregister) becomes one
framed record carrying the epoch the corpus reached *after* the mutation::

    record length (u32 LE) | crc32 of payload (u32 LE) | payload

where the payload is ``pickle((epoch, op, payload_obj))`` — ``op`` is
``"add"`` (a ``DatasetRegistration``), ``"add_many"`` (a tuple of them) or
``"remove"`` (a dataset name), exactly the journal feed
:meth:`repro.core.catalog.Corpus.subscribe` delivers.  Epochs increase by
one per record, which makes replay deterministic and idempotent: applying
records with ``epoch > corpus.epoch`` on top of a restored snapshot
reproduces the live corpus state, however the snapshot and the log tail
happen to overlap.

Crash tolerance: a torn tail (the process died mid-append) is detected by
the length/CRC framing.  :meth:`MutationWAL.replay` returns every record
of the valid prefix and stops at the tear; opening a WAL for appending
truncates the file back to that valid prefix first, so new records are
never written after garbage.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import PersistError
from repro.faults.injector import fault_bytes
from repro.obs import span

WAL_MAGIC = b"MILWAL\x00\n"
_FRAME = struct.Struct("<II")


class WalRecord(NamedTuple):
    """One journaled corpus mutation (epoch reached, operation, payload)."""

    epoch: int
    op: str
    payload: object


class MutationWAL:
    """An append-only, checksummed log of corpus mutations.

    ``fsync=False`` (the default) flushes every append to the OS but
    leaves disk syncing to the kernel — mutations survive a process
    crash, not a power cut.  Pass ``fsync=True`` for full durability at
    the cost of one sync per mutation.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.torn_bytes = 0
        self._last_epoch: int | None = None
        self._record_count = 0
        valid_length = self._scan()
        if self.path.exists() and valid_length < self.path.stat().st_size:
            # Drop a torn tail before appending: records written after
            # garbage would be unreachable to every future replay.
            self.torn_bytes = self.path.stat().st_size - valid_length
            with open(self.path, "rb+") as handle:
                handle.truncate(valid_length)
        self._handle = open(self.path, "ab")
        if valid_length == 0 and self._handle.tell() == 0:
            self._handle.write(WAL_MAGIC)
            self._handle.flush()

    def _scan(self) -> int:
        """Validate the existing file; returns the length of the valid prefix."""
        if not self.path.exists():
            return 0
        raw = self.path.read_bytes()
        if not raw:
            return 0
        if not raw.startswith(WAL_MAGIC):
            if len(raw) < len(WAL_MAGIC) and WAL_MAGIC.startswith(raw):
                return 0  # torn mid-magic: rewrite it
            raise PersistError(f"{self.path} is not a Mileena WAL (bad magic)")
        offset = len(WAL_MAGIC)
        while offset < len(raw):
            record, next_offset = self._decode(raw, offset)
            if record is None:
                break
            self._record_count += 1
            self._last_epoch = record.epoch
            offset = next_offset
        return offset

    @staticmethod
    def _decode(raw: bytes, offset: int) -> tuple[WalRecord | None, int]:
        """Decode one record at ``offset``; ``(None, offset)`` on a torn tail."""
        if offset + _FRAME.size > len(raw):
            return None, offset
        length, checksum = _FRAME.unpack_from(raw, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(raw):
            return None, offset
        payload = raw[start:end]
        if zlib.crc32(payload) != checksum:
            return None, offset
        epoch, op, payload_obj = pickle.loads(payload)
        return WalRecord(epoch, op, payload_obj), end

    # -- writing -----------------------------------------------------------------
    def append(self, epoch: int, op: str, payload: object) -> None:
        """Frame and append one mutation record."""
        with span("persist.wal_append", epoch=epoch, op=op):
            encoded = pickle.dumps((epoch, op, payload), protocol=pickle.HIGHEST_PROTOCOL)
            frame = _FRAME.pack(len(encoded), zlib.crc32(encoded))
            try:
                # Chaos-suite site: an armed corrupt plan flips bytes in
                # the framed record so replay sees exactly what a bad
                # sector would produce (CRC mismatch, valid prefix kept).
                self._handle.write(fault_bytes("wal.append", frame + encoded))
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except OSError as error:
                raise PersistError(
                    f"could not append to WAL {self.path}: {error}"
                ) from error
            self._record_count += 1
            self._last_epoch = epoch

    def truncate(self) -> None:
        """Atomically reset the log to empty (after a snapshot superseded it)."""
        tmp_path = self.path.with_name(f".{self.path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(WAL_MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp_path, self.path)
        except OSError as error:
            tmp_path.unlink(missing_ok=True)
            raise PersistError(f"could not truncate WAL {self.path}: {error}") from error
        self._handle = open(self.path, "ab")
        self._record_count = 0
        self._last_epoch = None

    def rotate(self, to_path: str | Path) -> bool:
        """Move the current log aside as a sealed segment; start a fresh one.

        Used by the snapshot chain: when a new snapshot supersedes the
        live WAL, the records are not discarded (as :meth:`truncate`
        does) but sealed under ``to_path`` so a fallback to the *previous*
        snapshot version can still replay them.  Returns False (and does
        nothing) when the log holds no records.
        """
        if self._record_count == 0:
            return False
        to_path = Path(to_path)
        self._handle.close()
        try:
            os.replace(self.path, to_path)
        except OSError as error:
            self._handle = open(self.path, "ab")
            raise PersistError(
                f"could not rotate WAL {self.path} to {to_path}: {error}"
            ) from error
        self._handle = open(self.path, "ab")
        self._handle.write(WAL_MAGIC)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._record_count = 0
        self._last_epoch = None
        return True

    def close(self) -> None:
        self._handle.close()

    # -- reading -----------------------------------------------------------------
    def replay(self) -> list[WalRecord]:
        """Every record of the valid prefix, in append order.

        Reads from a fresh view of the file (not the append handle), so a
        live WAL can be replayed concurrently with appends; a torn tail is
        skipped silently — it is the expected shape of a crash.
        """
        raw = self.path.read_bytes()
        if not raw.startswith(WAL_MAGIC):
            raise PersistError(f"{self.path} is not a Mileena WAL (bad magic)")
        records: list[WalRecord] = []
        offset = len(WAL_MAGIC)
        while offset < len(raw):
            record, offset = self._decode(raw, offset)
            if record is None:
                break
            records.append(record)
        return records

    @property
    def record_count(self) -> int:
        """Records in the valid prefix (maintained incrementally)."""
        return self._record_count

    @property
    def last_epoch(self) -> int | None:
        """Epoch of the newest record, or ``None`` when the log is empty."""
        return self._last_epoch


def read_wal_records(path: str | Path) -> list[WalRecord]:
    """Every valid-prefix record of the WAL (or sealed segment) at ``path``.

    Purely read-only — unlike constructing a :class:`MutationWAL`, this
    never truncates a torn tail or opens the file for appending, so it is
    safe on sealed chain segments.  A missing file is an empty log.
    """
    path = Path(path)
    if not path.exists():
        return []
    raw = path.read_bytes()
    if not raw:
        return []
    if not raw.startswith(WAL_MAGIC):
        if len(raw) < len(WAL_MAGIC) and WAL_MAGIC.startswith(raw):
            return []  # torn mid-magic
        raise PersistError(f"{path} is not a Mileena WAL (bad magic)")
    records: list[WalRecord] = []
    offset = len(WAL_MAGIC)
    while offset < len(raw):
        record, offset = MutationWAL._decode(raw, offset)
        if record is None:
            break
        records.append(record)
    return records


def apply_records(corpus, records) -> int:
    """Replay WAL records newer than ``corpus.epoch``; returns how many applied.

    Each applied record must advance the epoch to exactly its stamp —
    anything else means the log does not continue the snapshot it is being
    replayed onto (a gap from a mis-paired snapshot/WAL directory), and
    replay refuses rather than build a silently divergent corpus.
    """
    with span("persist.wal_replay") as replay:
        applied = 0
        for record in records:
            if record.epoch <= corpus.epoch:
                continue
            if record.epoch != corpus.epoch + 1:
                raise PersistError(
                    f"WAL gap: record epoch {record.epoch} does not continue "
                    f"corpus epoch {corpus.epoch}"
                )
            if record.op == "add":
                corpus.add(record.payload)
            elif record.op == "add_many":
                corpus.add_many(list(record.payload))
            elif record.op == "remove":
                corpus.remove(record.payload)
            else:
                raise PersistError(f"unknown WAL operation {record.op!r}")
            if corpus.epoch != record.epoch:
                raise PersistError(
                    f"WAL replay desynchronised: corpus reached epoch "
                    f"{corpus.epoch}, record expected {record.epoch}"
                )
            applied += 1
        replay.annotate(applied=applied)
    return applied
