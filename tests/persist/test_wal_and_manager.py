"""Mutation WAL framing/recovery and the SnapshotManager cadence policy.

Covers the crash shapes the durable-state layer promises to survive: a
torn WAL tail (process died mid-append), a crash between cadence
snapshots (tail replay), a crash between the snapshot write and the WAL
truncation (epoch guard skips the overlap), and saving while another
thread churns the corpus.
"""

import threading

import pytest

from repro.core import Mileena, SimulatedClock
from repro.datasets import CorpusSpec, generate_corpus
from repro.exceptions import PersistError
from repro.persist import MutationWAL, apply_records, read_wal_records

_SPEC = CorpusSpec(num_datasets=14, requester_rows=100, provider_rows=100, seed=5)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(_SPEC)


# -- WAL framing ----------------------------------------------------------------
def test_wal_append_and_replay(tmp_path):
    wal = MutationWAL(tmp_path / "wal.bin")
    wal.append(1, "add", {"name": "a"})
    wal.append(2, "remove", "a")
    wal.close()
    records = MutationWAL(tmp_path / "wal.bin").replay()
    assert [(r.epoch, r.op) for r in records] == [(1, "add"), (2, "remove")]
    assert records[0].payload == {"name": "a"}


def test_wal_torn_tail_is_dropped_and_appendable(tmp_path):
    path = tmp_path / "wal.bin"
    wal = MutationWAL(path)
    for epoch in (1, 2, 3):
        wal.append(epoch, "add", epoch)
    wal.close()
    intact = path.stat().st_size
    path.write_bytes(path.read_bytes()[: intact - 5])  # tear the last record

    reopened = MutationWAL(path)
    assert reopened.torn_bytes > 0
    assert [r.epoch for r in reopened.replay()] == [1, 2]
    # Appending after recovery continues the valid prefix, not the garbage.
    reopened.append(3, "add", "again")
    reopened.close()
    assert [r.epoch for r in MutationWAL(path).replay()] == [1, 2, 3]


def test_wal_corrupt_record_stops_replay(tmp_path):
    path = tmp_path / "wal.bin"
    wal = MutationWAL(path)
    wal.append(1, "add", "x" * 100)
    wal.append(2, "add", "y" * 100)
    wal.close()
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # flip a payload byte of the last record
    path.write_bytes(bytes(raw))
    assert [r.epoch for r in MutationWAL(path).replay()] == [1]


def test_wal_truncate_resets(tmp_path):
    wal = MutationWAL(tmp_path / "wal.bin")
    wal.append(1, "add", "x")
    wal.truncate()
    assert wal.record_count == 0 and wal.last_epoch is None
    wal.append(2, "add", "y")
    wal.close()
    assert [r.epoch for r in MutationWAL(tmp_path / "wal.bin").replay()] == [2]


def test_wal_rotate_seals_records_and_restarts_live_log(tmp_path):
    path = tmp_path / "wal.bin"
    sealed = tmp_path / "wal-000000000000.bin"
    wal = MutationWAL(path)
    empty = path.read_bytes()
    assert wal.rotate(sealed) is False  # nothing to seal: file left alone
    assert not sealed.exists()
    assert path.read_bytes() == empty

    for epoch in (1, 2, 3):
        wal.append(epoch, "add", epoch)
    assert wal.rotate(sealed) is True
    assert [r.epoch for r in read_wal_records(sealed)] == [1, 2, 3]
    assert wal.record_count == 0 and wal.last_epoch is None
    assert read_wal_records(path) == []  # the live log restarted empty
    wal.append(4, "remove", 1)
    wal.close()
    assert [(r.epoch, r.op) for r in MutationWAL(path).replay()] == [(4, "remove")]


def test_wal_refuses_foreign_file(tmp_path):
    path = tmp_path / "wal.bin"
    path.write_bytes(b"some other file format entirely")
    with pytest.raises(PersistError, match="magic"):
        MutationWAL(path)


def test_apply_records_refuses_gaps():
    from repro.persist import WalRecord

    platform = Mileena()
    with pytest.raises(PersistError, match="gap"):
        apply_records(platform.corpus, [WalRecord(5, "add", None)])


# -- cadence policy -------------------------------------------------------------
def test_mutation_cadence_snapshots_and_truncates(tmp_path, corpus):
    platform = Mileena.sharded(num_shards=2)
    manager = platform.attach_snapshots(tmp_path, every_mutations=3)
    for relation in corpus.providers[:8]:
        platform.register_dataset(relation)
    # 8 mutations at cadence 3: snapshots after #3 and #6, WAL holds 2.
    assert manager.snapshot_epoch == 6
    assert manager.wal.record_count == 2
    restored = Mileena.load(tmp_path)
    assert restored.corpus.epoch == platform.corpus.epoch
    assert restored.corpus.names() == platform.corpus.names()


def test_time_cadence_checked_at_mutation(tmp_path, corpus):
    clock = SimulatedClock()
    platform = Mileena(clock=clock)
    platform.attach_snapshots(tmp_path, every_mutations=None, every_seconds=10.0)
    manager = platform.snapshots
    platform.register_dataset(corpus.providers[0])
    assert manager.wal.record_count == 1  # not due yet
    clock.advance(11.0)
    platform.register_dataset(corpus.providers[1])
    assert manager.wal.record_count == 0  # snapshot fired, WAL truncated
    assert manager.snapshot_epoch == 2


def test_add_many_is_one_wal_record(tmp_path, corpus):
    platform = Mileena()
    scratch = Mileena()
    for relation in corpus.providers[:4]:
        scratch.register_dataset(relation)
    registrations = list(scratch.corpus.registrations.values())
    platform.attach_snapshots(tmp_path, every_mutations=100)
    platform.corpus.add_many(registrations)
    manager = platform.snapshots
    assert manager.wal.record_count == 1
    restored = Mileena.load(tmp_path)
    assert restored.corpus.names() == platform.corpus.names()
    assert restored.corpus.epoch == platform.corpus.epoch == 1


def test_crash_between_snapshots_replays_wal_tail(tmp_path, corpus):
    platform = Mileena.sharded(num_shards=2)
    platform.attach_snapshots(tmp_path, every_mutations=100)
    for relation in corpus.providers[:6]:
        platform.register_dataset(relation)
    platform.corpus.remove(corpus.providers[2].name)
    # No cadence snapshot since attach: everything lives in the WAL tail.
    assert platform.snapshots.wal.record_count == 7
    restored = Mileena.load(tmp_path)  # "crash": load whatever is on disk
    assert restored.corpus.epoch == platform.corpus.epoch
    assert restored.corpus.names() == platform.corpus.names()
    assert corpus.providers[2].name not in restored.corpus


def test_crash_with_torn_wal_tail_restores_prefix(tmp_path, corpus):
    platform = Mileena(snapshots=None)
    platform.attach_snapshots(tmp_path, every_mutations=100)
    for relation in corpus.providers[:5]:
        platform.register_dataset(relation)
    platform.snapshots.detach()
    wal_path = tmp_path / "wal.bin"
    wal_path.write_bytes(wal_path.read_bytes()[:-7])  # tear the last record
    restored = Mileena.load(tmp_path)
    assert restored.corpus.epoch == 4
    assert restored.corpus.names() == [r.name for r in corpus.providers[:4]]


def test_resume_attach_does_not_rewrite_matching_state(tmp_path, corpus):
    platform = Mileena()
    platform.attach_snapshots(tmp_path, every_mutations=3)
    for relation in corpus.providers[:4]:
        platform.register_dataset(relation)
    platform.snapshots.detach()

    restored = Mileena.load(tmp_path)
    snapshot_bytes = (tmp_path / "snapshot.bin").read_bytes()
    restored.attach_snapshots(tmp_path, every_mutations=3)
    # State on disk already restores to the current epoch: no rewrite.
    assert (tmp_path / "snapshot.bin").read_bytes() == snapshot_bytes
    restored.register_dataset(corpus.providers[4])
    again = Mileena.load(tmp_path)
    assert again.corpus.epoch == restored.corpus.epoch
    assert again.corpus.names() == restored.corpus.names()


def test_attach_refuses_foreign_durable_state(tmp_path, corpus):
    """Attaching a mismatched platform must never wipe a directory's
    history — the operator meant ``Mileena.load``, not a fresh platform."""
    durable = Mileena()
    durable.attach_snapshots(tmp_path, every_mutations=2)
    for relation in corpus.providers[:4]:
        durable.register_dataset(relation)
    durable.snapshots.detach()
    on_disk = (tmp_path / "snapshot.bin").read_bytes()

    fresh = Mileena()
    with pytest.raises(PersistError, match="already holds durable state"):
        fresh.attach_snapshots(tmp_path)
    assert fresh.snapshots is None
    assert (tmp_path / "snapshot.bin").read_bytes() == on_disk  # untouched


def test_directory_save_supersedes_stale_wal(tmp_path, corpus):
    """`save` into the managed layout truncates a leftover wal.bin, so a
    later directory load cannot replay another history's records."""
    old = Mileena()
    old.attach_snapshots(tmp_path, every_mutations=100)
    for relation in corpus.providers[:5]:
        old.register_dataset(relation)
    old.snapshots.detach()
    assert MutationWAL(tmp_path / "wal.bin").replay()  # records 1..5 on disk

    other = Mileena()
    for relation in corpus.providers[5:8]:
        other.register_dataset(relation)
    other.save(tmp_path)
    restored = Mileena.load(tmp_path)
    assert restored.corpus.names() == other.corpus.names()
    assert restored.corpus.epoch == other.corpus.epoch == 3


def test_save_delegates_to_attached_manager(tmp_path, corpus):
    platform = Mileena()
    platform.attach_snapshots(tmp_path, every_mutations=100)
    for relation in corpus.providers[:3]:
        platform.register_dataset(relation)
    assert platform.snapshots.wal.record_count == 3
    platform.save(tmp_path)
    # Delegated to the manager: snapshot refreshed AND the WAL truncated
    # atomically under the same lock, not just a file overwrite.
    assert platform.snapshots.wal.record_count == 0
    assert platform.snapshots.snapshot_epoch == 3
    restored = Mileena.load(tmp_path)
    assert restored.corpus.epoch == 3


def test_save_under_churn_is_consistent(tmp_path, corpus):
    platform = Mileena()
    for relation in corpus.providers[:6]:
        platform.register_dataset(relation)
    stop = threading.Event()

    def churn():
        index = 0
        while not stop.is_set():
            victim = corpus.providers[index % 6]
            platform.corpus.remove(victim.name)
            platform.register_dataset(victim)
            index += 1

    thread = threading.Thread(target=churn, daemon=True)
    thread.start()
    try:
        for attempt in range(5):
            path = platform.save(tmp_path / f"snapshot_{attempt}.bin")
            loaded = Mileena.load(path)
            # Every save is one frozen corpus state: the three structures
            # agree with each other and with the recorded epoch.
            assert len(loaded.corpus) == len(loaded.corpus.discovery)
            assert len(loaded.corpus) == len(loaded.corpus.sketches)
            # A victim may be mid remove/re-register at capture time, so
            # the set is 5 or 6 names — but never a torn structure.
            names = set(loaded.corpus.names())
            assert names <= {r.name for r in corpus.providers[:6]}
            assert len(names) >= 5
            assert loaded.corpus.discovery.join_candidates(corpus.train) is not None
    finally:
        stop.set()
        thread.join(timeout=10.0)
