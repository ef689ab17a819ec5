"""Chaos scenarios against the durable-state layer.

A corrupt or truncated newest snapshot must never brick a restart: the
loader quarantines it (``snapshot.bin.corrupt``) and falls back along the
retained version chain, replaying the sealed WAL segments to reach the
exact pre-crash state.  A corrupt WAL frame bounds recovery to the valid
prefix — never garbage, never a crash.
"""

import pytest

from chaos_helpers import result_identity

from repro.core import Mileena
from repro.datasets import CorpusSpec, generate_corpus
from repro.exceptions import SnapshotCorrupt
from repro.faults import FaultPlan, armed

_SPEC = CorpusSpec(num_datasets=12, requester_rows=100, provider_rows=100, seed=9)


@pytest.fixture(scope="module")
def persist_corpus():
    return generate_corpus(_SPEC)


@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
def test_truncated_newest_snapshot_falls_back_to_chain(
    tmp_path, persist_corpus, chaos_seed, fraction
):
    """Tear the newest snapshot at a quarter boundary: load quarantines it
    and recovers bit-identically from the previous version + sealed WAL."""
    platform = Mileena.sharded(num_shards=2)
    platform.attach_snapshots(tmp_path, every_mutations=3)
    for relation in persist_corpus.providers[:8]:
        platform.register_dataset(relation)
    # Cadence snapshots landed at epochs 3 and 6; epochs 7-8 sit in the
    # live WAL.  Now force one more snapshot whose bytes get truncated.
    plan = FaultPlan(seed=chaos_seed).truncate(
        "snapshot.write", fraction, on_hit=1
    )
    with armed(plan) as injector:
        platform.snapshots.snapshot()
    assert injector.fired == [("snapshot.write", 1, "truncate")]

    restored = Mileena.load(tmp_path)
    assert (tmp_path / "snapshot.bin.corrupt").exists()
    assert not (tmp_path / "snapshot.bin").exists()
    assert restored.corpus.epoch == platform.corpus.epoch
    assert restored.corpus.names() == platform.corpus.names()

    request = _request(persist_corpus)
    assert result_identity(restored.search(request)) == result_identity(
        platform.search(request)
    )


def test_corrupt_wal_frame_recovers_valid_prefix(
    tmp_path, persist_corpus, chaos_seed
):
    """Flip bytes in one WAL frame: recovery applies every record before
    it and none after — the loaded state equals a reference platform that
    saw exactly the surviving mutations."""
    providers = persist_corpus.providers
    platform = Mileena()
    platform.attach_snapshots(tmp_path, every_mutations=100)
    for relation in providers[:3]:
        platform.register_dataset(relation)
    platform.snapshots.snapshot()  # baseline at epoch 3, WAL reset
    plan = FaultPlan(seed=chaos_seed).corrupt("wal.append", on_hit=3)
    with armed(plan) as injector:
        for relation in providers[3:8]:
            platform.register_dataset(relation)
    assert injector.fired == [("wal.append", 3, "corrupt")]

    restored = Mileena.load(tmp_path)
    # Hits 1-2 (epochs 4-5) survive; the corrupt frame at epoch 6 stops
    # replay, so epochs 6-8 are lost — the price of a torn log, bounded.
    assert restored.corpus.epoch == 5
    assert set(restored.corpus.names()) == {r.name for r in providers[:5]}


def test_every_snapshot_corrupt_raises_typed_error(tmp_path, persist_corpus, chaos_seed):
    """With the chain disabled and the only snapshot corrupt there is
    nothing to fall back to: the loader quarantines it and raises
    :class:`SnapshotCorrupt`."""
    platform = Mileena()
    platform.attach_snapshots(tmp_path, every_mutations=100, keep_snapshots=0)
    for relation in persist_corpus.providers[:2]:
        platform.register_dataset(relation)
    plan = FaultPlan(seed=chaos_seed).truncate("snapshot.write", 0.5, on_hit=None)
    with armed(plan):
        platform.snapshots.snapshot()
    with pytest.raises(SnapshotCorrupt):
        Mileena.load(tmp_path)
    assert (tmp_path / "snapshot.bin.corrupt").exists()


def _request(corpus):
    from repro.core import SearchRequest

    return SearchRequest(
        train=corpus.train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=2,
    )
