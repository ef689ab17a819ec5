"""Snapshot round-trips: a loaded platform is bit-identical to the saved one.

The contract the persistence layer must honour is the same one the
process backend's replicas live by: DP-randomised sketches are serialised
verbatim (never rebuilt), discovery profiles replay in registration order
into identical packed structures, and join/union/search results — down to
the final model's coefficient bytes — match the never-persisted original.
"""

import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro.core import Corpus, Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.exceptions import PersistError
from repro.persist import read_snapshot, snapshot_platform, write_snapshot
from repro.serving import ShardedDiscoveryIndex, ShardedSketchStore

_SPEC = CorpusSpec(num_datasets=12, requester_rows=120, provider_rows=120, seed=3)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(_SPEC)


@pytest.fixture(scope="module")
def request_for(corpus):
    return SearchRequest(
        train=corpus.train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=3,
    )


def populate(platform, corpus, with_churn=True):
    """Registrations incl. DP-privatised sketches and (optionally) churn."""
    for index, relation in enumerate(corpus.providers):
        epsilon = 2.0 if index % 3 == 0 else None
        platform.register_dataset(relation, epsilon=epsilon)
    if with_churn:
        # Unregister + re-register: exercises free-list row recycling in
        # the engine and re-registration order in the snapshot.
        recycled = corpus.providers[1]
        platform.corpus.remove(recycled.name)
        platform.register_dataset(recycled)
    return platform


def result_identity(result):
    report = result.final_report
    return (
        tuple(
            (c.kind, c.dataset, c.join_key, c.column_mapping)
            for c in result.plan.candidates
        ),
        result.proxy_test_r2,
        result.candidates_considered,
        report.train_r2,
        report.test_r2,
        tuple(report.feature_names),
        report.model.model_.intercept,
        report.model.model_.coefficients.tobytes(),
    )


def assert_platforms_identical(live, loaded, corpus, request_for):
    assert loaded.corpus.epoch == live.corpus.epoch
    assert loaded.corpus.names() == live.corpus.names()
    # DP sketches must ride through the snapshot byte for byte: rebuilding
    # one would re-randomise it.
    for name in live.corpus.names():
        original = live.corpus.sketches.get(name)
        restored = loaded.corpus.sketches.get(name)
        assert restored.total.sums.tobytes() == original.total.sums.tobytes()
        assert restored.total.products.tobytes() == original.total.products.tobytes()
        assert restored.total.count == original.total.count
        assert restored.epsilon == original.epsilon
        assert restored.private == original.private
    assert (
        loaded.corpus.discovery.join_candidates(corpus.train)
        == live.corpus.discovery.join_candidates(corpus.train)
    )
    assert (
        loaded.corpus.discovery.union_candidates(corpus.train)
        == live.corpus.discovery.union_candidates(corpus.train)
    )
    assert result_identity(loaded.search(request_for)) == result_identity(
        live.search(request_for)
    )


def test_flat_roundtrip_bit_identity(tmp_path, corpus, request_for):
    live = populate(Mileena(), corpus)
    path = live.save(tmp_path / "snapshot.bin")
    loaded = Mileena.load(path)
    assert type(loaded.corpus.discovery).__name__ == "DiscoveryIndex"
    assert_platforms_identical(live, loaded, corpus, request_for)


def sharded_platform():
    """A sharded platform whose thresholds differ from the defaults."""
    return Mileena(
        corpus=Corpus(
            discovery=ShardedDiscoveryIndex(
                num_shards=3, join_threshold=0.25, union_threshold=0.5
            ),
            sketches=ShardedSketchStore(num_shards=3),
        )
    )


def test_sharded_roundtrip_bit_identity(tmp_path, corpus, request_for):
    live = populate(sharded_platform(), corpus)
    path = live.save(tmp_path / "snapshot.bin")
    loaded = Mileena.load(path)
    discovery = loaded.corpus.discovery
    assert type(discovery).__name__ == "ShardedDiscoveryIndex"
    assert discovery.num_shards == 3
    assert (discovery.join_threshold, discovery.union_threshold) == (0.25, 0.5)
    assert all(
        (shard.join_threshold, shard.union_threshold) == (0.25, 0.5)
        for shard in discovery.shards
    )
    assert_platforms_identical(live, loaded, corpus, request_for)


def test_snapshot_with_retired_keys_still_loads(tmp_path, corpus, request_for):
    """Files written before the platform backend hint, the index-level
    discovery cache and LSH discovery were removed carry their keys; the
    reader ignores them, so an LSH-enabled file restores an exact index."""
    live = populate(sharded_platform(), corpus)
    with live.corpus.frozen():
        sections = snapshot_platform(live)
    sections["platform"] = {
        "discovery_top_k": live.discovery_top_k,
        "serving_backend": "process",
    }
    sections["index"] = {
        **sections["index"],
        "cache_capacity": 8,
        "use_lsh": True,
        "lsh_bands": 16,
        "target_recall": 0.9,
        "multi_probe": True,
    }
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, sections)
    loaded = Mileena.load(path)
    assert read_snapshot(path)["index"]["cache_capacity"] == 8
    assert read_snapshot(path)["index"]["use_lsh"] is True
    assert loaded.corpus.discovery.num_shards == 3
    assert not hasattr(loaded.corpus.discovery, "use_lsh")
    assert_platforms_identical(live, loaded, corpus, request_for)


def test_save_accepts_directory(tmp_path, corpus):
    live = populate(Mileena(), corpus, with_churn=False)
    path = live.save(tmp_path)
    assert path == tmp_path / "snapshot.bin"
    assert Mileena.load(path).corpus.epoch == live.corpus.epoch


def test_save_leaves_no_temp_files(tmp_path, corpus):
    live = populate(Mileena(), corpus, with_churn=False)
    live.save(tmp_path / "snapshot.bin")
    live.save(tmp_path / "snapshot.bin")  # overwrite goes through rename too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot.bin"]


def test_streamed_write_is_the_framed_pickle(tmp_path, corpus):
    live = populate(Mileena(), corpus, with_churn=False)
    # A 160 KB array goes past the pickler's frame buffer straight to the
    # file object, the path a plain in-memory ``pickle.dumps`` never takes.
    sections = {**snapshot_platform(live), "large": np.arange(20_000.0)}
    path = tmp_path / "snapshot.bin"
    written = write_snapshot(path, sections)
    payload = pickle.dumps(sections, protocol=pickle.HIGHEST_PROTOCOL)
    header = struct.pack(
        "<8sIQ32s", b"MILSNAP\x00", 1, len(payload), hashlib.sha256(payload).digest()
    )
    assert path.read_bytes() == header + payload
    assert written == len(header) + len(payload)


def test_checksum_mismatch_refused(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, {"epoch": 1})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(PersistError, match="checksum"):
        read_snapshot(path)


def test_bad_magic_refused(tmp_path):
    path = tmp_path / "snapshot.bin"
    path.write_bytes(b"not a snapshot at all, definitely long enough header")
    with pytest.raises(PersistError, match="magic"):
        read_snapshot(path)


def test_truncated_payload_refused(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, {"epoch": 1})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 4])
    with pytest.raises(PersistError, match="truncated"):
        read_snapshot(path)


def test_unknown_format_version_refused(tmp_path):
    path = tmp_path / "snapshot.bin"
    write_snapshot(path, {"epoch": 1})
    raw = bytearray(path.read_bytes())
    raw[8] = 0xFE  # format version field (little-endian u32 after the magic)
    path.write_bytes(bytes(raw))
    with pytest.raises(PersistError, match="version"):
        read_snapshot(path)
