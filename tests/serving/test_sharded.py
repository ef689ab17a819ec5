"""Equivalence tests: sharded store/index must match the flat variants exactly."""

import pytest

from repro.core import Corpus, Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.discovery import DiscoveryIndex, DiscoveryIndexLike, MinHasher
from repro.exceptions import DiscoveryError, SketchError
from repro.serving import ResultCache, ShardedDiscoveryIndex, ShardedSketchStore
from repro.sketches import SketchBuilder, SketchStore, SketchStoreLike


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(num_datasets=16, requester_rows=250, seed=3))


@pytest.fixture(scope="module")
def sketches(corpus):
    builder = SketchBuilder()
    return [builder.build(relation) for relation in corpus.providers]


def test_sharded_store_satisfies_protocol():
    assert isinstance(ShardedSketchStore(num_shards=2), SketchStoreLike)
    assert isinstance(SketchStore(), SketchStoreLike)


def test_sharded_index_satisfies_protocol():
    assert isinstance(ShardedDiscoveryIndex(num_shards=2), DiscoveryIndexLike)
    assert isinstance(DiscoveryIndex(), DiscoveryIndexLike)


def test_invalid_shard_counts_rejected():
    with pytest.raises(SketchError):
        ShardedSketchStore(num_shards=0)
    with pytest.raises(DiscoveryError):
        ShardedDiscoveryIndex(num_shards=0)


@pytest.mark.parametrize("num_shards", [1, 3, 8])
def test_sharded_store_matches_flat(sketches, num_shards):
    flat = SketchStore()
    sharded = ShardedSketchStore(num_shards=num_shards)
    for sketch in sketches:
        flat.add(sketch)
        sharded.add(sketch)

    assert len(sharded) == len(flat)
    assert sharded.datasets() == flat.datasets()
    for sketch in sketches:
        assert sketch.dataset in sharded
        assert sharded.get(sketch.dataset) is flat.get(sketch.dataset)
    join_keys = {key for sketch in sketches for key in sketch.keyed}
    for key in sorted(join_keys) + ["missing_key"]:
        assert sharded.with_join_key(key) == flat.with_join_key(key)
    feature_sets = {sketch.features for sketch in sketches}
    for features in sorted(feature_sets):
        assert sharded.unionable_with(features) == flat.unionable_with(features)

    removed = sketches[0].dataset
    flat.remove(removed)
    sharded.remove(removed)
    assert removed not in sharded
    assert sharded.datasets() == flat.datasets()
    for key in sorted(join_keys):
        assert sharded.with_join_key(key) == flat.with_join_key(key)


def test_sharded_store_duplicate_add_and_replace(sketches):
    sharded = ShardedSketchStore(num_shards=4)
    sharded.add(sketches[0])
    with pytest.raises(SketchError):
        sharded.add(sketches[0])
    sharded.add(sketches[0], replace=True)
    assert len(sharded) == 1
    with pytest.raises(SketchError):
        sharded.get("never_registered")
    assert 42 not in sharded  # non-string membership probe


@pytest.mark.parametrize("num_shards", [1, 3, 8])
def test_sharded_index_matches_flat(corpus, num_shards):
    flat = DiscoveryIndex(minhasher=MinHasher())
    sharded = ShardedDiscoveryIndex(num_shards=num_shards, minhasher=MinHasher())
    for relation in corpus.providers:
        flat.register(relation)
        sharded.register(relation)

    assert len(sharded) == len(flat)
    for relation in corpus.providers:
        assert relation.name in sharded

    for top_k in (None, 5, 1, 0):
        assert sharded.join_candidates(corpus.train, top_k) == flat.join_candidates(
            corpus.train, top_k
        )
        assert sharded.union_candidates(corpus.train, top_k) == flat.union_candidates(
            corpus.train, top_k
        )

    # Unregistering keeps the shared IDF model aligned with the flat index.
    victim = corpus.providers[2].name
    flat.unregister(victim)
    sharded.unregister(victim)
    assert victim not in sharded
    assert sharded.idf_model.document_count == flat.idf_model.document_count
    assert sharded.union_candidates(corpus.train) == flat.union_candidates(corpus.train)
    assert sharded.join_candidates(corpus.train) == flat.join_candidates(corpus.train)


def test_sharded_index_discover_dispatch(corpus):
    sharded = ShardedDiscoveryIndex(num_shards=2)
    for relation in corpus.providers[:4]:
        sharded.register(relation)
    joins = sharded.discover(corpus.train, "join", top_k=2)
    unions = sharded.discover(corpus.train, "union", top_k=2)
    assert len(joins) <= 2
    assert len(unions) <= 2
    with pytest.raises(DiscoveryError):
        sharded.discover(corpus.train, "cross")


def test_sharded_platform_matches_flat_platform(corpus):
    flat = Mileena()
    sharded = Mileena.sharded(num_shards=4)
    for relation in corpus.providers:
        flat.register_dataset(relation)
        sharded.register_dataset(relation)

    def request():
        return SearchRequest(
            train=corpus.train,
            test=corpus.test,
            target=corpus.target,
            max_augmentations=3,
        )

    flat_result = flat.search(request())
    sharded_result = sharded.search(request())
    assert [c.dataset for c in flat_result.plan.candidates] == [
        c.dataset for c in sharded_result.plan.candidates
    ]
    assert flat_result.proxy_test_r2 == sharded_result.proxy_test_r2
    assert flat_result.final_test_r2 == sharded_result.final_test_r2
    assert flat_result.candidates_considered == sharded_result.candidates_considered


def test_shard_assignment_is_stable_and_spread(sketches):
    first = ShardedSketchStore(num_shards=4)
    second = ShardedSketchStore(num_shards=4)
    for sketch in sketches:
        first.add(sketch)
        second.add(sketch)
    first_sizes = [len(shard) for shard in first.shards]
    assert first_sizes == [len(shard) for shard in second.shards]
    # With 16 datasets over 4 shards the hash should not collapse onto one.
    assert sum(1 for size in first_sizes if size > 0) >= 2


def test_sharded_index_scalar_shards_match_vectorized(corpus):
    """The shards' vectorized engine is result-identical to scalar shards."""
    scalar = ShardedDiscoveryIndex(num_shards=3, vectorized=False)
    vectorized = ShardedDiscoveryIndex(num_shards=3, vectorized=True)
    for relation in corpus.providers:
        scalar.register(relation)
        vectorized.register(relation)
    assert vectorized.join_candidates(corpus.train) == scalar.join_candidates(corpus.train)
    assert vectorized.union_candidates(corpus.train) == scalar.union_candidates(corpus.train)


def test_sharded_platform_with_cache_serves_requests(corpus):
    # The discovery memo lives on the platform, not on the index.
    platform = Mileena(
        corpus=Corpus(
            discovery=ShardedDiscoveryIndex(num_shards=2),
            sketches=ShardedSketchStore(num_shards=2),
        ),
        cache=ResultCache(capacity=8),
    )
    for relation in corpus.providers[:6]:
        platform.register_dataset(relation)
    request = SearchRequest(
        train=corpus.train, test=corpus.test, target=corpus.target, max_augmentations=2
    )
    result = platform.search(request)
    assert result is not None
    assert platform.cache.stats.misses == 1
