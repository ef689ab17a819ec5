"""Parity tests: the vectorized discovery engine must match the scalar oracle.

The vectorized exact path is required to be *result identical* to the
scalar reference — same candidates, same ordering, similarities equal to
within 1e-12 (in practice bit-equal, which is what we assert).
"""

import random

import numpy as np
import pytest

from repro.discovery import (
    DiscoveryIndex,
    PackedSignatureMatrix,
    VersionedCache,
    profile_relation,
)
from repro.exceptions import DiscoveryError
from repro.relational import CATEGORICAL, KEY, NUMERIC, Relation, Schema

SPEC = {"key": KEY, "tag": CATEGORICAL, "metric": NUMERIC}


def make_relation(name, rng, domain, num_rows=40, key_span=50):
    """A relation whose key/tag columns live in ``domain``'s vocabulary."""
    columns = {
        "key": [f"{domain}_{rng.randint(0, key_span)}" for _ in range(num_rows)],
        "tag": [f"{domain}tag{rng.randint(0, 8)}" for _ in range(num_rows)],
        "metric": [float(i) for i in range(num_rows)],
    }
    return Relation(name, columns, Schema.from_spec(SPEC))


def make_corpus(rng, num_datasets, num_domains=7):
    domains = [f"dom{i}" for i in range(num_domains)]
    return [
        make_relation(f"ds{i}", rng, rng.choice(domains)) for i in range(num_datasets)
    ]


def build_indexes(relations, **kwargs):
    """The same corpus registered into scalar and vectorized indexes."""
    scalar = DiscoveryIndex(vectorized=False, **kwargs)
    vectorized = DiscoveryIndex(vectorized=True, **kwargs)
    for relation in relations:
        scalar.register(relation)
        vectorized.register(relation)
    return scalar, vectorized


def assert_join_parity(reference, candidate_index, query, top_k=None):
    expected = reference.join_candidates_scalar(query, top_k)
    actual = candidate_index.join_candidates(query, top_k)
    assert [
        (c.dataset, c.query_column, c.candidate_column) for c in actual
    ] == [(c.dataset, c.query_column, c.candidate_column) for c in expected]
    for got, want in zip(actual, expected):
        assert got.similarity == pytest.approx(want.similarity, abs=1e-12)
    assert actual == expected  # bit-equal similarities, same ordering


def assert_union_parity(reference, candidate_index, query, top_k=None):
    expected = reference.union_candidates_scalar(query, top_k)
    actual = candidate_index.union_candidates(query, top_k)
    assert [(c.dataset, c.column_mapping) for c in actual] == [
        (c.dataset, c.column_mapping) for c in expected
    ]
    for got, want in zip(actual, expected):
        assert got.similarity == pytest.approx(want.similarity, abs=1e-12)
    assert actual == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_join_and_union_parity(seed):
    rng = random.Random(seed)
    relations = make_corpus(rng, num_datasets=50)
    scalar, vectorized = build_indexes(
        relations, join_threshold=0.1, union_threshold=0.2
    )
    for _ in range(4):
        query = make_relation("query", rng, f"dom{rng.randint(0, 6)}")
        assert_join_parity(scalar, vectorized, query)
        assert_union_parity(scalar, vectorized, query)


@pytest.mark.parametrize("seed", [3, 4])
def test_parity_survives_register_unregister_churn(seed):
    rng = random.Random(seed)
    relations = make_corpus(rng, num_datasets=40)
    scalar, vectorized = build_indexes(
        relations, join_threshold=0.1, union_threshold=0.2
    )
    indexes = (scalar, vectorized)
    for round_number in range(3):
        victims = rng.sample([r.name for r in relations], k=8)
        for name in victims:
            for index in indexes:
                index.unregister(name)
        # Re-register a shuffled subset so registration order diverges from
        # the original insertion order in all indexes identically.
        revived = rng.sample(victims, k=4)
        for name in revived:
            relation = next(r for r in relations if r.name == name)
            for index in indexes:
                index.register(relation)
        query = make_relation("query", rng, f"dom{rng.randint(0, 6)}")
        assert_join_parity(scalar, vectorized, query)
        assert_union_parity(scalar, vectorized, query)
        assert len(vectorized) == len(scalar)


def test_reregistration_replaces_packed_rows():
    rng = random.Random(9)
    relations = make_corpus(rng, num_datasets=12)
    scalar, vectorized = build_indexes(relations, join_threshold=0.1)
    replacement = make_relation(relations[3].name, rng, "dom0")
    scalar.register(replacement)
    vectorized.register(replacement)
    query = make_relation("query", rng, "dom0")
    assert_join_parity(scalar, vectorized, query)
    assert_union_parity(scalar, vectorized, query)


def test_top_k_and_self_exclusion_parity():
    rng = random.Random(5)
    relations = make_corpus(rng, num_datasets=25)
    scalar, vectorized = build_indexes(
        relations, join_threshold=0.1, union_threshold=0.2
    )
    query = make_relation("query", rng, "dom1")
    for index in (scalar, vectorized):
        index.register(query)
    for top_k in (0, 1, 5, None):
        assert_join_parity(scalar, vectorized, query, top_k)
        assert_union_parity(scalar, vectorized, query, top_k)
    assert all(c.dataset != "query" for c in vectorized.join_candidates(query))


def test_empty_index_and_empty_query():
    vectorized = DiscoveryIndex()
    query = make_relation("query", random.Random(0), "dom0")
    assert vectorized.join_candidates(query) == []
    assert vectorized.union_candidates(query) == []
    # Query with no joinable columns against a populated index.
    numeric_only = Relation(
        "numbers",
        {"metric": [float(i) for i in range(10)]},
        Schema.from_spec({"metric": NUMERIC}),
    )
    rng = random.Random(1)
    scalar, vec = build_indexes(make_corpus(rng, 10), join_threshold=0.1)
    assert_join_parity(scalar, vec, numeric_only)
    assert vec.join_candidates(numeric_only) == []


def test_profiles_are_not_a_constructor_argument():
    # Profiles enter only through register/register_profile, which also
    # feed the IDF model; a constructor seed would skip it and score
    # unions against an empty IDF.
    with pytest.raises(TypeError, match="profiles"):
        DiscoveryIndex(profiles={})


def test_foreign_width_profile_falls_back_to_scalar():
    from repro.discovery import MinHasher

    rng = random.Random(6)
    index = DiscoveryIndex(join_threshold=0.1)
    for relation in make_corpus(rng, 8):
        index.register(relation)
    foreign = profile_relation(make_relation("foreign", rng, "dom0"), MinHasher(num_hashes=32))
    index.register_profile(foreign)
    # The packed matrix cannot hold 32-wide rows next to 64-wide ones, so
    # joins take the scalar path — which raises on the mismatched pair,
    # exactly as the historical flat index did.
    query = make_relation("query", rng, "dom0")
    with pytest.raises(DiscoveryError):
        index.join_candidates(query)


# -- engine unit tests ---------------------------------------------------------


def test_packed_matrix_add_remove_recycles_rows():
    matrix = PackedSignatureMatrix(num_hashes=8)
    signature = np.arange(8, dtype=np.int64)
    matrix.add("a", "x", signature, 3)
    matrix.add("a", "y", signature + 1, 3)
    matrix.add("b", "x", signature + 2, 3)
    assert len(matrix) == 3
    assert "a" in matrix and "b" in matrix
    matrix.remove_dataset("a")
    assert len(matrix) == 1
    assert "a" not in matrix
    matrix.add("c", "z", signature + 3, 3)
    matrix.add("c", "w", signature + 4, 3)
    assert len(matrix) == 3  # freed rows were reused
    row_ids, starts, segments, selected, empty = matrix.layout()
    assert [dataset for dataset, _, _ in segments] == ["b", "c"]
    assert row_ids.size == 3
    assert segments[1][2] == ["z", "w"]
    assert selected.shape == (3, 8)
    assert not empty.any()


def test_packed_matrix_rejects_bad_widths():
    matrix = PackedSignatureMatrix(num_hashes=8)
    with pytest.raises(DiscoveryError):
        matrix.add("a", "x", np.arange(4, dtype=np.int64), 1)


def test_versioned_cache_invalidates_on_version_change():
    version = {"value": 0}
    cache = VersionedCache(lambda: version["value"])
    calls = []

    def compute():
        calls.append(1)
        return len(calls)

    assert cache.get_or_compute("k", compute) == 1
    assert cache.get_or_compute("k", compute) == 1
    version["value"] += 1
    assert cache.get_or_compute("k", compute) == 2
    assert cache.get_or_compute("k", compute) == 2


def test_unregistering_foreign_width_profile_restores_fast_path():
    from repro.discovery import MinHasher

    rng = random.Random(8)
    relations = make_corpus(rng, 10)
    scalar, vectorized = build_indexes(relations, join_threshold=0.1)
    foreign = profile_relation(
        make_relation("foreign", rng, "dom0"), MinHasher(num_hashes=16)
    )
    vectorized.register_profile(foreign)
    query = make_relation("query", rng, "dom0")
    with pytest.raises(DiscoveryError):
        vectorized.join_candidates(query)
    vectorized.unregister("foreign")
    # The offender is gone: the vectorized path serves again, at parity.
    assert_join_parity(scalar, vectorized, query)
