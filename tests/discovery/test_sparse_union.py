"""Sparse union scoring contracts.

The sparse term-matrix union path is **bit-identical** to the scalar
oracle (same candidates, same order, equal floats) including under
register/unregister churn that recycles matrix rows.
"""

import random

import pytest

from repro.discovery import (
    DiscoveryIndex,
    SparseTermMatrix,
    TfIdfSketch,
)
from repro.relational import CATEGORICAL, KEY, NUMERIC, Relation, Schema

SPEC = {"key": KEY, "tag": CATEGORICAL, "metric": NUMERIC}


def make_relation(name, rng, domain, num_rows=40, key_span=50):
    columns = {
        "key": [f"{domain}_{rng.randint(0, key_span)}" for _ in range(num_rows)],
        "tag": [f"{domain}tag{rng.randint(0, 8)}" for _ in range(num_rows)],
        "metric": [float(i) for i in range(num_rows)],
    }
    return Relation(name, columns, Schema.from_spec(SPEC))


def make_corpus(rng, num_datasets, num_domains=7, key_span=50):
    domains = [f"dom{i}" for i in range(num_domains)]
    return [
        make_relation(f"ds{i}", rng, rng.choice(domains), key_span=key_span)
        for i in range(num_datasets)
    ]


def assert_union_parity(scalar, vectorized, query, top_k=None):
    expected = scalar.union_candidates_scalar(query, top_k)
    actual = vectorized.union_candidates(query, top_k)
    assert actual == expected  # same datasets, mappings, order, bit-equal floats


# -- sparse union parity -------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_sparse_union_parity_under_churn(seed):
    """CSR-path results stay bit-identical through row-recycling churn."""
    rng = random.Random(seed)
    relations = make_corpus(rng, num_datasets=40)
    scalar = DiscoveryIndex(vectorized=False, union_threshold=0.2)
    vectorized = DiscoveryIndex(union_threshold=0.2)
    for relation in relations:
        scalar.register(relation)
        vectorized.register(relation)
    for round_number in range(4):
        victims = rng.sample([r.name for r in relations], k=10)
        for name in victims:
            scalar.unregister(name)
            vectorized.unregister(name)
        for name in rng.sample(victims, k=5):
            relation = next(r for r in relations if r.name == name)
            scalar.register(relation)
            vectorized.register(relation)
        query = make_relation("query", rng, f"dom{rng.randint(0, 6)}")
        assert_union_parity(scalar, vectorized, query)
        assert_union_parity(scalar, vectorized, query, top_k=3)


def test_sparse_union_parity_across_thresholds():
    rng = random.Random(3)
    relations = make_corpus(rng, num_datasets=30)
    query = make_relation("query", rng, "dom2")
    for threshold in (0.05, 0.3, 0.6, 0.95):
        scalar = DiscoveryIndex(vectorized=False, union_threshold=threshold)
        vectorized = DiscoveryIndex(union_threshold=threshold)
        for relation in relations:
            scalar.register(relation)
            vectorized.register(relation)
        assert_union_parity(scalar, vectorized, query)


def test_sparse_union_handles_numeric_only_and_empty_overlap():
    """Numeric columns union by name-token cosine; disjoint corpora score empty."""
    rng = random.Random(4)
    scalar = DiscoveryIndex(vectorized=False, union_threshold=0.2)
    vectorized = DiscoveryIndex(union_threshold=0.2)
    numbers = Relation(
        "numbers",
        {"metric": [float(i) for i in range(12)], "extra": [1.0] * 12},
        Schema.from_spec({"metric": NUMERIC, "extra": NUMERIC}),
    )
    for relation in [*make_corpus(rng, 10), numbers]:
        scalar.register(relation)
        vectorized.register(relation)
    numeric_query = Relation(
        "nq",
        {"metric": [float(i) for i in range(5)]},
        Schema.from_spec({"metric": NUMERIC}),
    )
    assert_union_parity(scalar, vectorized, numeric_query)
    assert any(
        candidate.dataset == "numbers"
        for candidate in vectorized.union_candidates(numeric_query)
    )
    disjoint = Relation(
        "disjoint",
        {"zzz": [f"x{i}" for i in range(5)]},
        Schema.from_spec({"zzz": CATEGORICAL}),
    )
    assert_union_parity(scalar, vectorized, disjoint)


def test_sparse_union_reregistration_and_self_exclusion():
    rng = random.Random(6)
    relations = make_corpus(rng, 15)
    scalar = DiscoveryIndex(vectorized=False, union_threshold=0.2)
    vectorized = DiscoveryIndex(union_threshold=0.2)
    for relation in relations:
        scalar.register(relation)
        vectorized.register(relation)
    replacement = make_relation(relations[4].name, rng, "dom1")
    scalar.register(replacement)
    vectorized.register(replacement)
    query = make_relation("query", rng, "dom1")
    scalar.register(query)
    vectorized.register(query)
    assert_union_parity(scalar, vectorized, query)
    assert all(
        candidate.dataset != "query"
        for candidate in vectorized.union_candidates(query)
    )


def test_sharded_union_uses_sparse_path_at_parity():
    from repro.serving.sharded import ShardedDiscoveryIndex

    rng = random.Random(7)
    relations = make_corpus(rng, 24)
    flat = DiscoveryIndex(vectorized=False, union_threshold=0.2)
    sharded = ShardedDiscoveryIndex(num_shards=3, union_threshold=0.2)
    for relation in relations:
        flat.register(relation)
        sharded.register(relation)
    query = make_relation("query", rng, "dom3")
    assert sharded.union_candidates(query) == flat.union_candidates_scalar(query)


# -- sparse term matrix unit tests ---------------------------------------------


def sketch_of(**term_counts):
    return TfIdfSketch(dict(term_counts), sum(term_counts.values()))


def test_sparse_term_matrix_add_remove_recycles_rows():
    matrix = SparseTermMatrix()
    matrix.add("a", "x", "categorical", sketch_of(zip=2, city=1))
    matrix.add("a", "y", "key", sketch_of(zip=1))
    matrix.add("b", "x", "categorical", sketch_of(city=3))
    assert len(matrix) == 3 and "a" in matrix and "b" in matrix
    matrix.remove_dataset("a")
    assert len(matrix) == 1 and "a" not in matrix
    matrix.add("c", "z", "numeric", sketch_of(zip=5))
    assert len(matrix) == 2
    assert matrix.capacity == 3  # freed rows were reused, not appended
    idf = {"zip": 2.0, "city": 1.0}
    dot = matrix.weighted_dot({"zip": 1}, idf)
    [c_row] = matrix.rows_for("c")
    [b_row] = matrix.rows_for("b")
    assert dot[c_row] == (1 * 2.0) * (5 * 2.0)
    assert dot[b_row] == 0.0
    assert matrix.datasets_of_rows([b_row, c_row]) == ["b", "c"]


def test_sparse_term_matrix_weighted_cache_tracks_idf_snapshot():
    matrix = SparseTermMatrix()
    matrix.add("a", "x", "key", sketch_of(tok=2))
    [row] = matrix.rows_for("a")
    first = matrix.weighted_dot({"tok": 1}, {"tok": 3.0})
    assert first[row] == (1 * 3.0) * (2 * 3.0)
    # A *new* idf dict (what IdfModel hands out after a version bump) must
    # invalidate the cached weighted postings.
    second = matrix.weighted_dot({"tok": 1}, {"tok": 5.0})
    assert second[row] == (1 * 5.0) * (2 * 5.0)


def test_sparse_term_matrix_compatibility_masks():
    matrix = SparseTermMatrix()
    matrix.add("a", "n", "numeric", sketch_of(metric=1))
    matrix.add("a", "k", "key", sketch_of(key=1))
    matrix.add("a", "c", "categorical", sketch_of(tag=1))
    assert matrix.compatible_rows("numeric").tolist() == [True, False, False]
    assert matrix.compatible_rows("key").tolist() == [False, True, True]
    assert matrix.compatible_rows("categorical").tolist() == [False, True, True]
