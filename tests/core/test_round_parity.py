"""Round parity: a stacked greedy round scores every candidate as the scalar path does.

The search joins, collapses and scores each round's trials as stacked arrays
(``trial_elements`` + ``SketchProxyModel.evaluate_many``).  These tests wrap
both steps of a real search and compare every candidate of every round, byte
for byte, with the scalar reference on that trial's own elements: the trial's
``train_element`` / ``test_element``, then ``psd_project`` and
``LinearRegression.fit_from_statistics`` / ``score_from_statistics``.
"""

import numpy as np
import pytest

import repro.core.search as search_module
from repro.core import (
    JOIN,
    AugmentationCandidate,
    AugmentationState,
    GreedySketchSearch,
    Mileena,
    Requester,
    SearchRequest,
    SketchProxyModel,
)
from repro.core.proxy import STACK_CELLS, trial_elements
from repro.datasets import CorpusSpec, generate_corpus
from repro.exceptions import SketchError
from repro.ml import LinearRegression
from repro.privacy import FactorizedPrivacyMechanism
from repro.relational import KEY, NUMERIC, Relation, Schema
from repro.sketches import SketchBuilder, SketchStore


def scalar_score(ridge, train, test, target, seen):
    """``SketchProxyModel.evaluate`` as one pair at a time, from the public pieces."""
    projected_train, projected_test = train.psd_project(), test.psd_project()
    seen["clipped"] += (projected_train is not train) + (projected_test is not test)
    usable = [
        name for name in projected_train.features if name != target and name in test.features
    ]
    if not usable:
        raise SketchError("no shared features between train and test statistics")
    model = LinearRegression(ridge=ridge).fit_from_statistics(projected_train, usable, target)
    return (
        model.score_from_statistics(projected_train, usable, target),
        model.score_from_statistics(projected_test, usable, target),
    )


def assert_same_element(got, want):
    assert got.features == want.features
    assert np.float64(got.count).tobytes() == np.float64(want.count).tobytes()
    assert got.sums.tobytes() == want.sums.tobytes()
    assert got.products.tobytes() == want.products.tobytes()


def checked_search(monkeypatch, store, state, candidates, proxy, max_augmentations):
    """Run the greedy search with every round checked against the scalar path."""
    seen = dict.fromkeys(
        ("chunks", "trials", "empty", "unions", "two_keys", "scores", "clipped", "lstsq"), 0
    )

    def checked_elements(trials):
        pairs = trial_elements(trials)
        seen["chunks"] += 1
        for trial, pair in zip(trials, pairs):
            seen["trials"] += 1
            seen["unions"] += trial._joined is None
            seen["two_keys"] += sum(1 for joins in trial.accepted_joins.values() if joins) > 1
            try:
                expected = (trial.train_element(), trial.test_element())
            except SketchError:
                expected = None
            if expected is None or pair is None:
                assert pair is None and expected is None
                seen["empty"] += 1
                continue
            assert_same_element(pair[0], expected[0])
            assert_same_element(pair[1], expected[1])
        return pairs

    class CheckedProxy:
        def evaluate(self, train, test, target):
            return proxy.evaluate(train, test, target)

        def evaluate_many(self, pairs, target):
            lstsq = np.linalg.lstsq

            def counted_lstsq(*args, **kwargs):
                seen["lstsq"] += 1
                return lstsq(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "lstsq", counted_lstsq)
                scores = proxy.evaluate_many(pairs, target)
            for (train, test), score in zip(pairs, scores):
                try:
                    expected = scalar_score(proxy.ridge, train, test, target, seen)
                except SketchError:
                    expected = None
                if expected is None or score is None:
                    assert score is None and expected is None
                    continue
                seen["scores"] += 1
                assert float(score.train_r2).hex() == float(expected[0]).hex()
                assert float(score.test_r2).hex() == float(expected[1]).hex()
            return scores

    monkeypatch.setattr(search_module, "trial_elements", checked_elements)
    search = GreedySketchSearch(store=store, proxy=CheckedProxy())
    plan, _ = search.run(state, candidates, max_augmentations=max_augmentations)
    return plan, seen


def requester_state(platform, request):
    sketches = Requester("requester", builder=platform.builder).build_sketches(request)
    return AugmentationState.from_sketches(request.target, sketches.train, sketches.test)


def keyed_relation(name, key, values, columns, rng):
    data = {key: values, **{column: rng.random(len(values)) for column in columns}}
    schema = Schema.from_spec({key: KEY, **dict.fromkeys(columns, NUMERIC)})
    return Relation(name, data, schema)


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_round_matches_scalar_path_on_private_corpora(seed, monkeypatch):
    """Private providers, unions, states joined on two keys and an empty join."""
    corpus = generate_corpus(CorpusSpec(num_datasets=30, seed=seed))
    mechanism = FactorizedPrivacyMechanism(rng=np.random.default_rng(seed))
    platform = Mileena(builder=SketchBuilder(mechanism=mechanism))
    for index, relation in enumerate(corpus.providers):
        platform.register_dataset(relation, epsilon=1.0 if index % 3 == 2 else None)
    rng = np.random.default_rng(seed)
    elsewhere = [f"elsewhere_{index}" for index in range(20)]
    platform.register_dataset(keyed_relation("elsewhere", "zone", elsewhere, ["far"], rng))
    request = SearchRequest(
        train=corpus.train, test=corpus.test, target=corpus.target, max_augmentations=4
    )
    candidates = [
        *platform.discover_candidates(request),
        AugmentationCandidate(kind=JOIN, dataset="elsewhere", join_key="zone"),
    ]
    plan, seen = checked_search(
        monkeypatch,
        platform.corpus.sketches,
        requester_state(platform, request),
        candidates,
        platform.proxy,
        max_augmentations=4,
    )
    assert len(plan) >= 2
    assert seen["unions"] > 0 and seen["two_keys"] > 0
    # "elsewhere" shares no zone with the requester in any round.
    assert seen["empty"] >= len(plan)
    assert seen["clipped"] > 0
    assert seen["scores"] > 50


def test_round_matches_scalar_path_through_the_singular_fallback(monkeypatch):
    """Unpenalised normal equations with an all-zero feature are singular: the
    batched solve raises and every system of the group takes ``lstsq``."""
    corpus = generate_corpus(CorpusSpec(num_datasets=14, seed=3))
    platform = Mileena(proxy=SketchProxyModel(ridge=0.0))
    for relation in corpus.providers:
        platform.register_dataset(relation)
    zones = sorted(set(corpus.train.column("zone").tolist()))
    flat = Relation(
        "flat",
        {"zone": zones, "flat_level": np.full(len(zones), 3.0)},
        Schema.from_spec({"zone": KEY, "flat_level": NUMERIC}),
    )
    platform.register_dataset(flat)
    request = SearchRequest(train=corpus.train, test=corpus.test, target=corpus.target)
    candidates = [
        *platform.discover_candidates(request),
        AugmentationCandidate(kind=JOIN, dataset="flat", join_key="zone"),
    ]
    _, seen = checked_search(
        monkeypatch,
        platform.corpus.sketches,
        requester_state(platform, request),
        candidates,
        platform.proxy,
        max_augmentations=2,
    )
    assert seen["lstsq"] > 0
    assert seen["scores"] > 10


def test_round_matches_scalar_path_across_chunks_of_a_5000_value_key(monkeypatch):
    rng = np.random.default_rng(0)
    users = [f"u{index}" for index in range(5000)]
    latent = rng.normal(size=len(users))
    train_rows = rng.integers(0, len(users), size=8000)
    train_rows[: len(users)] = np.arange(len(users))

    def task(name, rows):
        local = rng.random(len(rows))
        return Relation(
            name,
            {
                "user": [users[row] for row in rows],
                "local": local,
                "y": local + latent[rows] + rng.normal(scale=0.1, size=len(rows)),
            },
            Schema.from_spec({"user": KEY, "local": NUMERIC, "y": NUMERIC}),
        )

    train = task("train", train_rows)
    test = task("test", rng.integers(0, len(users), size=1500))
    builder = SketchBuilder()
    train_sketch = builder.build(train, features=["local", "y"], key_columns=["user"])
    test_sketch = builder.build(
        test, features=["local", "y"], key_columns=["user"], scaling=train_sketch.scaling
    )
    store = SketchStore()
    candidates = []
    for index in range(16):
        kept = rng.permutation(len(users))[: int(rng.integers(3000, 5000))]
        provider = Relation(
            f"p{index}",
            {
                "user": [users[row] for row in kept],
                f"f{index}": latent[kept] * rng.random() + rng.normal(size=len(kept)),
            },
            Schema.from_spec({"user": KEY, f"f{index}": NUMERIC}),
        )
        store.add(builder.build(provider, key_columns=["user"]))
        candidates.append(AugmentationCandidate(kind=JOIN, dataset=provider.name, join_key="user"))
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    cells = state.with_join("user", store.get("p0")).stacked_cells()
    assert cells == 5000 * 3 * 3 and cells * len(candidates) > STACK_CELLS
    plan, seen = checked_search(
        monkeypatch, store, state, candidates, SketchProxyModel(), max_augmentations=2
    )
    assert len(plan) == 2
    assert seen["chunks"] >= 2 * len(plan)
    assert seen["scores"] == seen["trials"] == 16 + 15


def test_batched_linear_algebra_matches_per_matrix_calls():
    """The bit-identity of a stacked round rests on these: batched ``eigh``,
    ``solve`` and stacked ``matmul`` equal per-matrix calls byte for byte."""
    rng = np.random.default_rng(0)
    for trial in range(60):
        count, size = int(rng.integers(1, 30)), int(rng.integers(2, 8))
        matrices = rng.normal(size=(count, size, size))
        matrices = matrices @ matrices.transpose(0, 2, 1)
        matrices = 0.5 * (matrices + matrices.transpose(0, 2, 1))
        if trial % 3 == 0:
            matrices[:, 0, 0] -= 5.0
        vectors = rng.normal(size=(count, size))
        thetas = rng.normal(size=(count, size))
        eigenvalues, eigenvectors = np.linalg.eigh(matrices)
        solutions = np.linalg.solve(matrices, vectors[..., None])[..., 0]
        quadratic = (thetas[:, None, :] @ matrices) @ thetas[:, :, None]
        linear = (2.0 * thetas)[:, None, :] @ vectors[:, :, None]
        for row in range(count):
            matrix, vector, theta = matrices[row].copy(), vectors[row].copy(), thetas[row].copy()
            values, bases = np.linalg.eigh(matrix)
            assert values.tobytes() == eigenvalues[row].tobytes()
            assert bases.tobytes() == eigenvectors[row].tobytes()
            assert np.linalg.solve(matrix, vector).tobytes() == solutions[row].tobytes()
            assert np.float64(theta @ matrix @ theta).tobytes() == quadratic[row, 0, 0].tobytes()
            assert np.float64(2.0 * theta @ vector).tobytes() == linear[row, 0, 0].tobytes()


def test_union_rows_are_scattered_in_dict_order():
    """A union adds matched key values in place and appends the rest in its order."""
    rng = np.random.default_rng(1)
    requester = keyed_relation("r", "zone", ["a", "b", "c"], ["x", "y"], rng)
    extra = keyed_relation("e", "zone", ["d", "b", "e"], ["x", "y"], rng)
    builder = SketchBuilder()
    own = builder.build(requester, key_columns=["zone"])
    more = builder.build(extra, key_columns=["zone"], scaling=own.scaling)
    state = AugmentationState.from_sketches("y", own, own).with_union(more)
    block = state.train_keyed["zone"]
    assert block.keys == ("a", "b", "c", "d", "e")
    expected = own.keyed["zone"]["b"] + more.keyed["zone"]["b"]
    assert block.products[1].tobytes() == expected.products.tobytes()
    assert state.accepted_unions == ["e"]
