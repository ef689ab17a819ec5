"""End-to-end tests for the greedy search, platform facade, and AutoML service."""

import numpy as np
import pytest

from repro.core import (
    AugmentationCandidate,
    AugmentationState,
    GreedySketchSearch,
    JOIN,
    Mileena,
    MileenaAutoMLService,
    Requester,
    SearchRequest,
    SimulatedClock,
    UNION,
    materialize_plan,
    reduce_to_key,
)
from repro.datasets import CorpusSpec, generate_corpus
from repro.exceptions import SearchError, SketchError
from repro.relational import KEY, NUMERIC, Relation, Schema
from repro.sketches import SketchBuilder, SketchStore


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(CorpusSpec(num_datasets=18, requester_rows=300, seed=0))


@pytest.fixture(scope="module")
def platform(small_corpus):
    platform = Mileena()
    for relation in small_corpus.providers:
        platform.register_dataset(relation)
    return platform


def make_request(corpus, **overrides):
    defaults = dict(
        train=corpus.train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=4,
    )
    defaults.update(overrides)
    return SearchRequest(**defaults)


def test_candidate_validation():
    with pytest.raises(SearchError):
        AugmentationCandidate(kind="cross", dataset="x")
    with pytest.raises(SearchError):
        AugmentationCandidate(kind=JOIN, dataset="x")
    join_candidate = AugmentationCandidate(kind=JOIN, dataset="x", join_key="zone")
    assert "⋈" in join_candidate.describe()
    union_candidate = AugmentationCandidate(kind=UNION, dataset="x")
    assert "∪" in union_candidate.describe()


def test_reduce_to_key_averages_features():
    relation = Relation(
        "p",
        {"zone": ["a", "a", "b"], "x": [1.0, 3.0, 10.0]},
        Schema.from_spec({"zone": KEY, "x": NUMERIC}),
    )
    reduced = reduce_to_key(relation, "zone", ["x"])
    by_zone = {row["zone"]: row["x"] for row in reduced.to_rows()}
    assert by_zone["a"] == 2.0
    assert by_zone["b"] == 10.0


def test_platform_registration(platform, small_corpus):
    assert platform.corpus_size() == len(small_corpus.providers)
    assert set(platform.dataset_names()) == set(small_corpus.provider_names)
    assert len(platform.candidate_pairs()) > 0
    with pytest.raises(SearchError):
        platform.register_dataset(small_corpus.providers[0])


def test_discovery_produces_signal_candidates(platform, small_corpus):
    request = make_request(small_corpus)
    candidates = platform.discover_candidates(request)
    datasets = {candidate.dataset for candidate in candidates}
    assert any(name in datasets for name in small_corpus.signal_join_names)
    assert any(name in datasets for name in small_corpus.signal_union_names)


def test_search_improves_over_local_features(platform, small_corpus):
    request = make_request(small_corpus)
    result = platform.search(request)
    assert len(result.plan) >= 1
    assert result.plan.final_utility > result.plan.base_utility + 0.15
    assert result.final_report is not None
    assert result.final_report.test_r2 > 0.6
    # Search selected at least one genuine signal dataset.
    chosen = {candidate.dataset for candidate in result.plan.candidates}
    signal = set(small_corpus.signal_join_names) | set(small_corpus.signal_union_names)
    assert chosen & signal


def test_search_mostly_ignores_distractors(platform, small_corpus):
    request = make_request(small_corpus)
    result = platform.search(request)
    chosen = {candidate.dataset for candidate in result.plan.candidates}
    distractors = set(small_corpus.distractor_names)
    signal = chosen - distractors
    assert len(signal) >= len(chosen & distractors)


def test_private_search_still_finds_signal(small_corpus):
    from repro.privacy import FactorizedPrivacyMechanism

    builder = SketchBuilder(
        mechanism=FactorizedPrivacyMechanism(rng=np.random.default_rng(7))
    )
    platform = Mileena(builder=builder)
    for relation in small_corpus.providers:
        platform.register_dataset(relation, epsilon=4.0)
    request = make_request(small_corpus, epsilon=4.0)
    result = platform.search(request)
    # The paper reports FPM reaching ~40-90% of non-private utility; the
    # non-private search on this corpus lands around 0.7, so 0.3 is the
    # lower end of that band.
    assert result.final_report.test_r2 > 0.3


def test_search_with_zero_augmentations(platform, small_corpus):
    request = make_request(small_corpus, max_augmentations=0)
    result = platform.search(request)
    assert len(result.plan) == 0
    assert result.final_report is not None


def test_search_respects_time_budget(small_corpus):
    clock = SimulatedClock()

    class SlowProxy:
        """A proxy whose every evaluation consumes simulated time."""

        def __init__(self, inner, clock, cost):
            self.inner = inner
            self.clock = clock
            self.cost = cost

        def evaluate(self, train_element, test_element, target):
            self.clock.advance(self.cost)
            return self.inner.evaluate(train_element, test_element, target)

        def evaluate_many(self, pairs, target):
            self.clock.advance(self.cost * len(pairs))
            return self.inner.evaluate_many(pairs, target)

    platform = Mileena(clock=clock)
    for relation in small_corpus.providers:
        platform.register_dataset(relation)
    from repro.core import SketchProxyModel

    platform.proxy = SlowProxy(SketchProxyModel(), clock, cost=30.0)
    request = make_request(small_corpus, time_budget_seconds=120.0)
    result = platform.search(request, train_final_model=False)
    # With 30 s per evaluation and a 120 s budget only a few evaluations fit.
    assert result.elapsed_seconds >= 120.0
    assert len(result.plan) <= 4


def test_greedy_search_skips_unknown_datasets(small_corpus):
    builder = SketchBuilder()
    train_sketch = builder.build(
        small_corpus.train, features=["local_a", "local_b", "demand"], key_columns=["zone"]
    )
    test_sketch = builder.build(
        small_corpus.test,
        features=["local_a", "local_b", "demand"],
        key_columns=["zone"],
        scaling=train_sketch.scaling,
    )
    state = AugmentationState.from_sketches("demand", train_sketch, test_sketch)
    search = GreedySketchSearch(store=SketchStore(), clock=SimulatedClock())
    plan, _ = search.run(
        state,
        [AugmentationCandidate(kind=JOIN, dataset="ghost", join_key="zone")],
    )
    assert len(plan) == 0


def test_materialize_plan_unknown_dataset_raises(small_corpus):
    from repro.core import AugmentationPlan, AugmentationStep

    plan = AugmentationPlan(base_utility=0.0)
    plan.steps.append(
        AugmentationStep(AugmentationCandidate(kind=UNION, dataset="ghost"), 0.5)
    )
    with pytest.raises(SearchError):
        materialize_plan(small_corpus.train, small_corpus.test, plan, {})


def test_automl_service_improves_on_proxy(platform, small_corpus):
    service = MileenaAutoMLService(platform=platform, clock=SimulatedClock(), automl_splits=3)
    request = make_request(small_corpus)
    result = service.run(request)
    assert result.automl_test_r2 >= result.search_result.plan.base_utility
    assert result.automl_test_r2 > 0.5
    assert result.automl_best_model
    assert result.total_seconds >= 0.0


def test_automl_service_fraction_validation(platform, small_corpus):
    service = MileenaAutoMLService(platform=platform, search_fraction=1.5)
    with pytest.raises(SearchError):
        service.run(make_request(small_corpus))


def test_corpus_add_many_bulk_registration(small_corpus):
    from repro.core import Corpus, DatasetRegistration

    builder = SketchBuilder()
    registrations = [
        DatasetRegistration(
            relation=relation, budget=None, sketch=builder.build(relation)
        )
        for relation in small_corpus.providers[:5]
    ]
    one_by_one = Corpus()
    for registration in registrations:
        one_by_one.add(registration)
    bulk = Corpus()
    bulk.add_many(registrations)
    assert bulk.names() == one_by_one.names()
    assert len(bulk.discovery) == len(one_by_one.discovery)
    # A bulk load is one corpus transition: the epoch advances once, not N
    # times, so epoch-keyed caches churn once per backfill.
    assert one_by_one.epoch == 5
    assert bulk.epoch == 1
    bulk.add_many([])
    assert bulk.epoch == 1
    with pytest.raises(SearchError):
        bulk.add_many(registrations[:1])


def test_corpus_add_many_is_atomic_on_duplicates(small_corpus):
    from repro.core import Corpus, DatasetRegistration

    builder = SketchBuilder()
    registrations = [
        DatasetRegistration(
            relation=relation, budget=None, sketch=builder.build(relation)
        )
        for relation in small_corpus.providers[:3]
    ]
    corpus = Corpus()
    # Intra-batch duplicate: nothing may be applied, the epoch must not move.
    with pytest.raises(SearchError):
        corpus.add_many(registrations + [registrations[0]])
    assert len(corpus) == 0
    assert len(corpus.discovery) == 0
    assert corpus.epoch == 0


def test_union_candidates_follow_their_column_mapping():
    """A renamed copy of the requester is a union candidate with a renaming
    mapping; its sketch must be renamed through it before it is unioned."""
    corpus = generate_corpus(CorpusSpec(num_datasets=20, seed=3))
    names = corpus.train.schema.names
    platform = Mileena()
    for relation in corpus.providers:
        platform.register_dataset(relation)
    platform.register_dataset(corpus.train.renamed("requester_plain"))
    platform.register_dataset(
        corpus.train.rename({name: f"{name}_x" for name in names}).renamed("requester_renamed")
    )
    request = make_request(corpus)
    unions = {
        candidate.dataset: candidate
        for candidate in platform.discover_candidates(request)
        if candidate.kind == UNION
    }
    renamed = unions["requester_renamed"]
    assert dict(renamed.column_mapping)["local_a"] == "local_a_x"
    result = platform.search(request)
    assert result.final_report is not None

    sketches = Requester("requester", builder=platform.builder).build_sketches(request)
    state = AugmentationState.from_sketches(request.target, sketches.train, sketches.test)
    store = platform.corpus.sketches
    via_mapping = state.with_union(store.get("requester_renamed"), renamed.column_mapping)
    plain = state.with_union(
        store.get("requester_plain"), unions["requester_plain"].column_mapping
    )
    got, want = via_mapping.train_element(), plain.train_element()
    assert got.features == want.features and got.count == want.count
    assert got.products.tobytes() == want.products.tobytes()
    renamed_block, plain_block = via_mapping.train_keyed["zone"], plain.train_keyed["zone"]
    assert renamed_block.keys == plain_block.keys
    assert renamed_block.products.tobytes() == plain_block.products.tobytes()
    # A mapping that leaves a requester feature unmatched makes the union unusable.
    partial = tuple(pair for pair in renamed.column_mapping if pair[0] != "local_b")
    with pytest.raises(SketchError):
        state.with_union(store.get("requester_renamed"), partial)
