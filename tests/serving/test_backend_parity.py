"""Backend parity: thread and process gateways are result identical.

The execution backends differ in *where* requests run (GIL-bound threads,
worker processes with their own platform replicas) but must never differ
in *what* they return.  This suite drives both through the same
workloads — join- and union-producing searches, cached repeats, and a
mid-flight ``Corpus.add_many`` epoch bump — and compares responses field
for field (timing measurements excluded: they are
observations of the run, not part of the result).
"""

import numpy as np
import pytest

from repro.core import Mileena, SearchRequest
from repro.core.augmentation import JOIN, UNION
from repro.datasets import CorpusSpec, generate_corpus
from repro.serving import Gateway, GatewayConfig

BACKENDS = ("thread", "process")

_SPEC = CorpusSpec(num_datasets=14, requester_rows=150, provider_rows=150, seed=11)
_INITIAL = 11  # providers registered up front; the rest arrive via add_many


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(_SPEC)


def fresh_platform(corpus, upto=_INITIAL):
    platform = Mileena.sharded(num_shards=2)
    for relation in corpus.providers[:upto]:
        platform.register_dataset(relation)
    return platform


def make_requests(corpus):
    """A small matrix of distinct tasks (join and union candidates appear)."""
    return [
        SearchRequest(
            train=corpus.train,
            test=corpus.test,
            target=corpus.target,
            max_augmentations=k,
            min_improvement=delta,
        )
        for k in (1, 3)
        for delta in (1e-3, 5e-2)
    ]


def gateway_config(**overrides):
    defaults = dict(max_workers=2, process_workers=2)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def response_identity(response):
    """Everything that defines a response except wall-clock measurements."""
    result = response.result
    if result is None:
        payload = None
    else:
        report = result.final_report
        payload = (
            tuple(
                (c.kind, c.dataset, c.join_key, c.column_mapping)
                for c in result.plan.candidates
            ),
            result.proxy_test_r2,
            result.candidates_considered,
            None
            if report is None
            else (
                report.train_r2,
                report.test_r2,
                report.num_features,
                tuple(report.feature_names),
                report.model.model_.intercept,
                report.model.model_.coefficients.tobytes(),
            ),
        )
    return (response.status, response.error, payload)


def registrations_for(relations):
    """Build registrations out-of-band so add_many gets identical sketches."""
    scratch = Mileena()
    for relation in relations:
        scratch.register_dataset(relation)
    return [scratch.corpus.registrations[relation.name] for relation in relations]


@pytest.fixture(scope="module")
def reference(corpus):
    """Flat sequential platform responses: the oracle every backend must match."""
    platform = fresh_platform(corpus)
    return [response_identity_from_result(platform.search(r)) for r in make_requests(corpus)]


def response_identity_from_result(result):
    class _Shim:
        pass

    shim = _Shim()
    shim.status = "ok"
    shim.error = None
    shim.result = result
    return response_identity(shim)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_sequential_reference(corpus, reference, backend):
    with Gateway(fresh_platform(corpus), gateway_config(backend=backend)) as gateway:
        responses = gateway.run_many(make_requests(corpus))
    assert [response.status for response in responses] == ["ok"] * len(responses)
    assert [response_identity(r) for r in responses] == reference


def test_all_backends_byte_identical(corpus):
    """The backends agree with each other on every field that matters."""
    identities = {}
    for backend in BACKENDS:
        with Gateway(fresh_platform(corpus), gateway_config(backend=backend)) as gateway:
            responses = gateway.run_many(make_requests(corpus))
        identities[backend] = [response_identity(r) for r in responses]
    assert identities["process"] == identities["thread"]


def test_workload_exercises_join_and_union(corpus):
    """The parity matrix is only meaningful if both candidate kinds compete."""
    platform = fresh_platform(corpus)
    request = make_requests(corpus)[2]
    discovered = {c.kind for c in platform.discover_candidates(request)}
    assert discovered == {JOIN, UNION}
    accepted = {c.kind for c in platform.search(request).plan.candidates}
    assert JOIN in accepted  # joins win on this corpus; unions are scored too


@pytest.mark.parametrize("backend", BACKENDS)
def test_union_query_parity(corpus, backend):
    """On a union-only corpus the accepted plan is a union on every backend."""
    union_only = corpus.providers[6:10]  # the demand_history_* providers
    request = SearchRequest(
        train=corpus.train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=2,
    )

    expected_platform = Mileena.sharded(num_shards=2)
    for relation in union_only:
        expected_platform.register_dataset(relation)
    expected = response_identity_from_result(expected_platform.search(request))
    accepted = {c.kind for c in expected_platform.search(request).plan.candidates}
    assert accepted == {UNION}

    platform = Mileena.sharded(num_shards=2)
    for relation in union_only:
        platform.register_dataset(relation)
    with Gateway(platform, gateway_config(backend=backend)) as gateway:
        response = gateway.run_many([request])[0]
    assert response.ok
    assert response_identity(response) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_cached_repeat_is_identical(corpus, backend):
    request = make_requests(corpus)[0]
    with Gateway(fresh_platform(corpus), gateway_config(backend=backend)) as gateway:
        first = gateway.run_many([request])[0]
        again = gateway.run_many([request])[0]
    assert first.ok and not first.cache_hit
    assert again.ok and again.cache_hit
    assert response_identity(first) == response_identity(again)


@pytest.mark.parametrize("backend", BACKENDS)
def test_midflight_add_many_epoch_bump(corpus, backend):
    """A bulk registration between requests invalidates caches on every
    backend and produces the post-mutation sequential answer (the process
    backend must replay the mutation log into its worker replicas)."""
    request = make_requests(corpus)[1]
    late = registrations_for(corpus.providers[_INITIAL:])

    expected_platform = fresh_platform(corpus)
    before_expected = response_identity_from_result(expected_platform.search(request))
    expected_platform.corpus.add_many(registrations_for(corpus.providers[_INITIAL:]))
    after_expected = response_identity_from_result(expected_platform.search(request))

    with Gateway(fresh_platform(corpus), gateway_config(backend=backend)) as gateway:
        epoch_before = gateway.platform.corpus.epoch
        before = gateway.run_many([request])[0]
        gateway.platform.corpus.add_many(late)
        assert gateway.platform.corpus.epoch == epoch_before + 1
        after = gateway.run_many([request])[0]
        repeat = gateway.run_many([request])[0]

    assert before.ok and after.ok
    assert not after.cache_hit  # the epoch bump must invalidate the cache
    assert response_identity(before) == before_expected
    assert response_identity(after) == after_expected
    assert repeat.cache_hit
    assert response_identity(repeat) == after_expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_unregister_churn_parity(corpus, backend):
    """Removals propagate too: the process backend's replicas replay them."""
    request = make_requests(corpus)[0]
    removed = corpus.providers[0].name

    expected_platform = fresh_platform(corpus)
    expected_platform.corpus.remove(removed)
    expected = response_identity_from_result(expected_platform.search(request))

    with Gateway(fresh_platform(corpus), gateway_config(backend=backend)) as gateway:
        warm = gateway.run_many([request])[0]
        gateway.platform.corpus.remove(removed)
        after = gateway.run_many([request])[0]

    assert warm.ok and after.ok and not after.cache_hit
    assert response_identity(after) == expected


def test_follower_deadline_does_not_cancel_leader():
    """Regression: a coalesced follower whose deadline expires while the
    leader is still computing must cancel only its own wait — it must never
    cancel the shared flight and turn the leader's successfully computed
    response into a failure.

    Coalescing keys include the submitted budget, so leader and follower
    share one budget value; the follower expires first because it was
    admitted later (its deadline started later but its wait on the leader
    is bounded by what remains of its own budget)."""
    import threading
    import time

    from repro.core import WallClock

    release = threading.Event()
    started = threading.Event()

    class _StubCorpus:
        epoch = 0

    class BlockingPlatform:
        def __init__(self):
            self.clock = WallClock()
            self.metrics = None
            self.cache = None
            self.corpus = _StubCorpus()
            self.calls = 0

        def search(self, request, train_final_model=True):
            self.calls += 1
            started.set()  # the leader owns the flight once it computes
            if not release.wait(timeout=10.0):
                raise TimeoutError("leader was never released")
            return request.max_augmentations

    platform = BlockingPlatform()
    # One worker thread each for the leader and both followers, so the
    # patient follower joins the flight instead of queueing behind it.
    gateway = Gateway(
        platform,
        GatewayConfig(max_workers=3, cache_proxy_scores=False, backend="thread"),
    )
    try:
        request = _stub_request()
        budget = 1.0
        leader = gateway.submit(request, time_budget_seconds=budget)
        assert started.wait(timeout=10.0), "leader never started computing"
        impatient = gateway.submit(request, time_budget_seconds=budget)
        time.sleep(0.4)  # a later follower: its deadline outlives impatient's
        patient = gateway.submit(request, time_budget_seconds=budget)
        expired = impatient.result(timeout=10)
        assert expired.status == "expired", (expired.status, expired.error)
        release.set()
        done = leader.result(timeout=10)
        # A follower that cancelled the shared future would turn the leader
        # FAILED (InvalidStateError) and make the patient follower
        # collateral damage of impatient's expiry.
        assert done.status == "ok", (done.status, done.error)
        shared = patient.result(timeout=10)
        assert shared.status == "ok" and shared.cache_hit, (shared.status, shared.error)
        assert gateway.metrics.counter("gateway.failed").value == 0
        assert gateway.metrics.counter("gateway.coalesced").value == 2
        assert platform.calls == 1
    finally:
        release.set()
        gateway.shutdown()


def _stub_request():
    from repro.relational import KEY, NUMERIC, Relation, Schema

    train = Relation(
        "train",
        {"zone": ["a", "b"], "x": [1.0, 2.0], "y": [1.0, 2.0]},
        Schema.from_spec({"zone": KEY, "x": NUMERIC, "y": NUMERIC}),
    )
    test = Relation(
        "test",
        {"zone": ["a", "b"], "x": [1.5, 2.5], "y": [1.5, 2.5]},
        Schema.from_spec({"zone": KEY, "x": NUMERIC, "y": NUMERIC}),
    )
    return SearchRequest(train=train, test=test, target="y")


def test_numpy_payloads_survive_pickling(corpus):
    """Process-backend results cross a pickle boundary; spot-check arrays."""
    request = make_requests(corpus)[0]
    with Gateway(
        fresh_platform(corpus), gateway_config(backend="process")
    ) as gateway:
        response = gateway.run_many([request])[0]
    assert response.ok
    coefficients = response.result.final_report.model.model_.coefficients
    assert isinstance(coefficients, np.ndarray)
    assert coefficients.dtype == np.float64
