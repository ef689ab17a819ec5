"""Tests for the concurrent serving gateway."""

import threading

import pytest

from repro.core import Mileena, SearchRequest, WallClock
from repro.datasets import CorpusSpec, generate_corpus
from repro.exceptions import AdmissionError, BackendError
from repro.serving import Gateway, GatewayConfig
from repro.serving.gateway import EXPIRED, FAILED, OK, REJECTED


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(num_datasets=14, requester_rows=200, seed=1))


@pytest.fixture(scope="module")
def platform(corpus):
    platform = Mileena()
    for relation in corpus.providers:
        platform.register_dataset(relation)
    return platform


def make_request(corpus, **overrides):
    defaults = dict(
        train=corpus.train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=3,
    )
    defaults.update(overrides)
    return SearchRequest(**defaults)


class _StubCorpus:
    epoch = 0


class BlockingPlatform:
    """A platform stub whose search blocks until released (for queue tests)."""

    def __init__(self):
        self.release = threading.Event()
        self.clock = WallClock()
        self.metrics = None
        self.cache = None
        self.corpus = _StubCorpus()
        self.calls = 0

    def search(self, request, train_final_model=True):
        self.calls += 1
        if not self.release.wait(timeout=10.0):
            raise TimeoutError("blocking platform was never released")
        return request.max_augmentations


class FailingPlatform(BlockingPlatform):
    def search(self, request, train_final_model=True):
        raise RuntimeError("boom")


def stub_config(**overrides):
    defaults = dict(cache_results=False, cache_proxy_scores=False)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def test_parallel_results_match_sequential(corpus):
    """N concurrent requests return exactly what N sequential runs return."""
    requests = [
        make_request(corpus, max_augmentations=k, min_improvement=delta)
        for k in (1, 2, 3, 4)
        for delta in (1e-3, 5e-2)
    ]
    sequential_platform = Mileena()
    concurrent_platform = Mileena()
    for relation in corpus.providers:
        sequential_platform.register_dataset(relation)
        concurrent_platform.register_dataset(relation)

    sequential = [sequential_platform.search(request) for request in requests]
    with Gateway(concurrent_platform, GatewayConfig(max_workers=4)) as gateway:
        responses = gateway.run_many(requests)

    assert [response.status for response in responses] == [OK] * len(requests)
    for expected, response in zip(sequential, responses):
        got = response.result
        assert [c.dataset for c in got.plan.candidates] == [
            c.dataset for c in expected.plan.candidates
        ]
        assert got.proxy_test_r2 == expected.proxy_test_r2
        assert got.final_test_r2 == expected.final_test_r2


def test_duplicate_requests_are_coalesced_or_cached(corpus, platform):
    with Gateway(platform, GatewayConfig(max_workers=4)) as gateway:
        responses = gateway.run_many([make_request(corpus) for _ in range(8)])
        assert all(response.ok for response in responses)
        assert sum(response.cache_hit for response in responses) == 7
        scores = {response.result.proxy_test_r2 for response in responses}
        assert len(scores) == 1
        assert gateway.metrics.counter("platform.searches").value == 1


def test_admission_control_rejects_when_queue_full():
    platform = BlockingPlatform()
    gateway = Gateway(platform, stub_config(max_workers=1, max_pending=1))
    try:
        first = gateway.submit(make_stub_request())
        with pytest.raises(AdmissionError):
            gateway.submit(make_stub_request())
        assert gateway.metrics.counter("gateway.rejected").value == 1
        platform.release.set()
        assert first.result(timeout=10).status == OK
        # Capacity is released once the first request completes.
        second = gateway.submit(make_stub_request())
        assert second.result(timeout=10).status == OK
    finally:
        platform.release.set()
        gateway.shutdown()


def test_run_many_converts_rejections_to_responses():
    platform = BlockingPlatform()
    gateway = Gateway(platform, stub_config(max_workers=1, max_pending=1))
    try:
        threading.Timer(0.2, platform.release.set).start()
        responses = gateway.run_many([make_stub_request() for _ in range(3)])
        statuses = [response.status for response in responses]
        assert statuses[0] == OK
        assert statuses[1:] == [REJECTED, REJECTED]
        assert all(response.error for response in responses[1:])
    finally:
        platform.release.set()
        gateway.shutdown()


def test_rejection_metrics_identical_for_submit_and_run_many():
    """submit and run_many do the exact same rejection bookkeeping."""

    def series(metrics):
        return (
            metrics.counter_value("gateway.rejected"),
            metrics.gauge("gateway.pending").value,
        )

    via_submit = Gateway(BlockingPlatform(), stub_config(max_pending=0))
    via_run_many = Gateway(BlockingPlatform(), stub_config(max_pending=0))
    try:
        for _ in range(3):
            with pytest.raises(AdmissionError):
                via_submit.submit(make_stub_request())
        responses = via_run_many.run_many([make_stub_request() for _ in range(3)])
        assert [response.status for response in responses] == [REJECTED] * 3
        assert series(via_submit.metrics) == series(via_run_many.metrics) == (3, 0)
    finally:
        via_submit.shutdown()
        via_run_many.shutdown()


@pytest.mark.parametrize(
    "where, name",
    [
        pytest.param("config", "async", id="config"),
        pytest.param("gateway", "async", id="gateway"),
        pytest.param("config", "replicated", id="config-replicated"),
        pytest.param("gateway", "replicated", id="gateway-replicated"),
    ],
)
def test_removed_async_backend_fails_loudly(where, name):
    """A removed backend name (``"async"``, ``"replicated"``) must raise,
    never fall back to thread, whether it comes from the config or from
    ``Gateway(backend=...)``."""
    with pytest.raises(BackendError) as raised:
        if where == "config":
            Gateway(Mileena(), GatewayConfig(backend=name))
        else:
            Gateway(Mileena(), GatewayConfig(), backend=name)
    message = str(raised.value)
    assert f"{name!r}" in message
    expected = message.split("expected one of", 1)[1]
    assert "process" in expected and "thread" in expected
    assert "replicated" not in expected


def test_zero_budget_request_expires():
    platform = BlockingPlatform()
    platform.release.set()
    gateway = Gateway(platform, stub_config())
    try:
        response = gateway.submit(make_stub_request(), time_budget_seconds=0.0).result(
            timeout=10
        )
        assert response.status == EXPIRED
        assert gateway.metrics.counter("gateway.expired").value == 1
    finally:
        gateway.shutdown()


def test_failures_are_isolated_per_request():
    platform = FailingPlatform()
    gateway = Gateway(platform, stub_config(max_workers=2))
    try:
        responses = gateway.run_many([make_stub_request(), make_stub_request()])
        assert [response.status for response in responses] == [FAILED, FAILED]
        assert all("boom" in response.error for response in responses)
        assert gateway.metrics.counter("gateway.failed").value == 2
    finally:
        gateway.shutdown()


def test_budget_scoped_results_not_served_to_unbudgeted_requests():
    """Regression: a result computed under a deadline must not satisfy a
    request submitted with a different (or no) deadline — deadline-truncated
    plans would otherwise poison the cache."""
    platform = BlockingPlatform()
    platform.release.set()
    gateway = Gateway(platform, GatewayConfig(max_workers=1, cache_proxy_scores=False))
    try:
        first = gateway.submit(make_stub_request(), time_budget_seconds=300.0).result(
            timeout=30
        )
        second = gateway.submit(make_stub_request()).result(timeout=30)
        third = gateway.submit(make_stub_request()).result(timeout=30)
        assert first.ok and not first.cache_hit
        assert second.ok and not second.cache_hit  # different budget → miss
        assert third.ok and third.cache_hit  # same (absent) budget → hit
        assert platform.calls == 2
    finally:
        gateway.shutdown()


def test_corpus_epoch_invalidates_cache(corpus):
    platform = Mileena()
    for relation in corpus.providers[:-1]:
        platform.register_dataset(relation)
    with Gateway(platform, GatewayConfig(max_workers=2)) as gateway:
        first = gateway.run_many([make_request(corpus)])[0]
        again = gateway.run_many([make_request(corpus)])[0]
        assert first.ok and not first.cache_hit
        assert again.ok and again.cache_hit
        platform.register_dataset(corpus.providers[-1])
        fresh = gateway.run_many([make_request(corpus)])[0]
        assert fresh.ok and not fresh.cache_hit


def test_gateway_automl_mode(corpus, platform):
    config = GatewayConfig(max_workers=2, run_automl=True)
    with Gateway(platform, config) as gateway:
        requests = [make_request(corpus), make_request(corpus)]
        responses = gateway.run_many(requests)
        assert all(response.ok for response in responses)
        assert sum(response.cache_hit for response in responses) == 1
        first, second = (response.result for response in responses)
        assert first.automl_test_r2 == second.automl_test_r2
        assert first.automl_best_model


def test_gateway_records_metrics(corpus, platform):
    with Gateway(platform, GatewayConfig(max_workers=2)) as gateway:
        gateway.run_many([make_request(corpus) for _ in range(3)])
        snapshot = gateway.metrics.snapshot()
        assert snapshot["counters"]["gateway.requests"] == 3
        assert snapshot["counters"]["gateway.ok"] == 3
        waits = snapshot["histograms"]["gateway.queue_wait_seconds"]
        assert waits["count"] == 3
        rendered = gateway.metrics.render()
        assert "gateway.requests 3" in rendered


def make_stub_request():
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
