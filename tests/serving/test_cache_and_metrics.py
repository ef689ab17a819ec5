"""Tests for the result cache, metrics registry, and fingerprint helpers."""

import threading

import pytest

from repro.core import SketchProxyModel
from repro.exceptions import SketchError
from repro.relational import KEY, NUMERIC, Relation, Schema
from repro.semiring.covariance import CovarianceElement
from repro.serving import (
    CachingProxy,
    MetricsRegistry,
    ResultCache,
    element_fingerprint,
    relation_fingerprint,
    stable_hash,
)
from repro.serving.metrics import Histogram


# -- ResultCache ---------------------------------------------------------------
def test_cache_get_put_and_stats():
    cache = ResultCache(capacity=4, name="c")
    assert cache.get("missing") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert len(cache) == 1
    assert "a" in cache
    stats = cache.stats
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.hit_rate == 0.5


def test_cache_lru_eviction_order():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh "a" so "b" becomes least recently used
    cache.put("c", 3)
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache
    assert cache.stats.evictions == 1


def test_cache_get_or_compute():
    cache = ResultCache(capacity=4)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1


def test_cache_epoch_keys_separate_entries():
    cache = ResultCache(capacity=8)
    cache.put(("req", 0), "old")
    cache.put(("req", 1), "new")
    assert cache.get(("req", 1)) == "new"
    assert cache.get(("req", 0)) == "old"  # stale epoch entries age out via LRU
    cache.clear()
    assert len(cache) == 0


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


def test_cache_is_thread_safe_under_contention():
    cache = ResultCache(capacity=32)

    def worker(seed):
        for index in range(200):
            cache.put((seed, index % 40), index)
            cache.get((seed, (index + 1) % 40))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(cache) <= 32


# -- MetricsRegistry -----------------------------------------------------------
def test_counters_and_histograms():
    metrics = MetricsRegistry()
    metrics.increment("requests")
    metrics.increment("requests", 2)
    assert metrics.counter("requests").value == 3
    metrics.observe("latency", 0.02)
    metrics.observe("latency", 0.8)
    histogram = metrics.histogram("latency")
    assert histogram.count == 2
    assert histogram.mean == pytest.approx(0.41)
    summary = histogram.summary()
    assert summary["min"] == 0.02
    assert summary["max"] == 0.8
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["requests"] == 3
    assert "latency" in snapshot["histograms"]
    assert "requests 3" in metrics.render()


def test_histogram_bucket_assignment():
    histogram = Histogram("h", buckets=(0.1, 1.0))
    histogram.observe(0.05)  # first bucket
    histogram.observe(0.5)  # second bucket
    histogram.observe(5.0)  # overflow bucket
    assert histogram._counts == [1, 1, 1]
    assert histogram.total == pytest.approx(5.55)


def test_empty_histogram_summary():
    histogram = Histogram("empty")
    summary = histogram.summary()
    assert summary["count"] == 0
    assert summary["mean"] == 0.0
    assert summary["min"] == 0.0


def test_counter_thread_safety():
    metrics = MetricsRegistry()

    def worker():
        for _ in range(1000):
            metrics.increment("n")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert metrics.counter("n").value == 4000


def test_cache_stats_hit_rate_empty():
    metrics = MetricsRegistry()
    assert metrics.cache_stats("nothing").hit_rate == 0.0


# -- fingerprints --------------------------------------------------------------
def make_relation(name="r", values=(1.0, 2.0)):
    return Relation(
        name,
        {"zone": ["a", "b"], "x": list(values)},
        Schema.from_spec({"zone": KEY, "x": NUMERIC}),
    )


def test_stable_hash_is_deterministic():
    assert stable_hash("dataset_7") == stable_hash("dataset_7")
    assert stable_hash("dataset_7") != stable_hash("dataset_8")


def test_relation_fingerprint_sensitive_to_content():
    base = relation_fingerprint(make_relation())
    assert base == relation_fingerprint(make_relation())
    assert base != relation_fingerprint(make_relation(values=(1.0, 2.5)))
    assert base != relation_fingerprint(make_relation(name="other"))


def test_element_fingerprint_sensitive_to_statistics():
    left = CovarianceElement.from_row(("x", "y"), (1.0, 2.0))
    same = CovarianceElement.from_row(("x", "y"), (1.0, 2.0))
    other = CovarianceElement.from_row(("x", "y"), (1.0, 3.0))
    assert element_fingerprint(left) == element_fingerprint(same)
    assert element_fingerprint(left) != element_fingerprint(other)


# -- CachingProxy --------------------------------------------------------------
class CountingProxy:
    def __init__(self):
        self.inner = SketchProxyModel()
        self.calls = 0

    def evaluate(self, train_element, test_element, target):
        self.calls += 1
        return self.inner.evaluate(train_element, test_element, target)

    def evaluate_many(self, pairs, target):
        self.calls += len(pairs)
        return self.inner.evaluate_many(pairs, target)


def test_caching_proxy_memoises_identical_elements():
    import numpy as np

    rows = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 5.0], [4.0, 6.5]])
    element = CovarianceElement.from_matrix(("x", "y"), rows)
    counting = CountingProxy()
    proxy = CachingProxy(counting)
    first = proxy.evaluate(element, element, "y")
    second = proxy.evaluate(element, element, "y")
    assert counting.calls == 1
    assert first is second
    assert proxy.cache.stats.hits == 1
    # A different element is a different key.
    other = CovarianceElement.from_matrix(("x", "y"), rows * 2.0)
    proxy.evaluate(other, other, "y")
    assert counting.calls == 2


def test_caching_proxy_batch_looks_up_like_one_pair_at_a_time():
    """One lookup per pair, repeats inside a batch included, and the same
    hit/miss totals and scores as calling ``evaluate`` pair by pair."""
    import numpy as np

    rows = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 5.0], [4.0, 6.5]])
    first = CovarianceElement.from_matrix(("x", "y"), rows)
    second = CovarianceElement.from_matrix(("x", "y"), rows * 2.0)
    unscorable = CovarianceElement.from_matrix(("z", "y"), rows)
    pairs = [
        (first, first),
        (second, first),
        (first, first),
        (unscorable, first),
        (unscorable, first),
        (second, first),
    ]
    one_by_one = CachingProxy(SketchProxyModel())
    expected = []
    for train, test in pairs:
        try:
            expected.append(one_by_one.evaluate(train, test, "y"))
        except SketchError:
            expected.append(None)
    counting = CountingProxy()
    batched = CachingProxy(counting)
    scores = batched.evaluate_many(pairs, "y")
    assert scores == expected
    assert scores[0] is scores[2] and scores[3] is None
    assert counting.calls == 3
    assert batched.cache.stats.hits == one_by_one.cache.stats.hits == 2
    assert batched.cache.stats.misses == one_by_one.cache.stats.misses == 4
    assert batched.evaluate_many(pairs[:2], "y") == expected[:2]
    assert counting.calls == 3


def test_caching_proxy_keys_entries_by_one_content_digest():
    import numpy as np

    rows = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 5.0], [4.0, 6.5]])
    train = CovarianceElement.from_matrix(("x", "y"), rows)
    test = CovarianceElement.from_matrix(("x", "y"), rows[:3])
    counting = CountingProxy()
    proxy = CachingProxy(counting)
    proxy.evaluate(train, test, "y")
    # Equal content in fresh objects hits.
    proxy.evaluate(
        CovarianceElement.from_matrix(("x", "y"), rows),
        CovarianceElement.from_matrix(("x", "y"), rows[:3]),
        "y",
    )
    assert counting.calls == 1
    # Different content (train and test swapped) or a different target misses.
    proxy.evaluate(test, train, "y")
    proxy.evaluate(train, test, "x")
    assert counting.calls == 3
    keys = list(proxy.cache._entries)
    assert len(keys) == 3
    assert all(isinstance(key, bytes) and len(key) == 16 for key in keys)

