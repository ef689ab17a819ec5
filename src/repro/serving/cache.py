"""Epoch-aware LRU caching for the serving layer.

:class:`ResultCache` memoises expensive per-request artefacts — discovery
candidate lists and full search results — keyed on the requester relation
fingerprint plus the corpus epoch.  The epoch (maintained by
:class:`repro.core.catalog.Corpus`) increments on every register/unregister,
so entries computed against an older corpus can never be returned; they age
out of the LRU naturally.

:class:`CachingProxy` wraps a :class:`repro.core.proxy.SketchProxyModel`
and memoises proxy-score evaluations by the fingerprints of the train/test
covariance elements, one lookup per pair whether the search scores a
round in one ``evaluate_many`` call or a single pair with ``evaluate``.
During the greedy search the same (state, candidate) pairs are
re-evaluated across requests that share a requester relation; memoisation
turns those repeats into dictionary lookups.

:class:`SingleFlight` is the in-flight companion to the cache: keyed leader
election so that concurrent identical requests are *coalesced* — the first
arrival computes, the rest block on its future, so every execution backend
shares one coalescing table.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Hashable

from repro.serving.fingerprint import element_fingerprint
from repro.serving.metrics import MetricsRegistry

_MISSING = object()


class ResultCache:
    """A thread-safe LRU cache with hit/miss/eviction metrics.

    Callers scope their keys to the corpus epoch themselves (see
    ``Mileena.discover_candidates`` and the gateway's request key), so
    entries computed against an older corpus are never returned; they age
    out of the LRU naturally.
    """

    def __init__(
        self,
        capacity: int = 256,
        metrics: MetricsRegistry | None = None,
        name: str = "result_cache",
    ) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: object = None) -> object:
        """The cached value for ``key`` (recording a hit or miss)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.metrics.increment(f"{self.name}.misses")
                return default
            self._entries.move_to_end(key)
            self.metrics.increment(f"{self.name}.hits")
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.metrics.increment(f"{self.name}.evictions")

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        """The cached value for ``key``, computing and caching it on a miss.

        ``compute`` runs outside the lock; concurrent misses on the same key
        may compute twice (both arrive at the same value — computations are
        deterministic), which is preferable to serialising every requester
        behind one in-flight computation.
        """
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    @property
    def stats(self):
        """Hit/miss/eviction totals recorded so far."""
        return self.metrics.cache_stats(self.name)


class SingleFlight:
    """Keyed leader election for request coalescing.

    ``begin(key)`` returns ``(future, leading)``: the first caller for a key
    becomes the leader (``leading=True``) and must eventually call
    ``finish`` or ``fail`` with the same future; every other caller gets the
    leader's future to wait on.  The future is a
    :class:`concurrent.futures.Future`; followers block on
    ``result(timeout)`` — one table serves every execution backend.
    """

    def __init__(self) -> None:
        self._flights: dict[Hashable, Future] = {}
        self._lock = threading.Lock()

    def begin(self, key: Hashable) -> tuple[Future, bool]:
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = Future()
            self._flights[key] = flight
            return flight, True

    def finish(self, key: Hashable, flight: Future, result: object) -> None:
        """Leader hand-off: publish the result and retire the flight.

        Tolerates a flight some waiter managed to cancel: the leader's own
        response is already in hand and must not be destroyed by a
        follower's deadline.
        """
        with self._lock:
            self._flights.pop(key, None)
        if not flight.cancelled():
            flight.set_result(result)

    def fail(self, key: Hashable, flight: Future, error: BaseException) -> None:
        """Leader hand-off on error: propagate to followers, retire the flight."""
        with self._lock:
            self._flights.pop(key, None)
        if not flight.cancelled():
            flight.set_exception(error)

    def __len__(self) -> int:
        return len(self._flights)


class CachingProxy:
    """Memoises proxy scores by covariance-element content.

    Drop-in for the proxy protocol used by the greedy search:
    ``evaluate_many(pairs, target) -> list[ProxyScore | None]`` over
    ``(train_element, test_element)`` pairs, and ``evaluate(train_element,
    test_element, target) -> ProxyScore`` for one pair.  Both look each pair
    up once; ``evaluate_many`` hands all of its misses to the inner proxy in
    one call.  A pair that cannot be scored is not cached.
    """

    def __init__(
        self,
        inner,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        capacity: int = 4096,
    ) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else ResultCache(
            capacity=capacity, metrics=metrics, name="proxy_cache"
        )

    def evaluate(self, train_element, test_element, target: str):
        return self.cache.get_or_compute(
            _proxy_key(train_element, test_element, target),
            lambda: self.inner.evaluate(train_element, test_element, target),
        )

    def evaluate_many(self, pairs, target: str) -> list:
        keys = [_proxy_key(train, test, target) for train, test in pairs]
        results: list = [None] * len(pairs)
        missed: dict[bytes, int] = {}
        repeats: list[int] = []
        for index, key in enumerate(keys):
            if key in missed:
                # Looked up after the batch is stored, where a one-by-one
                # lookup would have found the first copy's entry.
                repeats.append(index)
                continue
            value = self.cache.get(key, _MISSING)
            if value is _MISSING:
                missed[key] = index
            else:
                results[index] = value
        scores = self.inner.evaluate_many([pairs[index] for index in missed.values()], target)
        for index, score in zip(missed.values(), scores):
            results[index] = score
            if score is not None:
                self.cache.put(keys[index], score)
        for index in repeats:
            results[index] = self.cache.get(keys[index], results[missed[keys[index]]])
        return results


def _proxy_key(train_element, test_element, target: str) -> bytes:
    # One 16-byte digest per entry: the cache fills to capacity on
    # workloads that rarely repeat, so the key's size is its footprint.
    fingerprints = element_fingerprint(train_element) + element_fingerprint(test_element)
    return hashlib.blake2b((fingerprints + target).encode("utf-8"), digest_size=16).digest()
