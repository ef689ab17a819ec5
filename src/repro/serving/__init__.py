"""Mileena serving layer: concurrent gateway, sharded stores, cache, metrics.

The serving stack, outside in: a :class:`Gateway` (admission control,
deadlines, result cache, request coalescing) dispatches onto a pluggable
execution backend (``thread``/``process``), which drives a
platform whose corpus is a :class:`ShardedSketchStore` +
:class:`ShardedDiscoveryIndex`.  ``docs/ARCHITECTURE.md`` draws the full
picture; ``docs/TUNING.md`` covers knob selection.  The knobs reachable
from this layer, with defaults.  Each has one home: ``backend``,
``cache_capacity`` and the ``snapshot_*`` knobs are :class:`GatewayConfig`
fields (``Mileena.attach_snapshots`` also takes a directory and cadence),
and ``num_shards`` is the only parameter of ``Mileena.sharded``:

=====================  ==================  =======================================
knob                   default             trade-off
=====================  ==================  =======================================
``backend``            ``"thread"``        ``process`` buys multi-core compute at
                                           ~1s boot + pickling overhead
``cache_capacity``     ``256`` (gateway)   bigger = more memoised results, more
                                           memory; entries are epoch-scoped so
                                           churn evicts naturally
``num_shards``         ``4``               no parallelism and no memory split (one
                                           lock, one process); flat is faster
``snapshot_dir``       ``None``            durable state: snapshot + mutation WAL
                                           under this directory; restart is
                                           ``Mileena.load(dir)`` instead of a
                                           rebuild
``snapshot_every_-     ``64``              re-snapshot cadence; bounds the WAL
mutations``                                and the process backend's envelope
                                           mutation logs
=====================  ==================  =======================================

Lazy imports keep ``import repro.serving`` free of the core-platform import
chain (and of circular imports: ``repro.core.platform`` uses the
fingerprint helpers from this package).
"""

_EXPORTS = {
    "Gateway": ("repro.serving.gateway", "Gateway"),
    "GatewayConfig": ("repro.serving.gateway", "GatewayConfig"),
    "GatewayResponse": ("repro.serving.gateway", "GatewayResponse"),
    "ComputeOutcome": ("repro.serving.gateway", "ComputeOutcome"),
    "ExecutionBackend": ("repro.serving.backends", "ExecutionBackend"),
    "ThreadBackend": ("repro.serving.backends", "ThreadBackend"),
    "ProcessPoolBackend": ("repro.serving.backends", "ProcessPoolBackend"),
    "BACKENDS": ("repro.serving.backends", "BACKENDS"),
    "resolve_backend": ("repro.serving.backends", "resolve_backend"),
    "RetryPolicy": ("repro.serving.resilience", "RetryPolicy"),
    "CircuitBreaker": ("repro.serving.resilience", "CircuitBreaker"),
    "ResilientDispatch": ("repro.serving.resilience", "ResilientDispatch"),
    "ResultCache": ("repro.serving.cache", "ResultCache"),
    "SingleFlight": ("repro.serving.cache", "SingleFlight"),
    "CachingProxy": ("repro.serving.cache", "CachingProxy"),
    "MetricsRegistry": ("repro.serving.metrics", "MetricsRegistry"),
    "CacheStats": ("repro.serving.metrics", "CacheStats"),
    "ShardedSketchStore": ("repro.serving.sharded", "ShardedSketchStore"),
    "ShardedDiscoveryIndex": ("repro.serving.sharded", "ShardedDiscoveryIndex"),
    "relation_fingerprint": ("repro.serving.fingerprint", "relation_fingerprint"),
    "request_fingerprint": ("repro.serving.fingerprint", "request_fingerprint"),
    "element_fingerprint": ("repro.serving.fingerprint", "element_fingerprint"),
    "stable_hash": ("repro.serving.fingerprint", "stable_hash"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module_name, attribute = _EXPORTS[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module 'repro.serving' has no attribute {name!r}")
