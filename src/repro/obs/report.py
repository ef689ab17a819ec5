"""The operator surface: ``Gateway.stats()`` and ``ops_report()`` rendering.

Pulls one coherent picture out of the serving stack — the metrics
snapshot, per-layer cache hit rates, backend queue depths, trace
retention counters, and the N slowest recent traces rendered as span
trees — without importing any serving module (the gateway is duck-typed),
so ``repro.obs`` stays dependency-free and cycle-free.

``docs/OBSERVABILITY.md`` walks through reading a report line by line.
"""

from __future__ import annotations

#: The cache layers a gateway can expose, in report order.  Reading stats
#: for a layer that never emitted is free and non-creating
#: (``MetricsRegistry.cache_stats`` does not materialise counters).
CACHE_LAYERS = ("gateway_cache", "proxy_cache")


def gateway_stats(gateway) -> dict:
    """A structured snapshot of one gateway's health, as plain data.

    Keys: ``backend`` (name + its gauges), ``pending``, ``metrics`` (the
    full registry snapshot), ``caches`` (hit/miss/eviction + hit rate per
    layer that has seen traffic), and ``traces`` (retention counters plus
    the buffer's fill level).
    """
    metrics = gateway.metrics
    snapshot = metrics.snapshot()
    backend_name = getattr(gateway.backend, "name", "unknown")
    prefix = f"gateway.backend.{backend_name}."
    backend_gauges = {
        name[len(prefix):]: value
        for name, value in snapshot["gauges"].items()
        if name.startswith(prefix)
    }
    caches = {}
    for layer in CACHE_LAYERS:
        stats = metrics.cache_stats(layer)
        if stats.hits or stats.misses or stats.evictions:
            caches[layer] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
            }
    tracer = getattr(gateway, "tracer", None)
    traces = {}
    if tracer is not None:
        counters = snapshot["counters"]
        traces = {
            "finished": counters.get("trace.finished", 0),
            "recorded": counters.get("trace.recorded", 0),
            "slow": counters.get("trace.slow", 0),
            "buffered": len(tracer.buffer),
            "buffer_capacity": tracer.buffer.capacity,
            "sample_rate": tracer.sample_rate,
            "slow_threshold_seconds": tracer.slow_threshold_seconds,
        }
    return {
        "backend": {"name": backend_name, **backend_gauges},
        "pending": gateway.pending,
        "metrics": snapshot,
        "caches": caches,
        "traces": traces,
    }


def render_trace(trace, indent: str = "  ") -> str:
    """One retained trace as an indented span tree.

    Records arrive flat (and, with executor threads and replica stitching
    involved, not necessarily parent-before-child); the tree is rebuilt
    from parent-id links, siblings ordered by wall-clock start.  A record
    whose parent is missing from the trace is promoted to the root level
    rather than dropped — a half-shipped replica trace still renders.
    """
    records = list(trace.records)
    known = {record.span_id for record in records}
    children: dict[str | None, list] = {}
    for record in records:
        parent = record.parent_id if record.parent_id in known else None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda record: record.start)
    lines = [
        f"trace {trace.trace_id}  {trace.duration * 1000.0:.1f}ms  "
        f"{'slow ' if trace.slow else ''}"
        f"{'sampled' if trace.sampled else 'unsampled'}"
    ]

    def walk(parent_id: str | None, depth: int) -> None:
        for record in children.get(parent_id, ()):
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(record.attrs.items())
            )
            lines.append(
                f"{indent * depth}{record.name}  "
                f"{record.duration * 1000.0:.1f}ms"
                + (f"  [{attrs}]" if attrs else "")
            )
            walk(record.span_id, depth + 1)

    walk(None, 1)
    return "\n".join(lines)


def _histogram_line(name: str, summary: dict) -> str:
    return (
        f"  {name}: count={summary['count']} mean={summary['mean'] * 1000.0:.1f}ms "
        f"p50={summary['p50'] * 1000.0:.1f}ms p95={summary['p95'] * 1000.0:.1f}ms "
        f"p99={summary['p99'] * 1000.0:.1f}ms max={summary['max'] * 1000.0:.1f}ms"
    )


def ops_report(gateway, slowest: int = 3) -> str:
    """An operator-readable text report of the whole serving stack.

    Sections: request counters, latency histograms (with the
    bucket-interpolated percentiles), per-layer cache hit rates, backend
    queue depths, persistence activity, trace retention, and the span
    trees of the ``slowest`` recent traces.
    """
    stats = gateway_stats(gateway)
    counters = stats["metrics"]["counters"]
    histograms = stats["metrics"]["histograms"]
    lines = ["== gateway ops report =="]
    backend = stats["backend"]
    lines.append(f"backend: {backend['name']}  pending: {stats['pending']}")

    lines.append("-- requests --")
    request_keys = (
        "gateway.requests",
        "gateway.ok",
        "gateway.failed",
        "gateway.rejected",
        "gateway.expired",
        "gateway.coalesced",
        "gateway.stale_results",
    )
    lines.append(
        "  "
        + "  ".join(
            f"{key.split('.', 1)[1]}={counters.get(key, 0)}" for key in request_keys
        )
    )
    for name in ("gateway.queue_wait_seconds", "gateway.service_seconds"):
        if name in histograms:
            lines.append(_histogram_line(name, histograms[name]))

    if stats["caches"]:
        lines.append("-- caches --")
        for layer, cache in stats["caches"].items():
            lines.append(
                f"  {layer}: hits={cache['hits']} misses={cache['misses']} "
                f"evictions={cache['evictions']} "
                f"hit_rate={cache['hit_rate'] * 100.0:.1f}%"
            )

    gauges = {key: value for key, value in backend.items() if key != "name"}
    if gauges:
        lines.append("-- backend --")
        lines.append(
            "  " + "  ".join(f"{key}={value:g}" for key, value in sorted(gauges.items()))
        )

    persist = {
        name.split(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("persist.")
    }
    if persist:
        lines.append("-- persist --")
        lines.append(
            "  " + "  ".join(f"{key}={value}" for key, value in sorted(persist.items()))
        )

    traces = stats["traces"]
    if traces:
        lines.append("-- traces --")
        lines.append(
            f"  finished={traces['finished']} recorded={traces['recorded']} "
            f"slow={traces['slow']} buffered={traces['buffered']}/"
            f"{traces['buffer_capacity']} sample_rate={traces['sample_rate']:g} "
            f"slow_threshold={traces['slow_threshold_seconds']:g}s"
        )
        tracer = gateway.tracer
        for trace in tracer.buffer.slowest(slowest):
            lines.append(render_trace(trace))
    return "\n".join(lines)
