"""A small thread-safe metrics registry for the serving layer.

Counters, gauges, latency histograms, and cache hit rates, threaded through
the gateway, its execution backends, the sharded stores, and the result
cache.  The registry is
deliberately dependency-free (no prometheus client in this environment);
``snapshot()`` returns plain dictionaries and ``render()`` a stable text
exposition, so benchmarks and operators can read it directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.trace import current_span

# Upper bucket bounds in seconds, spanning sub-millisecond sketch lookups to
# multi-minute AutoML runs.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (queue depths, in-flight counts)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def adjust(self, delta: float) -> float:
        """Move the gauge by ``delta`` and return the new value."""
        with self._lock:
            self._value += delta
            return self._value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket latency histogram with count/sum/min/max and
    bucket-interpolated percentile estimates (p50/p95/p99).

    With exemplars *armed* (:meth:`enable_exemplars`, or registry-wide via
    :meth:`MetricsRegistry.arm_exemplars`), every observation made inside
    an active trace also records ``(trace_id, value, wall-clock time)``
    against the bucket it landed in — the OpenMetrics exposition attaches
    these so a slow bucket links straight to a retained trace in the
    :class:`~repro.obs.buffer.TraceBuffer`.  Disarmed (the default), the
    cost is a single attribute check on the hot path.
    """

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._exemplars: list[tuple[str, float, float] | None] | None = None
        self._lock = threading.Lock()

    def enable_exemplars(self) -> None:
        """Arm per-bucket trace-exemplar capture (idempotent)."""
        with self._lock:
            if self._exemplars is None:
                self._exemplars = [None] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.buckets)
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    index = position
                    break
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if self._exemplars is not None:
                active = current_span()
                if active is not None:
                    self._exemplars[index] = (
                        active.trace.trace_id,
                        value,
                        time.time(),
                    )

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, quantile: float) -> float:
        """A bucket-interpolated quantile estimate (0 < quantile <= 1).

        Exact observations are not kept, so the estimate interpolates
        linearly within the bucket holding the target rank — between the
        previous bucket bound (0.0 for the first) and the bucket's own
        bound; the overflow bucket interpolates up to the observed max.
        The result is clamped to the observed [min, max], which also makes
        single-observation histograms exact.  Returns 0.0 when empty.
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be within (0, 1]")
        with self._lock:
            counts = list(self._counts)
            count = self._count
            minimum = self._min
            maximum = self._max
        return self._interpolate(quantile, counts, count, minimum, maximum)

    def _interpolate(
        self,
        quantile: float,
        counts: list[int],
        count: int,
        minimum: float,
        maximum: float,
    ) -> float:
        if count == 0:
            return 0.0
        target = quantile * count
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.buckets):
            bucket = counts[index]
            if bucket and cumulative + bucket >= target:
                fraction = (target - cumulative) / bucket
                value = lower + fraction * (bound - lower)
                return min(max(value, minimum), maximum)
            cumulative += bucket
            lower = bound
        # Overflow bucket: the only upper edge we have is the observed max.
        bucket = counts[-1]
        if bucket:
            fraction = min(max((target - cumulative) / bucket, 0.0), 1.0)
            value = lower + fraction * (maximum - lower)
            return min(max(value, minimum), maximum)
        return maximum

    def summary(self) -> dict[str, float]:
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            minimum = self._min if self._count else 0.0
            maximum = self._max
        return self._summarise(counts, count, total, minimum, maximum)

    def _summarise(
        self,
        counts: list[int],
        count: int,
        total: float,
        minimum: float,
        maximum: float,
    ) -> dict[str, float]:
        summary = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": minimum,
            "max": maximum,
        }
        for label, quantile in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            summary[label] = self._interpolate(quantile, counts, count, minimum, maximum)
        return summary

    def state(self) -> dict[str, object]:
        """The summary plus the raw bucket layout, captured under one lock.

        The exposition layer needs the per-bucket counts (cumulative
        buckets) — the percentile summary alone cannot reconstruct them.
        Keys on top of :meth:`summary`: ``buckets`` (the upper bounds),
        ``bucket_counts`` (per-bucket observation counts, overflow last —
        same length as ``buckets`` plus one), and ``exemplars`` (per-bucket
        ``(trace_id, value, timestamp)`` or ``None``; absent entirely when
        exemplars are disarmed).
        """
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            minimum = self._min if self._count else 0.0
            maximum = self._max
            exemplars = list(self._exemplars) if self._exemplars is not None else None
        state = self._summarise(counts, count, total, minimum, maximum)
        state["buckets"] = list(self.buckets)
        state["bucket_counts"] = counts
        if exemplars is not None:
            state["exemplars"] = exemplars
        return state


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction totals for one cache."""

    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        requests = self.hits + self.misses
        return self.hits / requests if requests else 0.0


class MetricsRegistry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        self._exemplars_armed = False
        self._lock = threading.Lock()

    def arm_exemplars(self) -> None:
        """Enable trace-exemplar capture on every current and future histogram."""
        with self._lock:
            self._exemplars_armed = True
            histograms = list(self._histograms.values())
        for histogram in histograms:
            histogram.enable_exemplars()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                created = Histogram(name, buckets)
                if self._exemplars_armed:
                    created.enable_exemplars()
                self._histograms[name] = created
            return self._histograms[name]

    def increment(self, name: str, amount: int = 1) -> None:
        """Shorthand: bump a counter by name."""
        self.counter(name).increment(amount)

    def observe(self, name: str, value: float) -> None:
        """Shorthand: record one histogram observation by name."""
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Shorthand: set a gauge by name."""
        self.gauge(name).set(value)

    def adjust_gauge(self, name: str, delta: float) -> float:
        """Shorthand: move a gauge by ``delta`` (returns the new value)."""
        return self.gauge(name).adjust(delta)

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` without creating it (0 if absent)."""
        with self._lock:
            counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def cache_stats(self, prefix: str) -> CacheStats:
        """Hit/miss/eviction stats for a cache that reports under ``prefix``.

        A pure read: querying an unknown prefix returns all-zero stats
        without materialising ``hits``/``misses``/``evictions`` counters
        in the registry (it used to create them permanently, polluting
        ``snapshot()`` and ``render()`` with never-incremented entries).
        """
        return CacheStats(
            hits=self.counter_value(f"{prefix}.hits"),
            misses=self.counter_value(f"{prefix}.misses"),
            evictions=self.counter_value(f"{prefix}.evictions"),
        )

    def snapshot(self) -> dict[str, object]:
        """All current values as plain data.

        Histogram entries carry the full :meth:`Histogram.state` — the
        percentile summary plus ``buckets`` / ``bucket_counts`` (and
        ``exemplars`` when armed) — so the OpenMetrics exposition reads raw
        buckets from the same consistent capture as the summary.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "counters": {name: counter.value for name, counter in counters.items()},
            "gauges": {name: gauge.value for name, gauge in gauges.items()},
            "histograms": {name: histogram.state() for name, histogram in histograms.items()},
        }

    def render(self) -> str:
        """A stable text exposition (one metric per line, sorted by name)."""
        snapshot = self.snapshot()
        lines = [
            f"{name} {value}" for name, value in sorted(snapshot["counters"].items())
        ]
        for name, value in sorted(snapshot["gauges"].items()):
            lines.append(f"{name} {value:g}")
        for name, summary in sorted(snapshot["histograms"].items()):
            lines.append(
                f"{name} count={summary['count']} mean={summary['mean']:.6f} "
                f"min={summary['min']:.6f} p50={summary['p50']:.6f} "
                f"p95={summary['p95']:.6f} p99={summary['p99']:.6f} "
                f"max={summary['max']:.6f}"
            )
        return "\n".join(lines)
