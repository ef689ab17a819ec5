"""Metric tables and the small statistics the benchmark reports with.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions: ``run.py`` prints exactly these, and
``test_e2e_units.py`` checks that ``BENCHMARK.json`` lists the same ones.
Every workload reports every metric; a layer a workload never enters
reports 0 work and 0 time.
"""

from __future__ import annotations

import statistics

import numpy as np

LOWER = "lower"
HIGHER = "higher"

# (name, unit, better, bound).  ``bound`` is the share of the parent's
# median by which the metric may worsen before a change is a regression.
# The time bounds are the reference box's measured noise floor (README,
# "Steadiness"): over ten seeds the spread is 0.03-0.13 while the shared host
# is quiet and far above any usable bound while it is not, so 0.25 — the
# loosest the benchmark contract allows — is the only honest value here.
END_TO_END = (
    ("setup_s", "s", LOWER, 0.25),
    ("first_ok_s", "s", LOWER, 0.25),
    ("search_p50_ms", "ms", LOWER, 0.25),
    ("search_rps", "1/s", HIGHER, 0.25),
    ("register_p50_ms", "ms", LOWER, 0.25),
    ("register_p90_ms", "ms", LOWER, 0.25),
    ("mutation_rps", "1/s", HIGHER, 0.25),
    ("peak_rss_mb", "MB", LOWER, 0.05),
    ("snapshot_bytes_per_dataset", "B", LOWER, 0.02),
)

# (name, unit, better).  Times are milliseconds per search request unless
# the README says per call; ``*_calls`` / ``*_per_request`` are exact step
# counts of the fixed-size traced pass.
PER_LAYER = (
    ("serving.request_self_ms", "ms", LOWER),
    ("serving.fingerprint_ms", "ms", LOWER),
    ("serving.queue_wait_ms", "ms", LOWER),
    ("serving.cache_hit_share", "share", HIGHER),
    ("serving.coalesced_share", "share", HIGHER),
    ("serving.dispatch_overhead_ms", "ms", LOWER),
    ("serving.pickle_bytes_per_request", "B", LOWER),
    ("serving.worker_start_s", "s", LOWER),
    ("core.search_ms", "ms", LOWER),
    ("core.greedy_share", "share", LOWER),
    ("core.greedy_self_ms", "ms", LOWER),
    ("core.state_element_ms", "ms", LOWER),
    ("core.candidates_per_request", "count", LOWER),
    ("core.augment_evals_per_request", "count", LOWER),
    ("core.proxy_evaluate_ms", "ms", LOWER),
    ("core.proxy_evaluate_calls", "count", LOWER),
    ("core.proxy_cache_hit_share", "share", HIGHER),
    ("core.requester_sketch_ms", "ms", LOWER),
    ("sketches.vertical_augment_ms", "ms", LOWER),
    ("sketches.vertical_augment_calls", "count", LOWER),
    ("sketches.keys_joined_per_request", "count", LOWER),
    ("sketches.store_get_calls", "count", LOWER),
    ("sketches.build_ms", "ms", LOWER),
    ("sketches.pickled_bytes_per_dataset", "B", LOWER),
    ("semiring.mul_calls", "count", LOWER),
    ("semiring.add_calls", "count", LOWER),
    ("semiring.expand_calls", "count", LOWER),
    ("semiring.ops_ms", "ms", LOWER),
    ("semiring.share", "share", LOWER),
    ("discovery.join_ms", "ms", LOWER),
    ("discovery.union_ms", "ms", LOWER),
    ("discovery.share", "share", LOWER),
    ("discovery.profile_ms", "ms", LOWER),
    ("discovery.register_ms", "ms", LOWER),
    ("discovery.unregister_ms", "ms", LOWER),
    ("ml.final_model_ms", "ms", LOWER),
    ("privacy.fpm_ms", "ms", LOWER),
    ("privacy.privatize_calls", "count", LOWER),
    ("privacy.privatize_calls_on_read_path", "count", LOWER),
    ("persist.wal_append_ms", "ms", LOWER),
    ("persist.wal_bytes_per_mutation", "B", LOWER),
    ("persist.snapshot_save_ms", "ms", LOWER),
    ("persist.snapshot_stalls", "count", LOWER),
    ("persist.snapshot_stall_max_ms", "ms", LOWER),
    ("persist.load_ms", "ms", LOWER),
    ("persist.wal_replay_ms", "ms", LOWER),
    ("persist.replay_records", "count", LOWER),
    ("obs.metric_calls_per_request", "count", LOWER),
    ("obs.spans_per_request", "count", LOWER),
    ("bench.trace_overhead_share", "share", LOWER),
    ("bench.trace_coverage_share", "share", HIGHER),
    ("bench.generator_lag_ms", "ms", LOWER),
)

# Step counts that must repeat exactly between two runs of one seed.  Not
# among them: the program's metric-call count, which depends on its unseeded
# trace sampler and on whether a request crossed the slow-trace threshold.
EXACT = frozenset(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "B")
    or name in ("serving.cache_hit_share", "core.proxy_cache_hit_share")
) - {"obs.metric_calls_per_request"}

# Percentiles worth reporting, highest first, in per mille (exact arithmetic).
_PER_MILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, linearly interpolated."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


def quiet_quartile(values, better: str = LOWER) -> float:
    """The quartile on the quiet side: lower for times, upper for rates.

    The reference box is a small VM on a shared host whose noise is
    one-sided: for bursts of ~5 s everything runs 20-35 % slower, and the
    share of a run that is hit changes from minute to minute.  A median
    over repeated measurements moves with that share; the quartile on the
    fast side does not until three quarters of them are hit, and — unlike
    a minimum — it ignores a lucky fastest sample.
    """
    values = list(values)
    if len(values) == 1:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] if better == HIGHER else quartiles[0]


def _slices(values, per_slice: int, slices: int) -> list[list]:
    """Up to ``slices`` consecutive parts of at least ``per_slice`` values."""
    values = list(values)
    count = max(1, min(slices, len(values) // per_slice))
    size = len(values) / count
    return [values[round(i * size) : round((i + 1) * size)] for i in range(count)]


def steady_percentile(values, q: float, per_slice: int = 4, slices: int = 10) -> float:
    """Quiet quartile, over consecutive slices, of each slice's percentile."""
    return quiet_quartile(percentile(part, q) for part in _slices(values, per_slice, slices))


def steady_rates(latencies_ms, clients: int, per_slice: int = 4, slices: int = 10):
    """Closed-loop completion rate of each consecutive slice of one client.

    A client that is never idle completes ``k`` requests in the sum of their
    latencies; with ``clients`` of them busy side by side the gateway
    completes ``clients`` times that.
    """
    return [
        clients * len(part) / (sum(part) / 1000.0)
        for part in _slices(latencies_ms, per_slice, slices)
    ]


def highest_supported_percentile(count: int) -> float | None:
    """The highest reportable percentile: at least ten samples lie beyond it.

    ``None`` when even the median has fewer than ten samples above it — the
    report then prints the median alone and says how few samples it has.
    """
    for per_mille in _PER_MILLE:
        if count * (1000 - per_mille) >= MIN_BEYOND * 1000:
            return per_mille / 10.0
    return None


def windowed_rates(windows, group: int = 1) -> list[float]:
    """Rates of consecutive groups of ``(count, seconds)`` windows.

    Whole groups only, so that a cost that recurs every ``group`` windows
    (a snapshot stall every fourth churn cycle) is in every rate.
    """
    windows = list(windows)
    group = min(group, len(windows))
    rates = []
    for start in range(0, len(windows) - group + 1, group):
        part = windows[start : start + group]
        rates.append(sum(count for count, _ in part) / sum(seconds for _, seconds in part))
    return rates
