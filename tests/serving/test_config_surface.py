"""The serving configuration surface is pinned: it may only shrink on purpose.

Each serving choice has one home: ``GatewayConfig`` for the gateway,
``Mileena`` fields for the platform, ``Mileena.sharded(num_shards)`` for
the shard count, and the index constructor for discovery knobs.

Like ``test_removed_async_backend_fails_loudly``, removed knobs must fail
loudly (``TypeError``), never be silently accepted, and must not linger
in the source or the docs.
"""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import Mileena
from repro.discovery import DiscoveryIndex
from repro.serving import GatewayConfig, ResultCache, ShardedDiscoveryIndex

ROOT = Path(__file__).resolve().parents[2]

# A new field needs a non-test caller that sets a non-default value.
GATEWAY_FIELDS = [
    "backend",
    "breaker_failure_threshold",
    "breaker_recovery_seconds",
    "cache_capacity",
    "cache_proxy_scores",
    "cache_results",
    "max_pending",
    "max_workers",
    "ops_host",
    "ops_port",
    "process_workers",
    "retry_backoff_seconds",
    "retry_jitter_seed",
    "retry_max_attempts",
    "run_automl",
    "slow_trace_seconds",
    "snapshot_dir",
    "snapshot_every_mutations",
    "trace_sample_rate",
    "wal_fsync",
]

REMOVED_FIELDS = [
    "default_time_budget_seconds",
    "degrade_pressure_seconds",
    "degraded_fallback",
    "degraded_top_k",
    "hedge_after_seconds",
    "metrics_history_capacity",
    "ops_exemplars",
    "process_start_method",
    "redispatch_attempts",
    "retry_jitter",
    "slo_specs",
    "snapshot_every_seconds",
    "trace_buffer_capacity",
    "warm_start",
]

MILEENA_FIELDS = [
    "builder",
    "cache",
    "clock",
    "corpus",
    "discovery_top_k",
    "metrics",
    "proxy",
    "snapshots",
]

SHARDED_INDEX_PARAMS = [
    "num_shards",
    "minhasher",
    "join_threshold",
    "union_threshold",
    "metrics",
    "vectorized",
]

RESULT_CACHE_PARAMS = ["capacity", "metrics", "name"]

# Keywords ``Mileena.sharded`` used to take besides ``num_shards``.
REMOVED_SHARDED_KEYWORDS = [
    "backend",
    "discovery_cache_capacity",
    "multi_probe",
    "snapshot_dir",
    "snapshot_every_mutations",
    "target_recall",
    "use_lsh",
]

# Index constructor keywords of the deleted LSH discovery path.
REMOVED_LSH_KEYWORDS = ["use_lsh", "lsh_bands", "target_recall", "multi_probe"]

# Removed classes, methods and fields that must not linger by name.
REMOVED_NAMES = [
    "CacheView",
    "adaptive_lsh_bands",
    "attach_cache",
    "discovery_cache",
    "discovery_cache_capacity",
    "lsh_bands",
    "lsh_recall",
    "multi_probe",
    "serving_backend",
    "target_recall",
    "use_lsh",
]


def test_gateway_config_fields_are_pinned():
    assert sorted(f.name for f in fields(GatewayConfig)) == GATEWAY_FIELDS


def test_every_field_is_documented():
    doc = GatewayConfig.__doc__
    missing = [name for name in GATEWAY_FIELDS if not re.search(rf"\b{name}\b", doc)]
    assert missing == []


@pytest.mark.parametrize("name", REMOVED_FIELDS)
def test_removed_field_is_rejected(name):
    with pytest.raises(TypeError):
        GatewayConfig(**{name: None})


def test_search_takes_no_discovery_top_k_override():
    with pytest.raises(TypeError, match="discovery_top_k"):
        Mileena().search(None, discovery_top_k=4)


def test_mileena_fields_are_pinned():
    assert sorted(f.name for f in fields(Mileena)) == MILEENA_FIELDS


def test_sharded_takes_only_num_shards():
    parameters = inspect.signature(Mileena.sharded).parameters
    assert [(p.name, p.kind) for p in parameters.values()] == [
        ("num_shards", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("kwargs", inspect.Parameter.VAR_KEYWORD),
    ]


def test_index_and_cache_parameters_are_pinned():
    assert list(inspect.signature(ShardedDiscoveryIndex).parameters) == (
        SHARDED_INDEX_PARAMS
    )
    assert list(inspect.signature(ResultCache).parameters) == RESULT_CACHE_PARAMS


@pytest.mark.parametrize("name", REMOVED_SHARDED_KEYWORDS)
def test_removed_sharded_keyword_is_rejected(name):
    with pytest.raises(TypeError, match=name):
        Mileena.sharded(num_shards=2, **{name: None})


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Mileena(serving_backend="thread"), id="serving_backend"),
        pytest.param(
            lambda: ShardedDiscoveryIndex(cache_capacity=8), id="cache_capacity"
        ),
        pytest.param(
            lambda: ResultCache(version_source=lambda: 0), id="version_source"
        ),
    ],
)
def test_removed_constructor_keyword_is_rejected(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("name", REMOVED_LSH_KEYWORDS)
@pytest.mark.parametrize(
    "index_class",
    [DiscoveryIndex, ShardedDiscoveryIndex],
    ids=["DiscoveryIndex", "ShardedDiscoveryIndex"],
)
def test_removed_lsh_keyword_is_rejected(index_class, name):
    with pytest.raises(TypeError, match=name):
        index_class(**{name: None})


def test_removed_names_are_gone_from_source_and_docs():
    removed = REMOVED_FIELDS + REMOVED_NAMES
    pattern = re.compile(r"\b(" + "|".join(removed) + r")\b")
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    paths += sorted((ROOT / "src").rglob("*.py"))
    stale = [
        f"{path.relative_to(ROOT)}:{number}: {match.group(0)}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in pattern.finditer(line)
    ]
    assert stale == []
