"""The gateway's configuration surface is pinned: it may only shrink on purpose.

Like ``test_removed_async_backend_fails_loudly``, removed knobs must fail
loudly (``TypeError``), never be silently accepted, and must not linger
in the source or the docs.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import Mileena
from repro.serving import GatewayConfig

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


def test_removed_names_are_gone_from_source_and_docs():
    pattern = re.compile(r"\b(" + "|".join(REMOVED_FIELDS) + r")\b")
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    paths += sorted((ROOT / "src").rglob("*.py"))
    stale = [
        f"{path.relative_to(ROOT)}:{number}: {match.group(0)}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in pattern.finditer(line)
    ]
    assert stale == []
