"""Chaos: the ops surface stays consistent while faults fire under scrape load.

The ops server's contract under failure is the same as the gateway's:
scrapes keep answering parseable OpenMetrics with monotone counters, and
``/health`` reports the degradation instead of joining it.  Runs under
the CI chaos matrix (``CHAOS_SEED`` ∈ {7, 11, 23}) — the fault positions
shift per seed while every assertion stays exact.
"""

import json
import threading
from urllib.error import HTTPError
from urllib.request import urlopen

from chaos_helpers import fresh_platform, result_identity

from repro.faults import FaultPlan, armed
from repro.obs import parse_openmetrics
from repro.serving import Gateway, GatewayConfig


def fetch(url: str) -> tuple[int, str]:
    try:
        with urlopen(url, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except HTTPError as error:
        return error.code, error.read().decode("utf-8")


def test_scrapes_stay_consistent_through_transient_faults(
    corpus, request_for, chaos_seed
):
    """A scraper hammers /metrics and /health while injected transient
    compute faults force retries: the request still answers bit-identical
    to the no-fault baseline, every scrape parses, the request counter
    never regresses, and no handler errors fire."""
    expected = result_identity(fresh_platform(corpus).search(request_for))
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=2,
        retry_backoff_seconds=0.01,
        retry_jitter_seed=chaos_seed,
        ops_port=0,
        trace_sample_rate=1.0,
    )
    plan = FaultPlan(seed=chaos_seed).raise_("gateway.compute", on_hit=1)

    with Gateway(platform, config) as gateway:
        base = gateway.ops_server.url
        stop = threading.Event()
        errors: list[Exception] = []
        totals: list[float] = []

        def scraper() -> None:
            try:
                while not stop.is_set():
                    status, body = fetch(f"{base}/metrics")
                    assert status == 200
                    families = parse_openmetrics(body)
                    totals.append(
                        families["gateway_requests"]["samples"][
                            ("gateway_requests_total", ())
                        ]
                    )
                    health_status, health_body = fetch(f"{base}/health")
                    assert health_status in (200, 503)
                    json.loads(health_body)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        with armed(plan):
            response = gateway.run_many([request_for])[0]
        stop.set()
        thread.join(timeout=10.0)

        assert response.ok, response.error
        assert result_identity(response.result) == expected
        assert gateway.metrics.counter_value("gateway.retries") >= 1
        assert errors == []
        assert totals == sorted(totals), "request counter regressed mid-fault"
        assert gateway.metrics.counter_value("ops.http.errors") == 0

        # After the fault clears, the exposition is still coherent and the
        # retry telemetry shows up in it.
        status, body = fetch(f"{base}/metrics")
        assert status == 200
        families = parse_openmetrics(body)
        assert families["gateway_retries"]["samples"][
            ("gateway_retries_total", ())
        ] >= 1


def test_health_pages_while_breaker_holds_open(corpus, request_for, chaos_seed):
    """Sustained injected failures trip the dispatch breaker: /health
    reports 503 with the open breaker as evidence while the exposition
    keeps parsing, then recovery clears it."""
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=1,
        retry_max_attempts=1,
        breaker_failure_threshold=2,
        breaker_recovery_seconds=30.0,
        cache_results=False,
        cache_proxy_scores=False,
        ops_port=0,
    )
    plan = FaultPlan(seed=chaos_seed).raise_("gateway.compute", on_hit=None)
    with Gateway(platform, config) as gateway:
        base = gateway.ops_server.url
        assert fetch(f"{base}/health")[0] == 200
        with armed(plan):
            responses = gateway.run_many([request_for] * 4)
        assert not any(response.ok and not response.degraded for response in responses)
        assert gateway.metrics.counter_value("gateway.breaker.open_total") >= 1

        status, body = fetch(f"{base}/health")
        assert status == 503
        payload = json.loads(body)
        assert payload["breaker_open"]

        status, body = fetch(f"{base}/metrics")
        assert status == 200
        families = parse_openmetrics(body)
        assert families["gateway_breaker_state"]["samples"][
            ("gateway_breaker_state", ())
        ] == 2
