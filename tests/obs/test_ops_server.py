"""Acceptance tests for the HTTP ops server.

The ISSUE-level contract: a gateway started with ``ops_port`` serves a
``/metrics`` exposition the validating parser accepts, ``/health`` flips
200 → 503 when an SLO pages (or the dispatch breaker opens), histogram
exemplars resolve to retained traces through ``/traces/<id>``, and a
scrape storm during a churning workload never perturbs the request path.
"""

import json
import threading
import time
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.core import SearchRequest, WallClock
from repro.obs import parse_openmetrics
from repro.obs.server import OPENMETRICS_CONTENT_TYPE
from repro.relational import KEY, NUMERIC, Relation, Schema
from repro.serving import Gateway, GatewayConfig

_SCHEMA = Schema.from_spec({"k": KEY, "y": NUMERIC})
_TRAIN = Relation("train", {"k": ["a", "b", "c"], "y": [1.0, 2.0, 3.0]}, _SCHEMA)
_TEST = Relation("test", {"k": ["d", "e"], "y": [4.0, 5.0]}, _SCHEMA)


class _StubCorpus:
    epoch = 0


class StubPlatform:
    """Duck-typed platform: instant (or delayed, or failing) searches."""

    def __init__(self, delay: float = 0.0):
        self.clock = WallClock()
        self.metrics = None
        self.cache = None
        self.corpus = _StubCorpus()
        self.delay = delay
        self.fail = False

    def search(self, request, train_final_model=True):
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("injected platform failure")
        return request.max_augmentations


def make_request(**overrides) -> SearchRequest:
    defaults = dict(train=_TRAIN, test=_TEST, target="y", max_augmentations=2)
    defaults.update(overrides)
    return SearchRequest(**defaults)


def ops_config(**overrides) -> GatewayConfig:
    defaults = dict(
        max_workers=2,
        cache_results=False,
        cache_proxy_scores=False,
        ops_port=0,
        trace_sample_rate=1.0,
        slow_trace_seconds=0.0,
        retry_max_attempts=1,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def fetch(url: str) -> tuple[int, str, str]:
    """(status, body, content type); HTTP errors return, not raise."""
    try:
        with urlopen(url, timeout=10.0) as response:
            return (
                response.status,
                response.read().decode("utf-8"),
                response.headers.get("Content-Type", ""),
            )
    except HTTPError as error:
        return error.code, error.read().decode("utf-8"), ""


class TestEndpoints:
    def test_metrics_is_parseable_openmetrics(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            responses = gateway.run_many([make_request() for _ in range(5)])
            assert all(response.ok for response in responses)
            status, body, content_type = fetch(f"{gateway.ops_server.url}/metrics")
        assert status == 200
        assert content_type == OPENMETRICS_CONTENT_TYPE
        families = parse_openmetrics(body)
        assert families["gateway_requests"]["samples"][
            ("gateway_requests_total", ())
        ] == 5
        assert families["gateway_requests"]["help"] != "(no catalog entry)"
        assert "obs_slo_error_ratio_state" in families
        assert families["ops_scrapes"]["type"] == "counter"

    def test_health_ok_while_healthy(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            gateway.run_many([make_request() for _ in range(4)])
            status, body, _ = fetch(f"{gateway.ops_server.url}/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["paging_slos"] == []
        assert payload["breaker_open"] is False

    def test_health_flips_503_when_error_slo_pages(self):
        platform = StubPlatform()
        with Gateway(platform, ops_config()) as gateway:
            base = gateway.ops_server.url
            gateway.run_many([make_request() for _ in range(3)])
            assert fetch(f"{base}/health")[0] == 200

            platform.fail = True
            # A task never answered before: once the breaker opens, no
            # last-known-good result can stand in for the failures.
            failed = gateway.run_many(
                [make_request(max_augmentations=3) for _ in range(12)]
            )
            assert not any(response.ok for response in failed)
            time.sleep(0.02)  # distinct tick timestamp for the new window edge

            status, body, _ = fetch(f"{base}/health")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "unavailable"
            assert "error_ratio" in payload["paging_slos"]
            page_count = gateway.metrics.counter_value("obs.slo.page")
            assert page_count >= 1

    def test_health_503_when_breaker_open(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            gateway.run_many([make_request()])
            gateway.metrics.set_gauge("gateway.breaker.state", 2)
            status, body, _ = fetch(f"{gateway.ops_server.url}/health")
        assert status == 503
        assert json.loads(body)["breaker_open"] is True

    def test_exemplar_resolves_to_retained_trace(self):
        # 60ms searches land in a slow-ish service bucket; sample_rate=1
        # plus slow_trace_seconds=0 retains every trace.
        with Gateway(StubPlatform(delay=0.06), ops_config()) as gateway:
            gateway.run_many([make_request() for _ in range(3)])
            base = gateway.ops_server.url
            _, body, _ = fetch(f"{base}/metrics")
            families = parse_openmetrics(body)
            exemplars = families["gateway_service_seconds"]["exemplars"]
            assert exemplars, "armed ops server must capture service exemplars"
            # Pick the exemplar on the slowest populated bucket.
            (name, labels), (exemplar_labels, value) = max(
                exemplars.items(), key=lambda item: item[1][1]
            )
            assert value >= 0.06
            trace_id = dict(exemplar_labels)["trace_id"]

            status, detail_body, _ = fetch(f"{base}/traces/{trace_id}")
            assert status == 200
            detail = json.loads(detail_body)
            assert detail["trace_id"] == trace_id
            assert detail["records"], "exemplar trace must retain span records"
            assert "request" in detail["rendered"]

    def test_unknown_trace_is_404(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            status, body, _ = fetch(f"{gateway.ops_server.url}/traces/deadbeef")
        assert status == 404
        assert "not retained" in json.loads(body)["error"]

    def test_unknown_path_is_404(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            status, _, _ = fetch(f"{gateway.ops_server.url}/nope")
        assert status == 404

    def test_ops_slo_traces_endpoints(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            gateway.run_many([make_request() for _ in range(2)])
            base = gateway.ops_server.url
            status, report, _ = fetch(f"{base}/ops")
            assert status == 200
            assert "gateway ops report" in report

            status, body, _ = fetch(f"{base}/slo")
            assert status == 200
            states = {slo["name"]: slo["state"] for slo in json.loads(body)["slo"]}
            assert set(states) == {"error_ratio", "degraded_ratio", "latency_p95"}

            status, body, _ = fetch(f"{base}/traces")
            assert status == 200
            index = json.loads(body)
            assert len(index["traces"]) == 2

    def test_ops_server_absent_without_ops_port(self):
        config = GatewayConfig(
            max_workers=1, cache_results=False, cache_proxy_scores=False
        )
        with Gateway(StubPlatform(), config) as gateway:
            assert gateway.ops_server is None

    def test_server_stops_with_gateway(self):
        gateway = Gateway(StubPlatform(), ops_config())
        url = gateway.ops_server.url
        assert fetch(f"{url}/health")[0] == 200
        gateway.shutdown()
        with pytest.raises(OSError):
            urlopen(f"{url}/health", timeout=0.5)


class TestScrapeStorm:
    def test_concurrent_scrapes_never_perturb_the_request_path(self):
        """8 scrape threads hammer /metrics and /health through a churning
        workload: every scrape parses, counters are monotone within each
        thread, no handler errors fire, and the request traces contain
        exactly the same span names as an unscraped request."""
        platform = StubPlatform(delay=0.002)
        with Gateway(platform, ops_config(max_workers=4)) as gateway:
            base = gateway.ops_server.url
            # Baseline: span names of one request with no scrapers running.
            gateway.run_many([make_request()])
            baseline_names = {
                record.name
                for trace in gateway.tracer.buffer.snapshot()
                for record in trace.records
            }

            stop = threading.Event()
            errors: list[Exception] = []

            def scraper(index: int) -> None:
                path = "/metrics" if index % 2 == 0 else "/health"
                last_requests = 0.0
                try:
                    while not stop.is_set():
                        status, body, _ = fetch(f"{base}{path}")
                        if path == "/metrics":
                            assert status == 200
                            families = parse_openmetrics(body)
                            total = families["gateway_requests"]["samples"][
                                ("gateway_requests_total", ())
                            ]
                            assert total >= last_requests, "counter went backwards"
                            last_requests = total
                        else:
                            assert status in (200, 503)
                            json.loads(body)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=scraper, args=(index,), daemon=True)
                for index in range(8)
            ]
            for thread in threads:
                thread.start()

            batches = 6
            per_batch = 8
            for _ in range(batches):
                responses = gateway.run_many(
                    [make_request() for _ in range(per_batch)]
                )
                assert all(response.ok for response in responses)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

            assert errors == []
            metrics = gateway.metrics
            assert metrics.counter_value("ops.http.errors") == 0
            assert metrics.counter_value("ops.scrapes") > 0
            # Every admitted request finished exactly one root span; the
            # scrape storm added none.
            expected = 1 + batches * per_batch
            assert metrics.counter_value("trace.finished") == expected
            assert metrics.counter_value("gateway.requests") == expected
            storm_names = {
                record.name
                for trace in gateway.tracer.buffer.snapshot()
                for record in trace.records
            }
            assert storm_names == baseline_names
            # The final exposition is still internally consistent.
            _, body, _ = fetch(f"{base}/metrics")
            parse_openmetrics(body)
