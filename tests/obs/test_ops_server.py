"""Acceptance tests for the HTTP ops server.

The contract: a gateway started with ``ops_port`` serves a ``/metrics``
exposition the validating parser accepts, ``/health`` answers 200 exactly
when the dispatch breaker would admit a request and admission has room
(and probing it changes nothing), histogram exemplars resolve to retained
traces through ``/traces/<id>``, and a scrape storm during a churning
workload never perturbs the request path.
"""

import json
import multiprocessing
import socket
import threading
import time
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.core import Mileena, SearchRequest, SimulatedClock, WallClock
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
    """Duck-typed platform: instant (or delayed, gated, or failing) searches."""

    def __init__(self, delay: float = 0.0, gate: threading.Event | None = None):
        self.clock = WallClock()
        self.metrics = None
        self.cache = None
        self.corpus = _StubCorpus()
        self.delay = delay
        self.gate = gate
        self.fail = False

    def search(self, request, train_final_model=True):
        if self.gate is not None:
            self.gate.wait(timeout=10.0)
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
        assert families["ops_scrapes"]["type"] == "counter"

    def test_health_ok_while_healthy(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            gateway.run_many([make_request() for _ in range(4)])
            status, body, _ = fetch(f"{gateway.ops_server.url}/health")
        assert status == 200
        assert json.loads(body) == {
            "status": "ok",
            "breaker_open": False,
            "pending": 0,
            "max_pending": 64,
        }

    def test_health_503_when_breaker_open(self):
        platform = StubPlatform()
        with Gateway(platform, ops_config(breaker_failure_threshold=2)) as gateway:
            gateway.run_many([make_request()])
            platform.fail = True
            # Distinct tasks, one at a time: two failures trip the breaker
            # and no last-known-good result can stand in for them.
            for augmentations in (3, 4):
                response = gateway.submit(
                    make_request(max_augmentations=augmentations)
                ).result(timeout=10.0)
                assert not response.ok
            assert gateway.resilience.breaker.state == "open"
            status, body, _ = fetch(f"{gateway.ops_server.url}/health")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "unavailable"
        assert payload["breaker_open"] is True

    def test_health_recovers_after_breaker_window_without_traffic(self):
        """A load balancer that drains on 503 sends no traffic, so readiness
        must come back once the breaker would admit a probe — without a
        request to move it — and probing must not spend that probe."""
        clock = SimulatedClock()
        platform = StubPlatform()
        platform.fail = True
        config = ops_config(
            breaker_failure_threshold=2, breaker_recovery_seconds=30.0
        )
        with Gateway(platform, config, clock=clock) as gateway:
            health = f"{gateway.ops_server.url}/health"
            breaker = gateway.resilience.breaker
            for augmentations in (1, 2):
                request = make_request(max_augmentations=augmentations)
                gateway.submit(request).result(timeout=10.0)
            assert breaker.state == "open"
            assert fetch(health)[0] == 503

            clock.advance(31.0)
            for _ in range(3):
                status, body, _ = fetch(health)
                assert status == 200
                assert json.loads(body)["breaker_open"] is False
            # The health checks moved nothing: the breaker is still open,
            # and the next dispatch is admitted as its half-open probe.
            assert breaker.state == "open"
            assert gateway.metrics.counter_value("gateway.breaker.fast_rejections") == 0

            platform.fail = False
            response = gateway.submit(make_request(max_augmentations=5))
            assert response.result(timeout=10.0).ok
            assert breaker.state == "closed"
            assert fetch(health)[0] == 200

    def test_health_503_while_a_half_open_probe_is_in_flight(self):
        clock = SimulatedClock()
        config = ops_config(
            breaker_failure_threshold=1, breaker_recovery_seconds=30.0
        )
        with Gateway(StubPlatform(), config, clock=clock) as gateway:
            health = f"{gateway.ops_server.url}/health"
            breaker = gateway.resilience.breaker
            breaker.record_failure()
            clock.advance(30.0)
            assert breaker.would_admit()
            assert breaker.allow()  # the one half-open probe goes out
            assert breaker.state == "half_open"
            assert not breaker.would_admit()
            assert fetch(health)[0] == 503
            assert not breaker.allow()
            assert breaker.state == "half_open"
            breaker.record_success()
            assert fetch(health)[0] == 200

    def test_health_503_while_admission_is_full(self):
        gate = threading.Event()
        platform = StubPlatform(gate=gate)
        with Gateway(platform, ops_config(max_pending=1)) as gateway:
            health = f"{gateway.ops_server.url}/health"
            future = gateway.submit(make_request())
            status, body, _ = fetch(health)
            assert status == 503
            payload = json.loads(body)
            assert payload["pending"] == payload["max_pending"] == 1
            assert payload["breaker_open"] is False

            gate.set()
            assert future.result(timeout=10.0).ok
            status, body, _ = fetch(health)
            assert status == 200
            assert json.loads(body)["pending"] == 0

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
            # Burn rates are the scraper's job: there is no /slo endpoint.
            for path in ("/nope", "/slo"):
                status, _, _ = fetch(f"{gateway.ops_server.url}{path}")
                assert status == 404

    def test_ops_and_traces_endpoints(self):
        with Gateway(StubPlatform(), ops_config()) as gateway:
            gateway.run_many([make_request() for _ in range(2)])
            base = gateway.ops_server.url
            status, report, _ = fetch(f"{base}/ops")
            assert status == 200
            assert "gateway ops report" in report

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

    @pytest.mark.parametrize(
        "take_port", [True, False], ids=["taken_ops_port", "zero_threads"]
    )
    def test_failed_construction_leaks_no_started_backend(self, take_port):
        platform = Mileena()
        children_before = set(multiprocessing.active_children())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            if take_port:
                overrides = {"max_workers": 1, "ops_port": taken.getsockname()[1]}
            else:
                # The worker pool starts, then the orchestrator thread pool
                # refuses zero threads.
                overrides = {"max_workers": 0}
            config = GatewayConfig(backend="process", process_workers=1, **overrides)
            with pytest.raises((OSError, ValueError)):
                Gateway(platform, config)
        assert set(multiprocessing.active_children()) - children_before == set()
        assert platform.corpus._observers == []

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
