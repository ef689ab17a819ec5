"""Live ops server: scraping a running gateway over HTTP.

Starts a gateway with ``GatewayConfig(ops_port=0)`` — which brings up the
threaded stdlib ops server on an ephemeral port — drives a small search
workload through it, then hits every endpoint the way an operator (or a
Prometheus scraper, or a load balancer's health probe) would:

* ``/metrics`` — OpenMetrics exposition, parsed back with the validating
  parser to prove it is scrapeable;
* ``/health`` — readiness (200 here: breaker closed, admission has room);
* ``/ops`` ``/traces`` — the operator surfaces as text/JSON;
* ``/traces/<id>`` — one retained trace, found via a histogram exemplar.

Exits non-zero if any endpoint misbehaves, so CI runs this file as the
ops-server smoke test.

Run with:  PYTHONPATH=src python examples/ops_server.py
"""

import json
import sys
from urllib.request import urlopen

from repro.core import Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.obs import parse_openmetrics
from repro.serving import Gateway, GatewayConfig


def fetch(url: str) -> tuple[int, str]:
    with urlopen(url, timeout=10.0) as response:
        return response.status, response.read().decode("utf-8")


def main() -> int:
    corpus = generate_corpus(CorpusSpec(num_datasets=14, requester_rows=150, seed=0))
    platform = Mileena.sharded(num_shards=2)
    platform.register_corpus(corpus.providers)

    # ops_port=0 binds an ephemeral port; sample everything so /traces has
    # content and every histogram bucket carries an exemplar.
    config = GatewayConfig(
        max_workers=2,
        ops_port=0,
        trace_sample_rate=1.0,
        slow_trace_seconds=0.0,
    )
    with Gateway(platform, config) as gateway:
        requests = [
            SearchRequest(
                train=corpus.train,
                test=corpus.test,
                target=corpus.target,
                max_augmentations=1 + (index % 3),
            )
            for index in range(6)
        ]
        gateway.run_many(requests, time_budget_seconds=120.0)

        base = gateway.ops_server.url
        print(f"ops server listening on {base}")

        status, text = fetch(f"{base}/metrics")
        assert status == 200, f"/metrics answered {status}"
        families = parse_openmetrics(text)
        print(f"/metrics: {len(families)} families, parseable OpenMetrics")

        status, text = fetch(f"{base}/health")
        assert status == 200, f"/health answered {status}: {text}"
        health = json.loads(text)
        assert set(health) == {"status", "breaker_open", "pending", "max_pending"}
        assert health["status"] == "ok" and not health["breaker_open"]
        assert health["pending"] < health["max_pending"]
        print(
            f"/health: {health['status']} "
            f"(pending {health['pending']}/{health['max_pending']})"
        )

        status, text = fetch(f"{base}/ops")
        assert status == 200, f"/ops answered {status}"
        print(f"/ops: {len(text.splitlines())} report lines")

        status, text = fetch(f"{base}/traces")
        assert status == 200, f"/traces answered {status}"
        traces = json.loads(text)["traces"]
        assert traces, "no traces retained at sample_rate=1.0"
        print(f"/traces: {len(traces)} retained")

        # Follow a histogram exemplar from the exposition to its trace.
        exemplars = families["gateway_service_seconds"]["exemplars"]
        assert exemplars, "service histogram carries no exemplars"
        exemplar_labels, _ = next(iter(exemplars.values()))
        trace_id = dict(exemplar_labels)["trace_id"]
        status, text = fetch(f"{base}/traces/{trace_id}")
        assert status == 200, f"/traces/{trace_id} answered {status}"
        detail = json.loads(text)
        print(f"/traces/{trace_id}: {len(detail['records'])} spans via exemplar")
        print()
        print(detail["rendered"])
    print("ops server smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
