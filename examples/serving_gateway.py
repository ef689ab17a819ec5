"""Serving gateway: many concurrent requesters against a sharded platform.

The multi-tenant deployment of Figure 1: provider sketches live in a
sharded store/index, and requests flow through a gateway that schedules
them on a pluggable execution backend, enforces per-request deadlines,
coalesces duplicate work, and memoises results in an epoch-keyed LRU cache.

Backends: ``thread`` (default) and ``process`` (true multi-core — each
worker process restores a platform replica from the parent's snapshot
sections).  Both return identical results.  Exits non-zero when any
response is not ok.

Run with:  PYTHONPATH=src python examples/serving_gateway.py [backend]
"""

import sys

from repro.core import Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.serving import Gateway, GatewayConfig


def main() -> int:
    backend = sys.argv[1] if len(sys.argv) > 1 else "process"

    # 1. Generate a synthetic open-data corpus and a requester task.
    corpus = generate_corpus(CorpusSpec(num_datasets=25, requester_rows=300, seed=0))

    # 2. Stand up a *sharded* platform: the sketch store and discovery index
    #    are partitioned across 4 shards by dataset-name hash, and return
    #    results identical to the flat variants.
    platform = Mileena.sharded(num_shards=4)
    accepted = platform.register_corpus(corpus.providers)
    print(
        f"registered {accepted} datasets across "
        f"{platform.corpus.sketches.num_shards} shards; backend={backend}"
    )

    # 3. Put the gateway in front: 4 workers, bounded queue, result cache.
    #    With the process backend every worker restores the platform's
    #    snapshot sections (prebuilt sketches + discovery profiles) once at
    #    startup; requests and results cross the process boundary as
    #    picklable envelopes.
    config = GatewayConfig(
        max_workers=4, max_pending=32, cache_capacity=128, backend=backend
    )
    with Gateway(platform, config) as gateway:
        # 4. Sixteen requesters submit concurrently; many share the same task
        #    (popular requester relations repeat on a shared platform), so the
        #    gateway answers most of them from its cache or by coalescing
        #    with an identical in-flight request.
        requests = [
            SearchRequest(
                train=corpus.train,
                test=corpus.test,
                target=corpus.target,
                max_augmentations=1 + (index % 4),
            )
            for index in range(16)
        ]
        responses = gateway.run_many(requests, time_budget_seconds=120.0)

        for response in responses:
            if not response.ok:
                print(
                    f"request {response.request_id:>2}: {response.status}"
                    f"  ({response.error})"
                )
                continue
            result = response.result
            print(
                f"request {response.request_id:>2}: {response.status}"
                f"  cache_hit={response.cache_hit}"
                f"  plan={[c.dataset for c in result.plan.candidates]}"
                f"  test_r2={result.final_test_r2:.3f}"
            )

        # 5. The metrics registry has counters and latency histograms for
        #    every stage (admission, queue wait, service time, cache).
        print("\nserving metrics:")
        print(gateway.metrics.render())
    return 0 if all(response.ok for response in responses) else 1


if __name__ == "__main__":
    sys.exit(main())
