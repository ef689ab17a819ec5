"""Serving-gateway throughput across execution backends (thread/process).

Two workloads over the synthetic open-data corpus, each measured against a
sequential no-gateway baseline and across the backend matrix:

* ``popular`` — requesters repeat a small pool of tasks, the regime where
  caching and coalescing win regardless of backend (the original PR 1
  benchmark);
* ``distinct`` — every request carries a unique requester relation, so no
  cache or coalescing helps and throughput is pure compute.  This is the
  workload that separates the backends: the GIL serialises the thread
  backend at ~1x, while the process backend scales with cores
  (acceptance: ≥2x over thread on a ≥4-core runner).

Every backend's responses are checked for result identity against the
sequential baseline before timing is trusted.  Numbers land in
``BENCH_gateway.json`` (the CI regression gate compares the dimensionless
``speedup_vs_sequential`` ratios, not machine-dependent absolute rps).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_gateway.py              # full run
    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke      # CI config
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _corpus import distinct_requests, popular_requests  # noqa: E402
from repro.core import Mileena  # noqa: E402
from repro.datasets import CorpusSpec, generate_corpus  # noqa: E402
from repro.serving import Gateway, GatewayConfig  # noqa: E402

BACKENDS = ("thread", "process")


def fresh_platform(corpus, num_shards: int) -> Mileena:
    platform = Mileena.sharded(num_shards=num_shards)
    for relation in corpus.providers:
        platform.register_dataset(relation)
    return platform


def result_signature(result):
    """The fields a backend must reproduce exactly (timings excluded)."""
    return (
        tuple((c.kind, c.dataset, c.join_key) for c in result.plan.candidates),
        result.proxy_test_r2,
        result.final_test_r2,
    )


def run_sequential(corpus, requests, num_shards: int):
    platform = fresh_platform(corpus, num_shards)
    started = time.perf_counter()
    results = [platform.search(request) for request in requests]
    return results, time.perf_counter() - started


def run_backend(corpus, requests, backend: str, workers: int, num_shards: int):
    config = GatewayConfig(
        max_workers=workers, max_pending=max(64, 2 * len(requests)), backend=backend
    )
    with Gateway(fresh_platform(corpus, num_shards), config) as gateway:
        started = time.perf_counter()
        responses = gateway.run_many(requests)
        elapsed = time.perf_counter() - started
        counters = gateway.metrics.snapshot()["counters"]
        # The live ops surface, captured while the gateway is still up:
        # metrics, cache hit rates, and the slowest sampled traces land
        # next to the JSON results (see --ops-out).
        ops = gateway.ops_report(slowest=2)
    return responses, elapsed, counters, ops


def bench_workload(
    corpus, name, requests, backends, workers, num_shards, repeats, ops_reports
):
    """Best-of-``repeats`` timing per configuration (noise on shared runners
    would otherwise flap the CI regression gate); result identity against
    the sequential baseline is asserted on every repeat, not just the best."""
    sequential_seconds = float("inf")
    for _ in range(repeats):
        sequential_results, seconds = run_sequential(corpus, requests, num_shards)
        sequential_seconds = min(sequential_seconds, seconds)
    expected = [result_signature(result) for result in sequential_results]
    rows = []
    for backend in backends:
        seconds = float("inf")
        for _ in range(repeats):
            responses, sample_seconds, counters, ops = run_backend(
                corpus, requests, backend, workers, num_shards
            )
            statuses = [response.status for response in responses]
            assert statuses == ["ok"] * len(responses), (backend, statuses)
            got = [result_signature(response.result) for response in responses]
            assert got == expected, f"{backend} responses diverge from sequential"
            seconds = min(seconds, sample_seconds)
        ops_reports.append(f"### {name} / {backend}\n{ops}")
        rows.append(
            {
                "workload": name,
                "backend": backend,
                "requests": len(requests),
                "seconds": round(seconds, 4),
                "rps": round(len(requests) / seconds, 4),
                "speedup_vs_sequential": round(sequential_seconds / seconds, 3),
                "cache_hits": sum(response.cache_hit for response in responses),
                "coalesced": int(counters.get("gateway.coalesced", 0)),
            }
        )
    by_backend = {row["backend"]: row for row in rows}
    if "thread" in by_backend:
        for row in rows:
            row["speedup_vs_thread"] = round(
                by_backend["thread"]["seconds"] / row["seconds"], 3
            )
    return {
        "workload": name,
        "sequential_seconds": round(sequential_seconds, 4),
        "sequential_rps": round(len(requests) / sequential_seconds, 4),
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backends", nargs="+", default=list(BACKENDS), choices=BACKENDS)
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="bench a single backend (shorthand for --backends X)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--num-shards", type=int, default=4)
    parser.add_argument("--num-datasets", type=int, default=40)
    parser.add_argument("--popular-requests", type=int, default=16)
    parser.add_argument("--distinct-requests", type=int, default=12)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (fewer datasets and requests)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_gateway.json",
    )
    parser.add_argument(
        "--ops-out",
        type=Path,
        default=None,
        help="where to write the per-backend ops/trace reports "
        "(default: <out> with an _ops.txt suffix)",
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        args.backends = [args.backend]
    if args.smoke:
        args.num_datasets = 30
        args.popular_requests = 8
        args.distinct_requests = 6

    corpus = generate_corpus(
        CorpusSpec(
            num_datasets=args.num_datasets,
            requester_rows=200,
            provider_rows=200,
            seed=args.seed,
        )
    )
    workloads = [
        ("popular", popular_requests(corpus, args.popular_requests)),
        ("distinct", distinct_requests(corpus, args.distinct_requests)),
    ]
    report = {
        "benchmark": "serving_gateway",
        "config": {
            "cpu_count": os.cpu_count(),
            "workers": args.workers,
            "num_shards": args.num_shards,
            "num_datasets": args.num_datasets,
            "popular_requests": args.popular_requests,
            "distinct_requests": args.distinct_requests,
            "smoke": args.smoke,
            "repeats": args.repeats,
        },
        "results": [],
    }
    print(
        f"gateway backends on {os.cpu_count()} cores, {args.num_datasets} datasets, "
        f"{args.workers} workers"
    )
    ops_reports: list[str] = []
    for name, requests in workloads:
        entry = bench_workload(
            corpus,
            name,
            requests,
            args.backends,
            args.workers,
            args.num_shards,
            args.repeats,
            ops_reports,
        )
        report["results"].append(entry)
        print(f"\n{name} workload ({len(requests)} requests, "
              f"sequential {entry['sequential_rps']:.2f} req/s)")
        print(f"{'backend':>8} {'req/s':>8} {'vs seq':>7} {'vs thr':>7} "
              f"{'hits':>5} {'coalesced':>9}")
        for row in entry["rows"]:
            print(
                f"{row['backend']:>8} {row['rps']:>8.2f} "
                f"{row['speedup_vs_sequential']:>7.2f} "
                f"{row.get('speedup_vs_thread', 0.0):>7.2f} "
                f"{row['cache_hits']:>5} {row['coalesced']:>9}"
            )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    ops_out = args.ops_out
    if ops_out is None:
        ops_out = args.out.with_name(args.out.stem + "_ops.txt")
    ops_out.write_text("\n\n".join(ops_reports) + "\n")
    print(f"wrote {ops_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
