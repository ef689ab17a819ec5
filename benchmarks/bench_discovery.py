"""Discovery engine latency: scalar reference vs vectorized engine.

Measures ``join_candidates`` / ``union_candidates`` latency against
corpora of 100 / 1000 / 5000 registered datasets for both engine modes
(scalar reference and vectorized), checks result parity between them,
and writes everything to ``BENCH_discovery.json`` so the perf trajectory
has durable data points.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_discovery.py            # full run
    PYTHONPATH=src python benchmarks/bench_discovery.py --sizes 100 --repeats 2

The CI smoke run uses the small size only; the committed
``BENCH_discovery.json`` comes from a full local run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _corpus import NUM_ROWS, build_corpus, timed  # noqa: E402
from repro.discovery import DiscoveryIndex, profile_relation  # noqa: E402


def bench_size(num_datasets: int, repeats: int, seed: int) -> dict:
    relations, query = build_corpus(num_datasets, seed)
    modes = {
        "scalar": DiscoveryIndex(vectorized=False, join_threshold=0.2, union_threshold=0.3),
        "vectorized": DiscoveryIndex(join_threshold=0.2, union_threshold=0.3),
    }
    register_ms = {}
    for mode, index in modes.items():
        start = time.perf_counter()
        for relation in relations:
            index.register(relation)
        register_ms[mode] = (time.perf_counter() - start) * 1000.0
    profiles = {
        mode: profile_relation(query, index.minhasher) for mode, index in modes.items()
    }

    def join(mode):
        index, profile = modes[mode], profiles[mode]
        if mode == "scalar":
            return index.join_candidates_for_profile_scalar(profile)
        return index.join_candidates_for_profile(profile)

    def union(mode):
        index, profile = modes[mode], profiles[mode]
        if mode == "scalar":
            return index.union_candidates_for_profile_scalar(profile)
        return index.union_candidates_for_profile(profile)

    join_ms = {mode: timed(lambda m=mode: join(m), repeats) for mode in modes}
    union_ms = {mode: timed(lambda m=mode: union(m), repeats) for mode in modes}
    parity = join("scalar") == join("vectorized") and union("scalar") == union("vectorized")
    result = {
        "datasets": num_datasets,
        "join_hits": len(join("scalar")),
        "register_ms": {k: round(v, 3) for k, v in register_ms.items()},
        "join_ms": {k: round(v, 4) for k, v in join_ms.items()},
        "union_ms": {k: round(v, 4) for k, v in union_ms.items()},
        "speedup": {
            "join_vectorized": round(join_ms["scalar"] / join_ms["vectorized"], 2),
            "union_vectorized": round(union_ms["scalar"] / union_ms["vectorized"], 2),
        },
        "parity": parity,
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 1000, 5000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_discovery.json"
    )
    args = parser.parse_args(argv)
    report = {
        "benchmark": "discovery_engine",
        "config": {
            "num_hashes": 64,
            "join_threshold": 0.2,
            "union_threshold": 0.3,
            "rows_per_dataset": NUM_ROWS,
            "repeats": args.repeats,
        },
        "results": [],
    }
    ok = True
    for size in args.sizes:
        result = bench_size(size, args.repeats, args.seed)
        report["results"].append(result)
        ok = ok and result["parity"]
        print(
            f"{size:>6} datasets | join scalar {result['join_ms']['scalar']:9.2f}ms"
            f"  vectorized {result['join_ms']['vectorized']:8.3f}ms"
            f" ({result['speedup']['join_vectorized']:6.1f}x)"
            f" | union {result['speedup']['union_vectorized']:5.1f}x"
            f" | parity={'ok' if result['parity'] else 'FAIL'}"
        )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
