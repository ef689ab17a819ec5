"""Output check: replay sampled responses on a flat scalar platform.

The repo's correctness contract is that every serving configuration —
sharded stores, vectorized discovery, any backend, any churn interleaving,
a restart — returns plans and scores *bit-identical* to a flat
``Mileena()`` whose discovery index runs the scalar reference loops.  After
the timed passes (and outside every metric) the benchmark rebuilds that
platform from the same seeded sketch builder and the same mutation history
and compares a seeded sample of the responses it was given.
"""

from __future__ import annotations

import random
from dataclasses import replace

from e2e.workloads import seeded_builder
from repro.core import Corpus, Mileena
from repro.discovery.index import DiscoveryIndex

SAMPLE = 8


def signature(result) -> tuple:
    """The fields every configuration must reproduce exactly."""
    return (
        tuple(
            (candidate.kind, candidate.dataset, candidate.join_key)
            for candidate in result.plan.candidates
        ),
        result.proxy_test_r2,
        result.final_test_r2,
    )


def flat_scalar_platform(seed: int) -> Mileena:
    corpus = Corpus(discovery=DiscoveryIndex(vectorized=False))
    return Mileena(corpus=corpus, builder=seeded_builder(seed))


def check(seed: int, history: list[tuple], kept: list[tuple], sample: int = SAMPLE):
    """Replay a seeded sample of ``kept``; returns (checked, mismatches).

    ``history`` is the benchmark platform's full mutation sequence and each
    kept entry says how much of it had been applied when the response was
    produced, so one oracle platform walks the history once and answers
    each sampled request at its own epoch.
    """
    chosen = random.Random(seed).sample(kept, min(sample, len(kept)))
    chosen.sort(key=lambda entry: entry[0])
    platform = flat_scalar_platform(seed)
    applied = 0
    mismatches = []
    for position, request, result in chosen:
        while applied < position:
            op = history[applied]
            if op[0] == "add":
                platform.register_dataset(op[1], epsilon=op[2])
            else:
                platform.corpus.remove(op[1])
            applied += 1
        expected = platform.search(replace(request))
        if signature(expected) != signature(result):
            mismatches.append((position, signature(expected), signature(result)))
    return len(chosen), mismatches
