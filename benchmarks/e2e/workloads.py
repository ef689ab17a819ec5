"""The four workloads: generated inputs, set-up, and closed-loop drivers.

Every input comes from ``--seed`` through the generators in this file (the
corpus itself from ``repro.datasets.generate_corpus``); the program under
test only ever sees the generated relations and requests.  All workloads
are **closed loops**: a client sends its next operation only after the
previous reply, with at most ``CLIENTS`` (= the 2 cores of the reference
box) client threads in the one load-generator process, and
``GatewayConfig`` defaults except ``max_workers=2`` and the fields a
workload names.

An untraced pass is bounded by time (``--seconds``); the traced pass runs
a fixed number of operations (``trace_ops``) so that its step counts
repeat exactly, with ``--seconds`` only as a cap.
"""

from __future__ import annotations

import pickle
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from e2e.metrics import steady_rates
from repro.core import Mileena, SearchRequest
from repro.datasets import CorpusSpec, GeneratedCorpus, generate_corpus
from repro.privacy import FactorizedPrivacyMechanism
from repro.relational import KEY, NUMERIC, Attribute, Relation, Schema
from repro.serving import Gateway, GatewayConfig
from repro.sketches import SketchBuilder

_clock = time.perf_counter

# Paper scale: Figures 4/5 search 517 NYC Open Data datasets.
CORPUS = {"num_datasets": 500, "requester_rows": 400, "provider_rows": 200}
SHARDS = 4
CLIENTS = 2
WORKERS = 2
POOL_SIZE = 8
HELD_OUT = 32
CYCLE_REGISTERS = 8
CYCLE_SEARCHES = 8
RESTART_FOLLOW_UPS = 4
_ORDER_BLOCKS = 50_000


# -- generators ------------------------------------------------------------------
def build_corpus(seed: int) -> GeneratedCorpus:
    return generate_corpus(CorpusSpec(seed=seed, **CORPUS))


def unique_request(
    corpus: GeneratedCorpus, index: int, max_augmentations: int = 3
) -> SearchRequest:
    """Request ``index`` of an endless family of distinct requester relations.

    One numeric training column is shifted by ``index`` nano-units, so every
    request has its own relation fingerprint — no result-cache hit, no
    coalescing, no shared discovery or proxy memoisation — while the search
    itself does the same work for every index.
    """
    shifted = np.asarray(corpus.train.column("local_a"), dtype=np.float64) + 1e-9 * (
        index + 1
    )
    train = Relation(
        corpus.train.name,
        {
            name: shifted if name == "local_a" else corpus.train.column(name)
            for name in corpus.train.schema.names
        },
        corpus.train.schema,
    )
    return SearchRequest(
        train=train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=max_augmentations,
    )


def popular_pool(corpus: GeneratedCorpus, size: int = POOL_SIZE) -> list[SearchRequest]:
    """The small set of tasks popular requesters keep re-submitting."""
    return [unique_request(corpus, index, max_augmentations=1) for index in range(size)]


def popular_order(seed: int, size: int = POOL_SIZE) -> np.ndarray:
    """Which pool task request *i* asks for: seeded shuffles of the pool."""
    rng = np.random.default_rng([seed, 1])
    blocks = np.tile(np.arange(size), (_ORDER_BLOCKS, 1))
    return rng.permuted(blocks, axis=1).ravel()


def held_out_relation(seed: int, cycle: int, slot: int) -> Relation:
    """Provider relation registered in churn cycle ``cycle`` at ``slot``.

    Every relation has the same shape (120 rows, 24 key groups, 2 numeric
    columns), so registrations of one kind cost the same and their
    percentiles are steady; only the values depend on the seed.
    """
    rng = np.random.default_rng([seed, 2, cycle, slot])
    keys = [f"churn_key_{i}" for i in rng.integers(0, 24, size=120)]
    return Relation(
        f"churn_c{cycle:05d}_s{slot}",
        {
            "churn_id": keys,
            "churn_metric_0": rng.normal(size=len(keys)),
            "churn_metric_1": rng.normal(loc=2.0, scale=3.0, size=len(keys)),
        },
        Schema(
            (
                Attribute("churn_id", KEY),
                Attribute("churn_metric_0", NUMERIC),
                Attribute("churn_metric_1", NUMERIC),
            )
        ),
    )


def churn_epsilon(slot: int) -> float | None:
    """Every fourth registration is privatised (ε = 1) through FPM.

    A quarter, not a half: the median registration is then a plain one and
    the 90th percentile a private one, instead of both sitting on the
    boundary between the two kinds.
    """
    return 1.0 if slot % 4 == 3 else None


def seeded_builder(seed: int) -> SketchBuilder:
    """A sketch builder whose FPM noise is a function of ``--seed``."""
    mechanism = FactorizedPrivacyMechanism(rng=np.random.default_rng([seed, 3]))
    return SketchBuilder(mechanism=mechanism)


# -- shared plumbing ---------------------------------------------------------------
@dataclass
class Samples:
    """What one measured pass observed."""

    search_ms: list[float] = field(default_factory=list)
    #: completion rate (1/s) of each consecutive slice of the search windows
    search_rates: list[float] = field(default_factory=list)
    register_ms: list[float] = field(default_factory=list)
    #: (mutations, summed wall seconds) of each churn cycle
    mutation_windows: list[tuple[int, float]] = field(default_factory=list)
    first_ok_s: list[float] = field(default_factory=list)
    worker_start_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    r2_sum: float = 0.0
    cache_hits: int = 0
    waited_seconds: float = 0.0
    lag_seconds: float = 0.0
    cut_short: bool = False
    #: (history length, request, result) of the responses the oracle replays
    kept: list[tuple[int, SearchRequest, object]] = field(default_factory=list)
    #: summed ``SearchResult.elapsed_seconds`` of the searches that ran
    compute_seconds: float = 0.0
    #: process backend only: request wall minus the worker's own search
    #: time for each solo request, and its pickled request + result size
    dispatch_ms: list[float] = field(default_factory=list)
    pickle_bytes: list[int] = field(default_factory=list)

    def merge(self, other: "Samples") -> None:
        for name, value in vars(other).items():
            if isinstance(value, list):
                getattr(self, name).extend(value)
            elif isinstance(value, bool):
                self.cut_short = self.cut_short or value
            else:
                setattr(self, name, getattr(self, name) + value)


class Budget:
    """Hands out operation indices until the time or the count runs out."""

    def __init__(self, seconds: float, ops: int | None = None) -> None:
        self.deadline = _clock() + seconds
        self.ops = ops
        self.taken = 0
        self.cut_short = False
        self._lock = threading.Lock()

    def take(self) -> int | None:
        with self._lock:
            if self.ops is not None and self.taken >= self.ops:
                return None
            if _clock() >= self.deadline:
                self.cut_short = self.ops is not None
                return None
            self.taken += 1
            return self.taken - 1


@dataclass
class State:
    """A set-up system: what ``setup`` built and the drivers advance."""

    seed: int
    corpus: GeneratedCorpus
    platform: Mileena
    scratch: Path
    gateway: Gateway | None = None
    cursor: int = 0
    #: every corpus mutation so far, in order, for the oracle to replay:
    #: ("add", relation, epsilon) or ("remove", name)
    history: list[tuple] = field(default_factory=list)
    register_ms: list[float] = field(default_factory=list)
    first_ok_s: list[float] = field(default_factory=list)
    previous: list[str] = field(default_factory=list)
    tasks: list[SearchRequest] = field(default_factory=list)
    order: np.ndarray | None = None


def _register(state: State, relation: Relation, epsilon, recorder=None) -> float:
    started = _clock()
    with recorder.writing("bench.register") if recorder is not None else nullcontext():
        state.platform.register_dataset(relation, epsilon=epsilon)
    elapsed = _clock() - started
    state.history.append(("add", relation, epsilon))
    return elapsed


def _register_corpus(state: State, relations) -> None:
    for relation in relations:
        state.register_ms.append(_register(state, relation, None) * 1000.0)


def _send(gateway: Gateway, request: SearchRequest, samples: Samples, recorder):
    """One closed-loop request: submit, wait, record.  Returns the response."""
    started = _clock()
    if recorder is None:
        response = gateway.submit(request).result()
    else:
        with recorder.request("serving.request", request.train):
            response = gateway.submit(request).result()
    samples.search_ms.append((_clock() - started) * 1000.0)
    samples.attempted += 1
    if response.ok and not response.degraded:
        samples.r2_sum += response.result.final_test_r2
        samples.cache_hits += response.cache_hit
        samples.waited_seconds += response.waited_seconds
        if not response.cache_hit:
            samples.compute_seconds += response.result.elapsed_seconds
    else:
        samples.failed += 1
    return response


def _drive(state: State, budget: Budget, request_for, keep, recorder, clients) -> Samples:
    """``clients`` closed-loop client threads drawing from one ``budget``."""
    gateway = state.gateway
    history = len(state.history)
    results = [Samples() for _ in range(clients)]

    def client(samples: Samples) -> None:
        idle_since = _clock()
        while (index := budget.take()) is not None:
            request = request_for(state.cursor + index)
            samples.lag_seconds += _clock() - idle_since
            response = _send(gateway, request, samples, recorder)
            idle_since = _clock()
            if index in keep and response.ok:
                samples.kept.append((history, request, response.result))

    threads = [threading.Thread(target=client, args=(s,)) for s in results]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = Samples()
    for samples in results:
        samples.search_rates = steady_rates(samples.search_ms, clients)
        merged.merge(samples)
    merged.cut_short = budget.cut_short
    state.cursor += budget.taken
    return merged


def _gateway(platform: Mileena, **fields) -> Gateway:
    return Gateway(platform, GatewayConfig(max_workers=WORKERS, **fields))


def _registered(seed: int, scratch: Path, held_out: int = 0, builder=None) -> State:
    """Generate the corpus and register all but the last ``held_out`` providers."""
    corpus = build_corpus(seed)
    extras = {"builder": builder} if builder is not None else {}
    state = State(seed, corpus, Mileena.sharded(num_shards=SHARDS, **extras), scratch)
    _register_corpus(state, corpus.providers[: len(corpus.providers) - held_out])
    return state


def _start(state: State, first: SearchRequest, **fields) -> None:
    """Start the gateway and serve one request: one ``first_ok_s`` sample."""
    started = _clock()
    state.gateway = _gateway(state.platform, **fields)
    response = state.gateway.submit(first).result()
    if not response.ok:
        raise RuntimeError(f"warm-up request failed: {response.error}")
    state.first_ok_s.append(_clock() - started)


class Workload:
    """Common shape: ``setup`` (timed as ``setup_s``) → ``measure`` → ``teardown``."""

    name = ""
    why = ""
    clients = CLIENTS
    #: operations of the fixed-size traced pass, and the fewest ``--quick`` runs
    trace_ops = 0
    min_ops = 1
    #: operation indices (of one pass) whose responses the oracle replays
    keep = frozenset(range(8))

    def setup(self, seed: int, scratch: Path) -> State:
        raise NotImplementedError

    def prewarm(self, state: State) -> None:
        """Untimed fill of caches the workload needs warm (default: none)."""

    def measure(self, state: State, seconds: float, ops=None, recorder=None) -> Samples:
        raise NotImplementedError

    def teardown(self, state: State) -> None:
        if state.gateway is not None:
            state.gateway.shutdown()
            state.gateway = None
        if state.platform is not None and state.platform.snapshots is not None:
            state.platform.snapshots.detach()

    def _run_cycles(self, state: State, seconds: float, ops, recorder) -> Samples:
        """Cycle-structured workloads: one operation of the budget is one cycle."""
        samples = Samples()
        budget = Budget(seconds, ops)
        while (ordinal := budget.take()) is not None:
            self._cycle(state, samples, recorder, ordinal)
        samples.cut_short = budget.cut_short
        return samples


class ColdDistinct(Workload):
    name = "cold_distinct"
    why = (
        "unique requester relations, working set >> cache: no cache or coalescing "
        "helps, so core/sketches/semiring (greedy + per-key join) are ~all of the time"
    )
    # One client: two clients on the thread backend turn a cold search into a
    # GIL convoy whose latency swings 2x run to run (README, findings).
    clients = 1
    trace_ops = 8

    def setup(self, seed: int, scratch: Path) -> State:
        state = _registered(seed, scratch)
        _start(state, unique_request(state.corpus, 0))
        state.cursor = 1
        return state

    def measure(self, state, seconds, ops=None, recorder=None) -> Samples:
        return _drive(
            state,
            Budget(seconds, ops),
            lambda index: unique_request(state.corpus, index),
            self.keep,
            recorder,
            self.clients,
        )


class HotPopular(Workload):
    name = "hot_popular"
    why = (
        "8 pre-warmed tasks, working set << cache_capacity=256: every timed request "
        "is a cache hit, so serving/obs bookkeeping is ~all of the time (bypass for "
        "compute optimisations)"
    )
    trace_ops = 20_000
    min_ops = 1000
    # one kept response per pool task: the first block of the order is a permutation
    keep = frozenset(range(POOL_SIZE))

    def setup(self, seed: int, scratch: Path) -> State:
        state = _registered(seed, scratch)
        state.tasks = popular_pool(state.corpus)
        _start(state, state.tasks[0])
        return state

    def prewarm(self, state: State) -> None:
        state.order = popular_order(state.seed)
        for response in state.gateway.run_many(state.tasks):
            if not response.ok:
                raise RuntimeError(f"pre-warm request failed: {response.error}")

    def measure(self, state, seconds, ops=None, recorder=None) -> Samples:
        order, tasks = state.order, state.tasks
        # A fresh request object per submission (same relations): callers do
        # not share request objects, and the tracer links by object identity.
        return _drive(
            state,
            Budget(seconds, ops),
            lambda index: replace(tasks[order[index % len(order)]]),
            self.keep,
            recorder,
            self.clients,
        )


class ChurnMixed(Workload):
    name = "churn_mixed"
    clients = 1
    why = (
        "durable state on, 1 client, cycles of 8 registers (2 private) + 8 unregisters "
        "+ 8 searches (2 misses, 6 hits): sketch build, FPM, index update, WAL, "
        "snapshot stalls and epoch invalidation beside reads"
    )
    trace_ops = 8
    # two responses (one miss per task) from each of the first four cycles
    keep = frozenset(
        cycle * CYCLE_SEARCHES + offset for cycle in range(4) for offset in (0, 1)
    )

    def setup(self, seed: int, scratch: Path) -> State:
        state = _registered(seed, scratch, HELD_OUT, seeded_builder(seed))
        # Two tasks of the same cost: the misses are then one latency mode and
        # the 90th percentile (25 % of the searches miss) sits inside it.
        state.tasks = [
            unique_request(state.corpus, index, max_augmentations=1) for index in range(2)
        ]
        durable = scratch / "durable"
        shutil.rmtree(durable, ignore_errors=True)
        # wal_fsync=False: flush-only durability, the same on both sides of
        # any comparison; snapshot cadence is the default 64 mutations.
        _start(state, state.tasks[0], snapshot_dir=str(durable), wal_fsync=False)
        return state

    def measure(self, state, seconds, ops=None, recorder=None) -> Samples:
        samples = self._run_cycles(state, seconds, ops, recorder)
        samples.search_rates = steady_rates(samples.search_ms, self.clients)
        return samples

    def _cycle(self, state: State, samples: Samples, recorder, ordinal: int) -> None:
        cycle = state.cursor
        state.cursor += 1
        registered = []
        mutation_seconds = 0.0
        for slot in range(CYCLE_REGISTERS):
            relation = held_out_relation(state.seed, cycle, slot)
            elapsed = _register(state, relation, churn_epsilon(slot), recorder)
            samples.register_ms.append(elapsed * 1000.0)
            mutation_seconds += elapsed
            registered.append(relation.name)
        for name in state.previous:
            started = _clock()
            with recorder.writing("bench.unregister") if recorder else nullcontext():
                state.platform.corpus.remove(name)
            mutation_seconds += _clock() - started
            state.history.append(("remove", name))
        mutations = len(registered) + len(state.previous)
        samples.mutation_windows.append((mutations, mutation_seconds))
        samples.attempted += mutations
        state.previous = registered
        history = len(state.history)
        idle_since = _clock()
        for position in range(CYCLE_SEARCHES):
            request = replace(state.tasks[position % len(state.tasks)])
            samples.lag_seconds += _clock() - idle_since
            response = _send(state.gateway, request, samples, recorder)
            idle_since = _clock()
            if ordinal * CYCLE_SEARCHES + position in self.keep and response.ok:
                samples.kept.append((history, request, response.result))


class RestartProcess(Workload):
    name = "restart_process"
    why = (
        "load a durable dir (snapshot of 468 + 32-record WAL tail), start the process "
        "backend, serve cold requests: persist read/replay, worker bootstrap, pickle "
        "boundary; process vs thread on 2 cores"
    )
    trace_ops = 2

    def setup(self, seed: int, scratch: Path) -> State:
        pristine = scratch / "pristine"
        shutil.rmtree(pristine, ignore_errors=True)
        state = _registered(seed, scratch, HELD_OUT)
        manager = state.platform.attach_snapshots(pristine, every_mutations=None)
        _register_corpus(state, state.corpus.providers[-HELD_OUT:])
        manager.detach()
        return state

    def measure(self, state, seconds, ops=None, recorder=None) -> Samples:
        return self._run_cycles(state, seconds, ops, recorder)

    def _cycle(self, state: State, samples: Samples, recorder, ordinal: int) -> None:
        work = state.scratch / "restart"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(state.scratch / "pristine", work)
        # One platform alive at a time: a second one doubles what the cyclic
        # garbage collector walks, which alone slows a search by ~15 %.
        state.platform = None
        first = unique_request(state.corpus, state.cursor)
        reference = unique_request(state.corpus, state.cursor + 1)
        state.cursor += 2
        loaded = State(state.seed, state.corpus, None, state.scratch, cursor=state.cursor)
        loaded.history = state.history
        started = _clock()
        loaded.platform = Mileena.load(work)
        booting = _clock()
        try:
            loaded.gateway = _gateway(
                loaded.platform,
                backend="process",
                process_workers=WORKERS,
                snapshot_dir=str(work),
            )
            ready = _clock()
            samples.worker_start_s.append(ready - booting)
            response = _send(loaded.gateway, first, samples, recorder)
            samples.first_ok_s.append(_clock() - started)
            if response.ok:
                samples.kept.append((len(state.history), first, response.result))
                samples.dispatch_ms.append(
                    samples.search_ms[-1] - response.result.elapsed_seconds * 1000.0
                )
                samples.pickle_bytes.append(
                    len(pickle.dumps(first)) + len(pickle.dumps(response.result))
                )
            follow_ups = _drive(
                loaded,
                Budget(3600.0, RESTART_FOLLOW_UPS),
                lambda index: unique_request(state.corpus, index),
                self.keep,
                recorder,
                self.clients,
            )
            # One rate per cycle: gateway ready to last response.
            follow_ups.search_rates = [(1 + RESTART_FOLLOW_UPS) / (_clock() - ready)]
            samples.merge(follow_ups)
            state.cursor = loaded.cursor
        finally:
            self.teardown(loaded)
        if recorder is not None:
            # Worker internals are invisible from outside: trace a sibling
            # request in this process to attribute worker-side compute to layers.
            with recorder.request("bench.in_parent", reference.train):
                loaded.platform.search(reference)
        state.platform = loaded.platform
        shutil.rmtree(work)


WORKLOADS: tuple[Workload, ...] = (
    ColdDistinct(),
    HotPopular(),
    ChurnMixed(),
    RestartProcess(),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)
