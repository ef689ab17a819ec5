"""The Mileena platform facade.

Ties together the pieces of Figure 1: providers register (privatised)
sketches and discovery profiles into the central corpus; requesters submit
``(R_train, R_test, M, ε, δ)`` requests; the platform discovers candidate
augmentations, runs the greedy sketch-based search, and returns the
augmentation plan together with the requester-side final model trained on
the materialised augmentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.augmentation import (
    JOIN,
    UNION,
    AugmentationCandidate,
    AugmentationPlan,
)
from repro.core.catalog import Corpus, DatasetRegistration
from repro.core.clock import BudgetTimer, WallClock
from repro.core.provider import Provider
from repro.core.proxy import AugmentationState, SketchProxyModel
from repro.core.request import SearchRequest
from repro.core.requester import FinalModelReport, Requester
from repro.core.search import GreedySketchSearch
from repro.exceptions import SearchError
from repro.obs import span
from repro.privacy.mechanisms import PrivacyBudget
from repro.relational.relation import Relation
from repro.sketches.builder import SketchBuilder


@dataclass
class SearchResult:
    """Everything a request gets back from the platform."""

    plan: AugmentationPlan
    proxy_test_r2: float
    final_report: FinalModelReport | None
    elapsed_seconds: float
    candidates_considered: int

    @property
    def final_test_r2(self) -> float:
        """Test R² of the final materialised model (falls back to the proxy)."""
        if self.final_report is not None:
            return self.final_report.test_r2
        return self.proxy_test_r2


@dataclass
class Mileena:
    """Fast, private, task-based dataset search platform.

    ``cache`` and ``metrics`` are optional serving-layer hooks (an
    epoch-keyed ``repro.serving.cache.ResultCache`` and a
    ``repro.serving.metrics.MetricsRegistry``); the gateway wires them in,
    and a bare platform works exactly as before without them.
    ``serving_backend`` is a platform-level default execution backend name
    (``"thread"``/``"process"``) the gateway honours when its own config
    does not name one.
    """

    corpus: Corpus = field(default_factory=Corpus)
    builder: SketchBuilder = field(default_factory=SketchBuilder)
    proxy: SketchProxyModel = field(default_factory=SketchProxyModel)
    clock: object = field(default_factory=WallClock)
    discovery_top_k: int = 50
    cache: object | None = None
    metrics: object | None = None
    serving_backend: str | None = None
    snapshots: object | None = field(default=None, repr=False)

    @classmethod
    def sharded(
        cls,
        num_shards: int = 4,
        use_lsh: bool = False,
        target_recall: float | None = None,
        multi_probe: bool = False,
        discovery_cache_capacity: int | None = None,
        backend: str | None = None,
        snapshot_dir: str | None = None,
        snapshot_every_mutations: int | None = 64,
        **kwargs,
    ) -> "Mileena":
        """A platform whose sketch store and discovery index are sharded.

        ``use_lsh`` turns on LSH-banded candidate pruning in every shard
        (sublinear, approximate); ``target_recall`` makes the banding
        *adaptive* — the band count is derived so a join pair at the
        threshold is recalled with at least that probability — and
        ``multi_probe`` additionally probes near-miss band buckets
        (see ``docs/TUNING.md``).  ``discovery_cache_capacity`` enables
        the index-level epoch-scoped discovery cache.  ``backend`` names
        the execution backend a gateway in front of this platform should
        use (``"process"`` for true multi-core parallelism — see
        ``repro.serving.backends``).  ``snapshot_dir`` makes the platform
        durable: a :class:`~repro.persist.SnapshotManager` journals every
        registration change to a WAL and re-snapshots every
        ``snapshot_every_mutations`` mutations, so a restart is
        ``Mileena.load(snapshot_dir)`` instead of a full rebuild (a
        time-based cadence is ``attach_snapshots(every_seconds=...)``).
        """
        from repro.serving.sharded import ShardedDiscoveryIndex, ShardedSketchStore

        corpus = Corpus(
            discovery=ShardedDiscoveryIndex(
                num_shards=num_shards,
                use_lsh=use_lsh,
                target_recall=target_recall,
                multi_probe=multi_probe,
                cache_capacity=discovery_cache_capacity,
            ),
            sketches=ShardedSketchStore(num_shards=num_shards),
        )
        platform = cls(corpus=corpus, serving_backend=backend, **kwargs)
        if snapshot_dir is not None:
            platform.attach_snapshots(
                snapshot_dir, every_mutations=snapshot_every_mutations
            )
        return platform

    # -- durable state ------------------------------------------------------------
    def save(self, path) -> "Path":
        """Write a consistent snapshot of the platform to ``path``.

        ``path`` names the snapshot file directly, or a directory (the
        snapshot lands in ``<path>/snapshot.bin`` — the layout
        ``Mileena.load`` and :class:`~repro.persist.SnapshotManager`
        share).  The corpus is frozen while the image is captured, so a
        save racing register/unregister churn still produces one coherent
        state; the write itself is atomic (temp file + rename).  Saving
        into the managed layout supersedes any sibling ``wal.bin``: with
        a :class:`~repro.persist.SnapshotManager` attached to that
        directory the save is delegated to it (snapshot + WAL truncation,
        atomically); a leftover WAL from some *other* history is
        truncated, so a later ``Mileena.load(directory)`` can never
        replay foreign records on top of this snapshot.  Returns the
        snapshot file path.
        """
        from pathlib import Path

        from repro.persist import (
            SNAPSHOT_FILE,
            WAL_FILE,
            MutationWAL,
            snapshot_platform,
            write_snapshot,
        )

        path = Path(path)
        if path.is_dir():
            path = path / SNAPSHOT_FILE
        if self.snapshots is not None and Path(self.snapshots.snapshot_path) == path:
            return self.snapshots.snapshot()
        with self.corpus.frozen():
            sections = snapshot_platform(self)
        write_snapshot(path, sections)
        if path.name == SNAPSHOT_FILE:
            wal_path = path.with_name(WAL_FILE)
            if wal_path.exists():
                from repro.exceptions import PersistError

                try:
                    stale = MutationWAL(wal_path)
                    stale.truncate()
                    stale.close()
                except PersistError:
                    # Not even a WAL (foreign format): remove it outright.
                    wal_path.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path) -> "Mileena":
        """Warm-start a platform (flat or sharded, per the saved config).

        ``path`` is a snapshot file, or a durable-state directory — in
        which case the WAL tail is replayed on top of the snapshot, which
        is how a crashed service recovers everything after its last
        cadence snapshot.  The restored platform is bit-identical to the
        saved one: DP-randomised sketches are reloaded verbatim and the
        discovery engine's packed structures are rebuilt from the saved
        profiles in registration order.
        """
        from pathlib import Path

        from repro.persist import SnapshotManager, read_snapshot, restore_platform

        path = Path(path)
        if path.is_dir():
            return SnapshotManager.load(path)
        return restore_platform(read_snapshot(path))

    def attach_snapshots(
        self,
        directory,
        every_mutations: int | None = 64,
        every_seconds: float | None = None,
        clock: object | None = None,
        fsync: bool = False,
        metrics: object | None = None,
        keep_snapshots: int = 2,
    ) -> object:
        """Keep this platform's state durable under ``directory``.

        Creates (and attaches) a :class:`~repro.persist.SnapshotManager`:
        every corpus mutation is journaled to the WAL, and the cadence
        policy re-snapshots and truncates it.  Idempotent — a manager
        already attached is returned as is.
        """
        from repro.persist import SnapshotManager

        if self.snapshots is not None:
            return self.snapshots
        self.snapshots = SnapshotManager(
            self,
            directory,
            every_mutations=every_mutations,
            every_seconds=every_seconds,
            clock=clock,
            fsync=fsync,
            metrics=metrics if metrics is not None else self.metrics,
            keep_snapshots=keep_snapshots,
        ).attach()
        return self.snapshots

    # -- provider side ------------------------------------------------------------
    def register_dataset(
        self,
        relation: Relation,
        epsilon: float | None = None,
        delta: float = 1e-6,
        provider: str = "anonymous",
        features: list[str] | None = None,
        key_columns: list[str] | None = None,
        transform_pipeline: object | None = None,
    ) -> DatasetRegistration:
        """Register a provider dataset (optionally privatised and transformed)."""
        budget = PrivacyBudget(epsilon, delta) if epsilon is not None else None
        provider_agent = Provider(provider, builder=self.builder, transformer=transform_pipeline)
        upload = provider_agent.prepare(
            relation,
            budget=budget,
            features=features,
            key_columns=key_columns,
            transform=transform_pipeline is not None,
        )
        registration = DatasetRegistration(
            relation=upload.relation,
            budget=budget,
            sketch=upload.sketch,
            provider=provider,
        )
        self.corpus.add(registration)
        return registration

    def register_corpus(self, relations: list[Relation], epsilon: float | None = None) -> int:
        """Register many datasets at once; returns how many were accepted."""
        accepted = 0
        for relation in relations:
            try:
                self.register_dataset(relation, epsilon=epsilon)
                accepted += 1
            except (SearchError, Exception) as error:  # noqa: BLE001 - skip unusable datasets
                if isinstance(error, KeyboardInterrupt):
                    raise
                continue
        return accepted

    # -- requester side -------------------------------------------------------------
    def discover_candidates(
        self, request: SearchRequest
    ) -> list[AugmentationCandidate]:
        """``Discover(R, ∪)`` and ``Discover(R, ⋈)`` for one request.

        Each side keeps its ``discovery_top_k`` best candidates.  When a
        serving-layer cache is attached, the candidate list is memoised on
        (train-relation fingerprint, join keys, top-k, corpus epoch):
        requests sharing a requester relation skip re-profiling and
        re-scanning, and any register/unregister bumps the epoch so stale
        candidates are never served.
        """
        if self.cache is None:
            return self._discover_candidates(request)
        from repro.serving.fingerprint import relation_fingerprint

        key = (
            "discover",
            relation_fingerprint(request.train),
            tuple(request.join_keys),
            self.discovery_top_k,
            self.corpus.epoch,
        )
        return self.cache.get_or_compute(
            key, lambda: self._discover_candidates(request)
        )

    def _discover_candidates(
        self, request: SearchRequest
    ) -> list[AugmentationCandidate]:
        top_k = self.discovery_top_k
        if self.metrics is not None:
            self.metrics.increment("platform.discoveries")
        with span("discovery.join") as join_span:
            join_candidates = self.corpus.discovery.join_candidates(
                request.train, top_k=top_k
            )
            join_span.annotate(candidates=len(join_candidates))
        with span("discovery.union") as union_span:
            union_candidates = self.corpus.discovery.union_candidates(
                request.train, top_k=top_k
            )
            union_span.annotate(candidates=len(union_candidates))
        candidates: list[AugmentationCandidate] = []
        for candidate in join_candidates:
            if candidate.query_column not in request.join_keys:
                continue
            candidates.append(
                AugmentationCandidate(
                    kind=JOIN,
                    dataset=candidate.dataset,
                    join_key=candidate.query_column,
                )
            )
        for candidate in union_candidates:
            candidates.append(
                AugmentationCandidate(
                    kind=UNION,
                    dataset=candidate.dataset,
                    column_mapping=candidate.column_mapping,
                )
            )
        return candidates

    def search(
        self, request: SearchRequest, train_final_model: bool = True
    ) -> SearchResult:
        """Solve Problem 1 for one request.

        ``train_final_model=False`` stops after the proxy score and leaves
        ``final_report`` empty.
        """
        timer = BudgetTimer(self.clock, request.time_budget_seconds)
        requester = Requester("requester", builder=self.builder)
        with span("compute.sketches"):
            sketches = requester.build_sketches(request)
        state = AugmentationState.from_sketches(
            request.target, sketches.train, sketches.test
        )
        candidates = self.discover_candidates(request)
        search = GreedySketchSearch(
            store=self.corpus.sketches, proxy=self.proxy, clock=self.clock
        )
        with span("score.greedy") as greedy:
            greedy.annotate(num_candidates=len(candidates))
            plan, state = search.run(
                state,
                candidates,
                max_augmentations=request.max_augmentations,
                min_improvement=request.min_improvement,
                time_budget_seconds=timer.remaining() if request.time_budget_seconds else None,
            )
        with span("score.proxy"):
            proxy_score = self.proxy.evaluate(
                state.train_element(), state.test_element(), request.target
            )
        final_report = None
        if train_final_model:
            relations = {name: reg.relation for name, reg in self.corpus.registrations.items()}
            with span("score.final_model"):
                final_report = requester.train_final_model(request, plan, relations)
        elapsed = timer.elapsed()
        if self.metrics is not None:
            self.metrics.increment("platform.searches")
            self.metrics.observe("platform.search_seconds", elapsed)
        return SearchResult(
            plan=plan,
            proxy_test_r2=proxy_score.test_r2,
            final_report=final_report,
            elapsed_seconds=elapsed,
            candidates_considered=len(candidates),
        )

    # -- introspection ------------------------------------------------------------------
    def corpus_size(self) -> int:
        """Number of registered provider datasets."""
        return len(self.corpus)

    def dataset_names(self) -> list[str]:
        """Names of all registered datasets."""
        return self.corpus.names()

    def candidate_pairs(self) -> list[tuple[str, str]]:
        """All (dataset, join key) pairs available for vertical augmentation."""
        pairs = []
        for name in self.corpus.names():
            sketch = self.corpus.sketches.get(name)
            pairs.extend(itertools.product([name], sketch.join_keys))
        return pairs
