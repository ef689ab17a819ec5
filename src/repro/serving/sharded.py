"""Sharded variants of the sketch store and discovery index.

Datasets are partitioned across N shards by a stable hash of their name
(CRAM-style lookup scaling: each shard holds a fraction of the corpus, and
queries fan out and merge).  Both classes satisfy the flat variants'
protocols (:class:`repro.sketches.store.SketchStoreLike`,
:class:`repro.discovery.index.DiscoveryIndexLike`) and are **result
identical** to them:

* a global registration sequence is kept so merged lookups and candidate
  lists come back in exactly the order a flat scan would produce;
* the sharded index shares one corpus-level :class:`IdfModel` across all
  shards, so union scores use global IDF weights, and the query relation is
  profiled once and reused by every shard.

Registration writes and fan-out queries are serialised by a per-structure
lock: a register/unregister mutating a shard dictionary while a query
iterates it would raise ``RuntimeError: dictionary changed size during
iteration``.  Point lookups (``get``/``in``/``len``) are single dict
operations and stay lock-free.
"""

from __future__ import annotations

import threading

from repro.discovery.engine import VersionedCache
from repro.discovery.index import DiscoveryIndex, JoinCandidate, UnionCandidate
from repro.discovery.minhash import MinHasher
from repro.discovery.profiles import DatasetProfile, profile_relation
from repro.discovery.tfidf import IdfModel
from repro.exceptions import DiscoveryError, SketchError
from repro.obs import span
from repro.relational.relation import Relation
from repro.serving.fingerprint import stable_hash
from repro.serving.metrics import MetricsRegistry
from repro.sketches.sketch import RelationSketch
from repro.sketches.store import SketchStore

JOIN = "join"
UNION = "union"


class ShardedSketchStore:
    """A sketch store partitioned across N flat stores by dataset-name hash."""

    def __init__(
        self,
        num_shards: int = 4,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_shards <= 0:
            raise SketchError("num_shards must be positive")
        self.num_shards = num_shards
        self.metrics = metrics
        self.shards = [SketchStore() for _ in range(num_shards)]
        # Global registration order: dataset name → insertion sequence number.
        self._sequence: dict[str, int] = {}
        self._next_sequence = 0
        self._lock = threading.Lock()

    def _shard_for(self, dataset: str) -> SketchStore:
        return self.shards[stable_hash(dataset) % self.num_shards]

    def _record(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.increment(name)

    # -- registry --------------------------------------------------------------
    def add(self, sketch: RelationSketch, replace: bool = False) -> None:
        with self._lock:
            self._shard_for(sketch.dataset).add(sketch, replace=replace)
            # A replace re-registers at the end of the global order, matching
            # the flat store's behaviour.
            self._sequence.pop(sketch.dataset, None)
            self._sequence[sketch.dataset] = self._next_sequence
            self._next_sequence += 1
        self._record("sketch_store.adds")

    def get(self, dataset: str) -> RelationSketch:
        self._record("sketch_store.gets")
        return self._shard_for(dataset).get(dataset)

    def remove(self, dataset: str) -> None:
        with self._lock:
            self._shard_for(dataset).remove(dataset)
            self._sequence.pop(dataset, None)
        self._record("sketch_store.removes")

    def __contains__(self, dataset: object) -> bool:
        if not isinstance(dataset, str):
            return False
        return dataset in self._shard_for(dataset)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def datasets(self) -> list[str]:
        """All registered dataset names, in global registration order."""
        return list(self._sequence)

    # -- lookups ---------------------------------------------------------------
    def with_join_key(self, key: str) -> list[RelationSketch]:
        """Fan out the keyed lookup and merge in registration order."""
        self._record("sketch_store.join_key_lookups")
        with self._lock:
            matches = [
                sketch for shard in self.shards for sketch in shard.with_join_key(key)
            ]
            matches.sort(key=lambda sketch: self._sequence[sketch.dataset])
        return matches

    def unionable_with(self, features: tuple[str, ...]) -> list[RelationSketch]:
        """Fan out the feature-set lookup and merge in registration order."""
        self._record("sketch_store.unionable_lookups")
        with self._lock:
            matches = [
                sketch
                for shard in self.shards
                for sketch in shard.unionable_with(features)
            ]
            matches.sort(key=lambda sketch: self._sequence[sketch.dataset])
        return matches


class ShardedDiscoveryIndex:
    """A discovery index partitioned across N flat indices by dataset-name hash.

    All shards share one :class:`MinHasher` (so profiles are comparable),
    one :class:`IdfModel` (so union similarities are scored against the
    corpus-level document frequencies, exactly as the flat index does), and
    one :class:`VersionedCache` of IDF-weighted sketch norms keyed on
    ``IdfModel.version`` — a fan-out query computes each norm once, not
    once per shard.

    Each shard runs the packed vectorized engine (``vectorized`` is
    forwarded).
    """

    def __init__(
        self,
        num_shards: int = 4,
        minhasher: MinHasher | None = None,
        join_threshold: float = 0.3,
        union_threshold: float = 0.55,
        metrics: MetricsRegistry | None = None,
        vectorized: bool = True,
    ) -> None:
        if num_shards <= 0:
            raise DiscoveryError("num_shards must be positive")
        self.num_shards = num_shards
        self.minhasher = minhasher if minhasher is not None else MinHasher()
        self.idf_model = IdfModel()
        self.metrics = metrics
        # Constructor knobs are kept as attributes so snapshot sections
        # (snapshot files and process-backend replicas alike) can rebuild
        # an identically configured index (see
        # repro.persist.snapshot.capture_engine_config).
        self.join_threshold = join_threshold
        self.union_threshold = union_threshold
        self.vectorized = vectorized
        self.norm_cache = VersionedCache(lambda: self.idf_model.version)
        self.shards = [
            DiscoveryIndex(
                minhasher=self.minhasher,
                join_threshold=join_threshold,
                union_threshold=union_threshold,
                idf_model=self.idf_model,
                vectorized=vectorized,
                norm_cache=self.norm_cache,
            )
            for _ in range(num_shards)
        ]
        self._sequence: dict[str, int] = {}
        self._next_sequence = 0
        self._lock = threading.Lock()

    def _shard_for(self, dataset: str) -> DiscoveryIndex:
        return self.shards[stable_hash(dataset) % self.num_shards]

    def _record(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.increment(name)

    # -- registration ----------------------------------------------------------
    def register(self, relation: Relation) -> DatasetProfile:
        profile = profile_relation(relation, self.minhasher)
        self.register_profile(profile)
        return profile

    def register_profile(self, profile: DatasetProfile) -> None:
        with self._lock:
            self._shard_for(profile.dataset).register_profile(profile)
            # Re-registration moves the dataset to the end of the global
            # order, matching the flat index's unregister-then-add behaviour.
            self._sequence.pop(profile.dataset, None)
            self._sequence[profile.dataset] = self._next_sequence
            self._next_sequence += 1
        self._record("discovery.registrations")

    def unregister(self, dataset: str) -> None:
        with self._lock:
            self._shard_for(dataset).unregister(dataset)
            self._sequence.pop(dataset, None)
        self._record("discovery.unregistrations")

    def __contains__(self, dataset: object) -> bool:
        if not isinstance(dataset, str):
            return False
        return dataset in self._shard_for(dataset)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def profiles_in_order(self) -> list[DatasetProfile]:
        """Every registered profile, in *global* registration order.

        The sharded counterpart of the flat index's ``profiles_in_order``:
        profiles live in their shards, the global ``_sequence`` supplies
        the order.  Replaying the list through ``register_profile`` on a
        fresh sharded index (same shard count, same hasher) reproduces the
        per-shard packed structures and the merge order exactly — this is
        what the persistence layer snapshots.
        """
        with self._lock:
            return [
                self._shard_for(dataset).profiles[dataset]
                for dataset in self._sequence
            ]

    # -- discovery -------------------------------------------------------------
    def discover(self, query: Relation, augmentation_type: str, top_k: int | None = None):
        if augmentation_type == JOIN:
            return self.join_candidates(query, top_k)
        if augmentation_type == UNION:
            return self.union_candidates(query, top_k)
        raise DiscoveryError(f"unknown augmentation type {augmentation_type!r}")

    def join_candidates(self, query: Relation, top_k: int | None = None) -> list[JoinCandidate]:
        """Profile the query once, fan out, merge in flat-scan order."""
        self._record("discovery.join_queries")
        with span("discovery.shard_fanout", kind=JOIN, num_shards=self.num_shards):
            query_profile = profile_relation(query, self.minhasher)
            with self._lock:
                results = [
                    candidate
                    for shard in self.shards
                    for candidate in shard.join_candidates_for_profile(query_profile)
                ]
                return self._merge(results, top_k)

    def union_candidates(self, query: Relation, top_k: int | None = None) -> list[UnionCandidate]:
        """Profile the query and compute corpus IDF once, fan out, merge."""
        self._record("discovery.union_queries")
        with span("discovery.shard_fanout", kind=UNION, num_shards=self.num_shards):
            query_profile = profile_relation(query, self.minhasher)
            with self._lock:
                # Corpus-level IDF weights and the query columns' weighted norms
                # are computed once here and shared by every shard.
                idf = self.idf_model.idf()
                query_norms = self.shards[0].query_column_norms(query_profile, idf)
                results = [
                    candidate
                    for shard in self.shards
                    for candidate in shard.union_candidates_for_profile(
                        query_profile, idf=idf, query_norms=query_norms
                    )
                ]
                return self._merge(results, top_k)

    def _merge(self, candidates, top_k: int | None):
        # The flat index sorts by descending similarity with Python's stable
        # sort, so ties keep registration order; sorting the merged list by
        # (-similarity, registration sequence) reproduces that byte for byte.
        # ``.get`` guards against a dataset unregistered after the shard
        # query produced its candidate (callers hold the lock, so this is
        # belt-and-braces, not an expected path).
        fallback = self._next_sequence
        candidates.sort(
            key=lambda candidate: (
                -candidate.similarity,
                self._sequence.get(candidate.dataset, fallback),
            )
        )
        return candidates[:top_k] if top_k is not None else candidates
