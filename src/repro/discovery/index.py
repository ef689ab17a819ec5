"""The Aurum-style discovery index.

``Discover(R, augType)`` of Problem 1: given a requester relation, find
provider datasets that can be **joined** (a column pair with high estimated
Jaccard similarity and compatible key-ness) or **unioned** (schemas whose
columns align under TF-IDF cosine similarity).

The index holds only profiles/sketches — never raw provider rows — matching
the paper's architecture, where discovery runs on uploaded metadata.

Discovery is the serving hot path, so the index keeps two implementations:

* the **vectorized engine** (default): joinable-column signatures live in a
  packed ``int64`` matrix (:class:`PackedSignatureMatrix`), so one join
  query is a single broadcast comparison over the whole corpus plus a
  segmented max-reduction; union queries are a sparse term-matrix product
  (:class:`SparseTermMatrix`): one vectorized dot per query column scores
  the *whole corpus* at once, with per-sketch IDF-weighted norms memoised
  against ``IdfModel.version``;
* the **scalar reference** (``vectorized=False`` or the ``*_scalar``
  methods): the original nested-loop implementation, kept as the parity
  oracle — the vectorized path returns candidate lists identical to
  it (same candidates, same order, bit-equal similarities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from repro.discovery.engine import (
    PackedSignatureMatrix,
    SparseTermMatrix,
    VersionedCache,
)
from repro.discovery.minhash import MinHasher
from repro.discovery.profiles import DatasetProfile, profile_relation
from repro.discovery.tfidf import IdfModel
from repro.exceptions import DiscoveryError
from repro.obs import span
from repro.relational.relation import Relation

JOIN = "join"
UNION = "union"


@dataclass(frozen=True)
class JoinCandidate:
    """A provider dataset joinable with the query relation."""

    dataset: str
    query_column: str
    candidate_column: str
    similarity: float


@dataclass(frozen=True)
class UnionCandidate:
    """A provider dataset unionable with the query relation."""

    dataset: str
    column_mapping: tuple[tuple[str, str], ...]
    similarity: float


@runtime_checkable
class DiscoveryIndexLike(Protocol):
    """The index surface the platform (and serving layer) depends on.

    Both the flat :class:`DiscoveryIndex` and the serving layer's
    ``ShardedDiscoveryIndex`` satisfy this protocol, which is what lets the
    sharded variant drop into :class:`repro.core.catalog.Corpus` unchanged.
    """

    def register(self, relation: Relation) -> DatasetProfile: ...

    def register_profile(self, profile: DatasetProfile) -> None: ...

    def unregister(self, dataset: str) -> None: ...

    def __contains__(self, dataset: object) -> bool: ...

    def __len__(self) -> int: ...

    def discover(self, query: Relation, augmentation_type: str, top_k: int | None = None): ...

    def join_candidates(self, query: Relation, top_k: int | None = None) -> list[JoinCandidate]: ...

    def union_candidates(self, query: Relation, top_k: int | None = None) -> list[UnionCandidate]: ...


@dataclass
class DiscoveryIndex:
    """Profiles of every registered dataset plus corpus-level IDF statistics.

    Engine knobs (see ``docs/TUNING.md`` for trade-off guidance):

    ===================  =========  ==================================================
    knob                 default    effect
    ===================  =========  ==================================================
    ``vectorized``       ``True``   packed-matrix join scan + sparse union scoring;
                                    ``False`` restores the scalar reference loops
    ===================  =========  ==================================================

    The vectorized paths stay result-identical to the scalar
    reference — joins via the packed signature matrix, unions via the
    sparse term matrix whose accumulation order reproduces the scalar
    float arithmetic bit for bit.  ``norm_cache`` memoises per-sketch
    IDF-weighted norms against ``idf_model.version``; the sharded index
    passes one shared cache to every shard.
    """

    minhasher: MinHasher = field(default_factory=MinHasher)
    join_threshold: float = 0.3
    union_threshold: float = 0.55
    # Filled only through register/register_profile, which also feed the
    # IDF model and the packed structures.
    profiles: dict[str, DatasetProfile] = field(default_factory=dict, init=False)
    idf_model: IdfModel = field(default_factory=IdfModel)
    vectorized: bool = True
    norm_cache: VersionedCache | None = None

    def __post_init__(self) -> None:
        self._signatures = PackedSignatureMatrix(self.minhasher.num_hashes)
        self._terms = SparseTermMatrix()
        if self.norm_cache is None:
            self.norm_cache = VersionedCache(lambda: self.idf_model.version)
        # Datasets whose sketches do not fit the packed matrix (e.g. a
        # profile built with a different MinHasher width); while any is
        # registered, the scalar reference serves every join query,
        # preserving the flat index's historical behaviour for exotic
        # profiles.  Unregistering the offenders restores the fast path.
        self._unpacked: set[str] = set()

    # -- registration ----------------------------------------------------------
    def register(self, relation: Relation) -> DatasetProfile:
        """Profile a provider relation and add it to the index."""
        profile = profile_relation(relation, self.minhasher)
        self.register_profile(profile)
        return profile

    def register_profile(self, profile: DatasetProfile) -> None:
        """Add a pre-computed profile (e.g. produced locally by a provider).

        Re-registering a dataset replaces its profile: the old profile's IDF
        documents are removed first, so repeated registration cannot inflate
        the corpus-level document frequencies.
        """
        if profile.dataset in self.profiles:
            self.unregister(profile.dataset)
        self.profiles[profile.dataset] = profile
        for column_profile in profile.columns.values():
            if column_profile.tfidf is not None:
                self.idf_model.add_document(column_profile.tfidf)
        self._index_profile(profile)

    def unregister(self, dataset: str) -> None:
        """Remove a dataset from the index, including its IDF documents."""
        profile = self.profiles.pop(dataset, None)
        if profile is None:
            return
        for column_profile in profile.columns.values():
            if column_profile.tfidf is not None:
                self.idf_model.remove_document(column_profile.tfidf)
        self._deindex_profile(profile)

    def _index_profile(self, profile: DatasetProfile) -> None:
        """Incrementally add one profile to the packed structures."""
        for column_profile in profile.joinable_columns():
            sketch = column_profile.minhash
            if sketch is None:
                continue
            if len(sketch.signature) != self._signatures.num_hashes:
                # Can't pack a foreign-width signature; fall back to the
                # scalar path (which raises on the mismatched comparison,
                # exactly as the historical implementation did).
                self._unpacked.add(profile.dataset)
                continue
            self._signatures.add(
                profile.dataset,
                column_profile.column,
                sketch.signature_array(),
                sketch.num_values,
            )
        for column_profile in profile.columns.values():
            if column_profile.tfidf is not None:
                self._terms.add(
                    profile.dataset,
                    column_profile.column,
                    column_profile.dtype,
                    column_profile.tfidf,
                )

    def _deindex_profile(self, profile: DatasetProfile) -> None:
        self._signatures.remove_dataset(profile.dataset)
        self._terms.remove_dataset(profile.dataset)
        self._unpacked.discard(profile.dataset)

    def __contains__(self, dataset: object) -> bool:
        return dataset in self.profiles

    def __len__(self) -> int:
        return len(self.profiles)

    def profiles_in_order(self) -> list[DatasetProfile]:
        """Every registered profile, in global registration order.

        ``profiles`` is insertion-ordered and re-registration moves a
        dataset to the end, so iterating it *is* the registration order —
        replaying these profiles through :meth:`register_profile` on a
        fresh index rebuilds identical packed structures, IDF document
        frequencies, and candidate tie-breaking.  The persistence layer's
        snapshots serialise exactly this list.
        """
        return list(self.profiles.values())

    # -- discovery ---------------------------------------------------------------
    def discover(self, query: Relation, augmentation_type: str, top_k: int | None = None):
        """``Discover(R, augType)``: join or union candidates for a query relation."""
        if augmentation_type == JOIN:
            candidates = self.join_candidates(query, top_k)
        elif augmentation_type == UNION:
            candidates = self.union_candidates(query, top_k)
        else:
            raise DiscoveryError(f"unknown augmentation type {augmentation_type!r}")
        return candidates

    def join_candidates(self, query: Relation, top_k: int | None = None) -> list[JoinCandidate]:
        """Provider columns whose value sets overlap a query column."""
        query_profile = profile_relation(query, self.minhasher)
        return self.join_candidates_for_profile(query_profile, top_k)

    def join_candidates_for_profile(
        self, query_profile: DatasetProfile, top_k: int | None = None
    ) -> list[JoinCandidate]:
        """Join candidates for an already-profiled query (shards reuse the profile)."""
        if not self.vectorized or self._unpacked:
            return self.join_candidates_for_profile_scalar(query_profile, top_k)
        return self._join_candidates_vectorized(query_profile, top_k)

    def union_candidates(self, query: Relation, top_k: int | None = None) -> list[UnionCandidate]:
        """Provider datasets whose schemas align column-by-column with the query."""
        query_profile = profile_relation(query, self.minhasher)
        return self.union_candidates_for_profile(query_profile, top_k)

    def union_candidates_for_profile(
        self,
        query_profile: DatasetProfile,
        top_k: int | None = None,
        idf: dict[str, float] | None = None,
        query_norms: dict[str, float] | None = None,
    ) -> list[UnionCandidate]:
        """Union candidates for an already-profiled query.

        ``idf`` and ``query_norms`` let a sharded index compute the
        corpus-level IDF weights and the query columns' weighted norms once
        and pass them to every shard.
        """
        if not self.vectorized:
            return self.union_candidates_for_profile_scalar(query_profile, top_k, idf)
        if idf is None:
            idf = self.idf_model.idf()
        if query_norms is None:
            query_norms = self.query_column_norms(query_profile, idf)
        return self._union_candidates_sparse(query_profile, top_k, idf, query_norms)

    def query_column_norms(
        self, query_profile: DatasetProfile, idf: Mapping[str, float]
    ) -> dict[str, float]:
        """IDF-weighted norm of every query column sketch, computed once."""
        return {
            name: column.tfidf.norm(idf)
            for name, column in query_profile.columns.items()
            if column.tfidf is not None
        }

    # -- vectorized join engine -----------------------------------------------
    def _join_candidates_vectorized(
        self, query_profile: DatasetProfile, top_k: int | None
    ) -> list[JoinCandidate]:
        engine = self._signatures
        query_columns = [
            column
            for column in query_profile.joinable_columns()
            if column.minhash is not None
        ]
        results: list[JoinCandidate] = []
        if query_columns and len(engine):
            width = engine.num_hashes
            for column in query_columns:
                if len(column.minhash.signature) != width:
                    raise DiscoveryError(
                        "cannot compare MinHash sketches of different widths"
                    )
            signatures = np.array(
                [column.minhash.signature for column in query_columns], dtype=np.int64
            )
            valid = np.array(
                [column.minhash.num_values > 0 for column in query_columns], dtype=bool
            )
            # One engine call hands back a layout and similarities built
            # from the same snapshot, so a concurrent register/unregister
            # cannot misalign the two.
            with span("discovery.join_verify"):
                selection, sims = engine.scan(signatures)
            if selection[0].size:
                results = self._join_segment_results(
                    query_profile, query_columns, valid, selection, sims
                )
        results.sort(key=lambda candidate: -candidate.similarity)
        return results[:top_k] if top_k is not None else results

    def _join_segment_results(
        self,
        query_profile: DatasetProfile,
        query_columns: list,
        valid: np.ndarray,
        selection: tuple,
        sims: np.ndarray,
    ) -> list[JoinCandidate]:
        """Per-segment winners of one (layout, similarities) pair (unsorted)."""
        results: list[JoinCandidate] = []
        row_ids, starts, segments = selection
        sims[~valid, :] = 0.0
        total_rows = row_ids.size
        num_query = sims.shape[0]
        segment_lengths = np.diff(np.append(starts, total_rows))
        segment_max = np.maximum.reduceat(sims, starts, axis=1).max(axis=0)
        hit_mask = segment_max >= self.join_threshold
        if hit_mask.any():
            # Recover, per hit segment, the first (query column,
            # candidate column) pair achieving the segment max — the
            # same pair the scalar loop's strict-> replacement picks.
            # Each cell is ranked by its flat position in the scalar
            # iteration order (query-major within the segment), and
            # a min-reduce finds the earliest max-achieving cell.
            segment_of_column = np.repeat(np.arange(len(segments)), segment_lengths)
            column_max = segment_max[segment_of_column]
            local_offset = np.arange(total_rows) - starts[segment_of_column]
            rank = (
                np.arange(num_query)[:, None] * segment_lengths[segment_of_column][None, :]
                + local_offset[None, :]
            )
            sentinel = num_query * total_rows + 1
            rank = np.where(sims == column_max[None, :], rank, sentinel)
            first_rank = np.minimum.reduceat(rank.min(axis=0), starts)
            for segment_index in map(int, np.flatnonzero(hit_mask)):
                dataset, rows, column_names = segments[segment_index]
                if dataset == query_profile.dataset:
                    continue
                query_index, row_index = divmod(
                    int(first_rank[segment_index]), len(rows)
                )
                results.append(
                    JoinCandidate(
                        dataset,
                        query_columns[query_index].column,
                        column_names[row_index],
                        float(segment_max[segment_index]),
                    )
                )
        return results

    # -- sparse union engine ---------------------------------------------------
    def _union_candidates_sparse(
        self,
        query_profile: DatasetProfile,
        top_k: int | None,
        idf: dict[str, float],
        query_norms: dict[str, float],
    ) -> list[UnionCandidate]:
        """Union scoring as a sparse term-matrix product.

        One :meth:`SparseTermMatrix.weighted_dot` per query column yields
        cosine numerators against the *whole corpus* at once; dividing by
        the cached per-row norms gives every pair similarity in a handful
        of vectorized ops, and :meth:`_union_results` maps the survivors.
        """
        terms = self._terms
        results: list[UnionCandidate] = []
        size = terms.capacity
        if size and len(terms):
            row_norms = self._row_norms(idf, size)
            scored: list[tuple[object, np.ndarray]] = []
            with span("discovery.union_dot", rows=size) as dot_span:
                for query_column in query_profile.columns.values():
                    sketch = query_column.tfidf
                    if sketch is None or not sketch.term_counts:
                        continue
                    query_norm = query_norms.get(query_column.column, 0.0)
                    if query_norm == 0.0:
                        continue
                    dot = terms.weighted_dot(sketch.term_counts, idf, size)
                    # dot / (query_norm · row_norm): the same two float ops,
                    # in the same order, as the scalar cosine's final division.
                    denominator = query_norm * row_norms
                    similarities = np.divide(
                        dot,
                        denominator,
                        out=np.zeros(size, dtype=np.float64),
                        where=denominator != 0.0,
                    )
                    scored.append((query_column, similarities))
                dot_span.annotate(query_columns=len(scored))
            results = self._union_results(query_profile, scored, size)
        results.sort(key=lambda candidate: -candidate.similarity)
        return results[:top_k] if top_k is not None else results

    def _union_results(
        self,
        query_profile: DatasetProfile,
        scored: list[tuple[object, np.ndarray]],
        size: int,
    ) -> list[UnionCandidate]:
        """Candidates of one query from its scored columns (unsorted).

        Datasets are pruned by a vectorized bound before any Python work:
        a dataset's greedy score is an average of pair similarities times
        a ≤1 coverage factor, so it can never exceed its best compatible
        pair — rows whose best similarity is below the threshold are
        skipped wholesale.  Surviving datasets run the same greedy mapping
        as the scalar oracle over the precomputed (bit-equal) similarities.
        """
        if not scored:
            return []
        terms = self._terms
        results: list[UnionCandidate] = []
        best = np.zeros(size, dtype=np.float64)
        for query_column, similarities in scored:
            mask = terms.compatible_rows(query_column.dtype, size)
            np.maximum(best, np.where(mask, similarities, 0.0), out=best)
        hits = best >= self.union_threshold
        hits &= best > 0.0
        for dataset in terms.datasets_of_rows(np.flatnonzero(hits)):
            if dataset == query_profile.dataset or dataset not in self.profiles:
                continue
            candidate = self._map_union_candidate(dataset, query_profile, scored, size)
            if candidate is not None:
                results.append(candidate)
        return results

    def _map_union_candidate(
        self,
        dataset: str,
        query_profile: DatasetProfile,
        scored: list[tuple[object, np.ndarray]],
        size: int,
    ) -> UnionCandidate | None:
        """Greedy column mapping from precomputed pair similarities.

        Only positive-similarity compatible pairs are assembled: the
        greedy mapper sorts descending and stops at the first
        non-positive pair, so dropping them up front changes nothing.
        Rows at or past ``size`` were registered after this query's
        snapshot and are skipped, like the other engine read paths.
        """
        terms = self._terms
        columns = [
            (row, terms.column_of(row), terms.dtype_of(row))
            for row in terms.rows_for(dataset)
            if row < size
        ]
        pairs: list[tuple[float, str, str]] = []
        for query_column, similarities in scored:
            query_dtype = query_column.dtype
            key_like = query_dtype in ("key", "categorical")
            for row, column_name, dtype in columns:
                if query_dtype != dtype and not (
                    key_like and dtype in ("key", "categorical")
                ):
                    continue
                similarity = similarities[row]
                if similarity > 0.0:
                    pairs.append((float(similarity), query_column.column, column_name))
        mapping, score = self._greedy_mapping(pairs, query_profile)
        if mapping and score >= self.union_threshold:
            return UnionCandidate(dataset, tuple(mapping), score)
        return None

    def _row_norms(self, idf: dict[str, float], size: int) -> np.ndarray:
        """Dense IDF-weighted norms of every term-matrix row.

        Individual norms come from the shared version-keyed ``norm_cache``
        under the same ``(dataset, column)`` keys the scalar fast path
        used, so shards (and repeated queries) compute each norm once per
        IDF version; the assembled array is itself cached per corpus
        mutation.
        """
        terms = self._terms
        norm_cache = self.norm_cache

        def build() -> np.ndarray:
            norms = np.zeros(size, dtype=np.float64)
            for row, dataset, column, sketch in terms.iter_rows():
                if row >= size:
                    continue
                norms[row] = norm_cache.get_or_compute(
                    (dataset, column), lambda sketch=sketch: sketch.norm(idf)
                )
            return norms

        return norm_cache.get_or_compute(
            ("__row_norms__", id(terms), terms.mutations, size), build
        )

    # -- scalar reference (parity oracle) ---------------------------------------
    def join_candidates_scalar(
        self, query: Relation, top_k: int | None = None
    ) -> list[JoinCandidate]:
        """The original nested-loop join scan (reference for parity tests)."""
        query_profile = profile_relation(query, self.minhasher)
        return self.join_candidates_for_profile_scalar(query_profile, top_k)

    def join_candidates_for_profile_scalar(
        self, query_profile: DatasetProfile, top_k: int | None = None
    ) -> list[JoinCandidate]:
        results: list[JoinCandidate] = []
        # Hoisted out of the loops: joinable_columns() rebuilds a list per
        # call, and the inner loop used to rebuild the candidate's list once
        # per query column.
        query_joinable = query_profile.joinable_columns()
        # Snapshot the registry so a concurrent register/unregister cannot
        # break iteration mid-query.
        for dataset, profile in list(self.profiles.items()):
            if dataset == query_profile.dataset:
                continue
            candidate_joinable = profile.joinable_columns()
            best: JoinCandidate | None = None
            for query_column in query_joinable:
                for candidate_column in candidate_joinable:
                    similarity = query_column.minhash.jaccard(candidate_column.minhash)
                    if similarity < self.join_threshold:
                        continue
                    if best is None or similarity > best.similarity:
                        best = JoinCandidate(
                            dataset, query_column.column, candidate_column.column, similarity
                        )
            if best is not None:
                results.append(best)
        results.sort(key=lambda candidate: -candidate.similarity)
        return results[:top_k] if top_k is not None else results

    def union_candidates_scalar(
        self, query: Relation, top_k: int | None = None
    ) -> list[UnionCandidate]:
        """The original full-corpus union scan (reference for parity tests)."""
        query_profile = profile_relation(query, self.minhasher)
        return self.union_candidates_for_profile_scalar(query_profile, top_k)

    def union_candidates_for_profile_scalar(
        self,
        query_profile: DatasetProfile,
        top_k: int | None = None,
        idf: dict[str, float] | None = None,
    ) -> list[UnionCandidate]:
        if idf is None:
            idf = self.idf_model.idf()
        results: list[UnionCandidate] = []
        for dataset, profile in list(self.profiles.items()):
            if dataset == query_profile.dataset:
                continue
            mapping, score = self._best_column_mapping(query_profile, profile, idf)
            if mapping and score >= self.union_threshold:
                results.append(UnionCandidate(dataset, tuple(mapping), score))
        results.sort(key=lambda candidate: -candidate.similarity)
        return results[:top_k] if top_k is not None else results

    # -- internals ------------------------------------------------------------------
    def _best_column_mapping(
        self,
        query_profile: DatasetProfile,
        candidate_profile: DatasetProfile,
        idf: dict[str, float],
    ) -> tuple[list[tuple[str, str]], float]:
        """Greedy 1-1 mapping between query and candidate columns by cosine similarity."""
        pairs: list[tuple[float, str, str]] = []
        for query_column in query_profile.columns.values():
            for candidate_column in candidate_profile.columns.values():
                if query_column.dtype != candidate_column.dtype and not (
                    query_column.dtype in ("key", "categorical")
                    and candidate_column.dtype in ("key", "categorical")
                ):
                    continue
                similarity = query_column.tfidf.cosine(candidate_column.tfidf, idf)
                pairs.append((similarity, query_column.column, candidate_column.column))
        return self._greedy_mapping(pairs, query_profile)

    def _greedy_mapping(
        self, pairs: list[tuple[float, str, str]], query_profile: DatasetProfile
    ) -> tuple[list[tuple[str, str]], float]:
        pairs.sort(reverse=True)
        used_query: set[str] = set()
        used_candidate: set[str] = set()
        mapping: list[tuple[str, str]] = []
        total = 0.0
        for similarity, query_column, candidate_column in pairs:
            if query_column in used_query or candidate_column in used_candidate:
                continue
            if similarity <= 0.0:
                break
            mapping.append((query_column, candidate_column))
            used_query.add(query_column)
            used_candidate.add(candidate_column)
            total += similarity
        if not mapping:
            return [], 0.0
        coverage = len(mapping) / max(len(query_profile.columns), 1)
        average = total / len(mapping)
        return mapping, average * coverage
