"""Packed data structures behind the vectorized discovery hot path.

The scalar :class:`repro.discovery.index.DiscoveryIndex` compares a query
against the corpus with O(datasets × query_cols × candidate_cols) Python
loops.  This module holds the structures that replace those loops:

* :class:`PackedSignatureMatrix` — every registered joinable column's
  MinHash signature as one row of a contiguous ``int64`` matrix, so a
  query's Jaccard estimates against the *whole corpus* are one broadcast
  ``==`` / ``sum`` instead of a Python loop per pair.
* :class:`SparseTermMatrix` — the corpus's TF-IDF sketches as one sparse
  term matrix (term-major CSR: one posting of ``(row, count)`` pairs per
  term), so a union query's cosine numerators against *every* registered
  column are a handful of vectorized posting updates instead of a Python
  dict walk per column pair.  Weighted postings (``count × idf``) are
  cached per IDF snapshot, version-keyed like the norm cache.
* :class:`VersionedCache` — a memo whose entries are valid for exactly one
  version of an upstream structure (e.g. weighted norms keyed on
  ``IdfModel.version``); the serving layer shares one across shards.

All structures are updated incrementally on register/unregister; freed
matrix rows are recycled through a free list.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.exceptions import DiscoveryError

_UNSET = object()

#: dtype-compatibility codes for :meth:`SparseTermMatrix.compatible_rows`.
_DTYPE_CODES = {"numeric": 0, "key": 1, "categorical": 2}


class VersionedCache:
    """A memo invalidated wholesale whenever an upstream version changes.

    ``version_source`` is polled on every access; when it differs from the
    version the entries were computed under, the cache empties itself.  Used
    for per-sketch IDF-weighted norms (version = ``IdfModel.version``) and
    shareable across shards because the version source is shared too.
    """

    def __init__(self, version_source: Callable[[], int]) -> None:
        self._version_source = version_source
        self._version: int | None = None
        self._entries: dict[Hashable, object] = {}
        self._lock = threading.Lock()

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        version = self._version_source()
        with self._lock:
            if version != self._version:
                self._entries = {}
                self._version = version
            value = self._entries.get(key, _UNSET)
        if value is not _UNSET:
            return value
        value = compute()
        with self._lock:
            # Only keep the value if the world did not move underneath the
            # computation (compute() may itself bump the version source).
            if self._version_source() == self._version:
                self._entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)


class PackedSignatureMatrix:
    """Row-packed MinHash signatures of all registered joinable columns.

    Rows are appended per (dataset, column) at registration and recycled via
    a free list on unregister; ``_dataset_rows`` preserves each dataset's
    column order (which the tie-breaking of the scalar reference depends
    on) and its own insertion order mirrors the index's ``profiles`` dict.
    """

    def __init__(self, num_hashes: int) -> None:
        if num_hashes <= 0:
            raise DiscoveryError("num_hashes must be positive")
        self.num_hashes = num_hashes
        self._matrix = np.empty((0, num_hashes), dtype=np.int64)
        self._num_values = np.empty((0,), dtype=np.int64)
        self._row_column: list[str | None] = []
        self._free: list[int] = []
        self._dataset_rows: dict[str, list[int]] = {}
        #: Bumped on every add/remove; callers key derived layouts on it.
        self.mutations = 0
        # One atomically-swapped tuple holding the per-dataset segment
        # layout AND the gathered signature block: readers grab a single
        # reference, so a concurrent register/unregister can never hand
        # them a layout from one corpus state and similarities from
        # another.
        self._layout_cache: tuple | None = None

    # -- registration ----------------------------------------------------------
    def _grow(self, minimum: int) -> None:
        capacity = max(minimum, max(16, 2 * self._matrix.shape[0]))
        matrix = np.empty((capacity, self.num_hashes), dtype=np.int64)
        matrix[: self._matrix.shape[0]] = self._matrix
        num_values = np.zeros(capacity, dtype=np.int64)
        num_values[: self._num_values.shape[0]] = self._num_values
        # Replace wholesale instead of resizing in place: an in-flight query
        # holding a view of the old buffer keeps reading consistent data.
        self._matrix = matrix
        self._num_values = num_values

    def add(self, dataset: str, column: str, signature: np.ndarray, num_values: int) -> None:
        """Pack one column signature (a ``(num_hashes,)`` int64 row)."""
        if signature.shape != (self.num_hashes,):
            raise DiscoveryError(
                f"signature width {signature.shape} does not match "
                f"matrix width {self.num_hashes}"
            )
        if self._free:
            row = self._free.pop()
        else:
            row = len(self._row_column)
            if row >= self._matrix.shape[0]:
                self._grow(row + 1)
            self._row_column.append(None)
        self._matrix[row] = signature
        self._num_values[row] = num_values
        self._row_column[row] = column
        self._dataset_rows.setdefault(dataset, []).append(row)
        self.mutations += 1
        self._layout_cache = None

    def remove_dataset(self, dataset: str) -> None:
        """Free every row belonging to ``dataset``."""
        rows = self._dataset_rows.pop(dataset, None)
        if not rows:
            return
        for row in rows:
            self._row_column[row] = None
            self._free.append(row)
        self.mutations += 1
        self._layout_cache = None

    # -- introspection ---------------------------------------------------------
    def __contains__(self, dataset: object) -> bool:
        return dataset in self._dataset_rows

    def __len__(self) -> int:
        return len(self._row_column) - len(self._free)

    def layout(self) -> tuple:
        """The full corpus packed as contiguous per-dataset segments.

        Returns ``(row_ids, segment_starts, segments, selected, empty)``
        where ``segments`` lists ``(dataset, rows, column_names)`` in
        registration order — the same order as the index's ``profiles``
        dict, because both are insertion-ordered and mutated in lockstep —
        and ``selected``/``empty`` are the gathered signature block and
        empty-sketch mask for exactly those rows.  The whole tuple is
        built together and cached until the next mutation, so one
        reference read hands a consistent snapshot to concurrent queries.
        """
        cache = self._layout_cache
        if cache is None:
            generation = self.mutations
            segments: list[tuple[str, list[int], list[str]]] = []
            flat: list[int] = []
            starts: list[int] = []
            for dataset, rows in list(self._dataset_rows.items()):
                if not rows:
                    continue
                starts.append(len(flat))
                segments.append(
                    (dataset, list(rows), [self._row_column[row] for row in rows])
                )
                flat.extend(rows)
            row_ids = np.asarray(flat, dtype=np.intp)
            cache = (
                row_ids,
                np.asarray(starts, dtype=np.intp),
                segments,
                self._matrix[row_ids],
                self._num_values[row_ids] == 0,
            )
            # Only publish if no mutation raced the build: a snapshot taken
            # mid-mutation must not outlive the mutation's invalidation.
            if self.mutations == generation:
                self._layout_cache = cache
        return cache

    def scan(self, query_signatures: np.ndarray):
        """One consistent (layout, similarities) pair for an exact scan.

        The similarities are the estimated Jaccard of every (query row,
        corpus row) pair: ``matches / num_hashes`` with float64 division —
        bit-identical to the scalar :meth:`MinHashSketch.jaccard` (which is
        ``int / int``), so vectorized similarities compare and sort exactly
        like scalar ones.  Rows with ``num_values == 0`` are zeroed,
        matching the scalar empty-sketch guard.
        """
        row_ids, starts, segments, selected, empty = self.layout()
        matches = (query_signatures[:, None, :] == selected[None, :, :]).sum(axis=2)
        sims = matches / selected.shape[1]
        sims[:, empty] = 0.0
        return (row_ids, starts, segments), sims


class SparseTermMatrix:
    """The corpus's TF-IDF sketches as one sparse term matrix (term-major CSR).

    Rows are (dataset, column) sketch vectors; storage is term-major — one
    posting per term holding the ``(row, count)`` pairs of every column
    containing it — which is the CSR of the transposed term matrix.  A
    union query's cosine numerators against the *whole corpus* are then
    one posting update per query term (:meth:`weighted_dot`) instead of a
    Python dict intersection per column pair.

    Postings are updated incrementally on register/unregister (rows are
    recycled through a free list, and only the touched terms' packed
    arrays are invalidated); the IDF-*weighted* posting values
    (``count × idf(term)``) are cached per IDF snapshot and rebuilt only
    when the corpus-level :class:`~repro.discovery.tfidf.IdfModel` hands
    out a new weights dict — the same version-keyed discipline as the
    norm cache.

    Bit-parity contract: :meth:`weighted_dot` accumulates its dense output
    **term by term in the query sketch's iteration order**, each step a
    single ``+=`` per posting row.  That reproduces the scalar oracle's
    ``dot += (q_count·idf) · (c_count·idf)`` loop exactly (absent terms
    contribute no addition at all), so the sparse path's similarities are
    bit-equal to :meth:`repro.discovery.tfidf.TfIdfSketch.cosine`.
    """

    def __init__(self) -> None:
        self._postings: dict[str, dict[int, int]] = {}
        self._row_dataset: list[str | None] = []
        self._row_column: list[str | None] = []
        self._row_dtype: list[str | None] = []
        self._row_sketch: list[object | None] = []
        self._dtype_codes = np.empty((0,), dtype=np.int8)
        self._free: list[int] = []
        self._dataset_rows: dict[str, list[int]] = {}
        self._dataset_seq: dict[str, int] = {}
        self._next_seq = 0
        #: Bumped on every add/remove; callers key derived layouts on it.
        self.mutations = 0
        # term → (rows int64[], counts int64[]) packed posting arrays,
        # rebuilt lazily per term after a mutation touches the term.
        self._packed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # term → counts × idf(term), valid only for the exact idf dict in
        # ``_weighted_for`` (IdfModel.idf() memoises per version, so a new
        # corpus version hands out a new dict and empties this cache).
        self._weighted: dict[str, np.ndarray] = {}
        self._weighted_for: Mapping[str, float] | None = None
        # Guards _postings/_packed/_weighted/_weighted_for: like the
        # VersionedCache, query-side memos must stay coherent when the
        # gateway's thread backend races queries against register/
        # unregister on a flat (unsharded) index.  Entries are only served
        # to callers whose idf dict is identical to _weighted_for, so a
        # straggler holding a pre-mutation snapshot can thrash the cache
        # but never hand mixed-snapshot weights to anyone.
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------------
    def add(
        self, dataset: str, column: str, dtype: str, sketch
    ) -> None:
        """Add one column's TF-IDF sketch as a matrix row."""
        if self._free:
            row = self._free.pop()
        else:
            row = len(self._row_column)
            self._row_column.append(None)
            self._row_dataset.append(None)
            self._row_dtype.append(None)
            self._row_sketch.append(None)
            if row >= self._dtype_codes.shape[0]:
                grown = np.full(max(16, 2 * (row + 1)), -1, dtype=np.int8)
                grown[: self._dtype_codes.shape[0]] = self._dtype_codes
                self._dtype_codes = grown
        self._row_column[row] = column
        self._row_dataset[row] = dataset
        self._row_dtype[row] = dtype
        self._row_sketch[row] = sketch
        self._dtype_codes[row] = _DTYPE_CODES.get(dtype, -1)
        if dataset not in self._dataset_seq:
            self._dataset_seq[dataset] = self._next_seq
            self._next_seq += 1
        self._dataset_rows.setdefault(dataset, []).append(row)
        with self._lock:
            for term, count in sketch.term_counts.items():
                self._postings.setdefault(term, {})[row] = count
                self._packed.pop(term, None)
                self._weighted.pop(term, None)
        self.mutations += 1

    def remove_dataset(self, dataset: str) -> None:
        """Free every row belonging to ``dataset``."""
        rows = self._dataset_rows.pop(dataset, None)
        if not rows:
            self._dataset_seq.pop(dataset, None)
            return
        for row in rows:
            sketch = self._row_sketch[row]
            with self._lock:
                for term in sketch.term_counts:
                    posting = self._postings.get(term)
                    if posting is None:
                        continue
                    posting.pop(row, None)
                    if not posting:
                        del self._postings[term]
                    self._packed.pop(term, None)
                    self._weighted.pop(term, None)
            self._row_column[row] = None
            self._row_dataset[row] = None
            self._row_dtype[row] = None
            self._row_sketch[row] = None
            self._dtype_codes[row] = -1
            self._free.append(row)
        self._dataset_seq.pop(dataset, None)
        self.mutations += 1

    # -- introspection ---------------------------------------------------------
    def __contains__(self, dataset: object) -> bool:
        return dataset in self._dataset_rows

    def __len__(self) -> int:
        return len(self._row_column) - len(self._free)

    @property
    def capacity(self) -> int:
        """Allocated row slots (live + free); dense outputs use this length."""
        return len(self._row_column)

    def rows_for(self, dataset: str) -> list[int]:
        """Row ids of a dataset's columns, in registration (column) order."""
        return self._dataset_rows.get(dataset, [])

    def column_of(self, row: int) -> str | None:
        return self._row_column[row]

    def dtype_of(self, row: int) -> str | None:
        return self._row_dtype[row]

    def iter_rows(self):
        """Yield ``(row, dataset, column, sketch)`` for every live row."""
        for row, dataset in enumerate(self._row_dataset):
            if dataset is not None:
                yield row, dataset, self._row_column[row], self._row_sketch[row]

    def datasets_of_rows(self, rows: Iterable[int]) -> list[str]:
        """The datasets owning ``rows``, in registration order.

        Registration order here matches the index's insertion-ordered
        ``profiles`` dict (both are mutated in lockstep), which is the
        candidate visit order of the scalar oracle.
        """
        names = {self._row_dataset[int(row)] for row in rows}
        names.discard(None)
        # A racing unregister may clear a dataset's sequence entry between
        # the row read above and this sort; drop it (the rows are gone).
        names &= self._dataset_seq.keys()
        return sorted(names, key=self._dataset_seq.__getitem__)

    def compatible_rows(self, dtype: str, size: int | None = None) -> np.ndarray:
        """Superset mask of rows whose dtype *may* union with ``dtype``.

        Mirrors the scalar pairing rule — numeric only unions with
        numeric, key and categorical union with each other — but errs on
        the side of inclusion for dtypes outside the standard three
        (code -1): the caller re-applies the exact rule per surviving
        pair, so this mask only has to be a superset for the pruning
        bound to stay sound.  (Free rows also carry code -1, but their
        similarities are identically zero.)
        """
        codes = self._dtype_codes[: self.capacity if size is None else size]
        query_code = _DTYPE_CODES.get(dtype, -1)
        if query_code == 0:
            return (codes == 0) | (codes == -1)
        if query_code == -1:
            return np.ones(codes.shape, dtype=bool)
        return codes != 0

    # -- querying --------------------------------------------------------------
    def _weighted_posting(
        self, term: str, idf: Mapping[str, float]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        with self._lock:
            if idf is not self._weighted_for:
                self._weighted = {}
                self._weighted_for = idf
            cached = self._weighted.get(term)
            if cached is not None:
                return cached
            posting = self._postings.get(term)
            if not posting:
                return None
            packed = self._packed.get(term)
            if packed is None:
                rows = np.fromiter(posting.keys(), dtype=np.int64, count=len(posting))
                counts = np.fromiter(posting.values(), dtype=np.int64, count=len(posting))
                order = np.argsort(rows)
                packed = (rows[order], counts[order])
                self._packed[term] = packed
            rows, counts = packed
            # count × idf: the identical float multiply the scalar oracle
            # does (int→float64 conversion is exact for realistic counts).
            weighted = (rows, counts * idf.get(term, 1.0))
            self._weighted[term] = weighted
            return weighted

    def weighted_dot(
        self,
        term_counts: Mapping[str, int],
        idf: Mapping[str, float],
        size: int | None = None,
    ) -> np.ndarray:
        """IDF-weighted dot of a query sketch against every matrix row.

        Returns a dense ``(size,)`` vector (``size`` defaults to the
        current :attr:`capacity`; callers issuing several dots per query
        pass their snapshot so all outputs align): entry *r* is bit-equal
        to the scalar ``Σ (q_count·idf)·(c_count·idf)`` over shared terms,
        because terms are accumulated in the query sketch's iteration
        order and each posting row receives exactly one addition per
        shared term (absent terms add nothing, exactly like the scalar
        ``dict.get`` miss).
        """
        if size is None:
            size = self.capacity
        dot = np.zeros(size, dtype=np.float64)
        for term, count in term_counts.items():
            posting = self._weighted_posting(term, idf)
            if posting is None:
                continue
            rows, weighted = posting
            if rows.size and int(rows[-1]) >= size:
                # A registration raced this query past the snapshot the
                # caller sized against; drop the unseen rows.
                keep = rows < size
                rows, weighted = rows[keep], weighted[keep]
            dot[rows] += (count * idf.get(term, 1.0)) * weighted
        return dot
