"""Aurum-style data discovery: column profiles, MinHash/TF-IDF sketches, index.

Public surface, layer by layer:

* **Profiles** (:mod:`repro.discovery.profiles`): per-column metadata plus
  the MinHash and TF-IDF sketches discovery runs on (never raw rows).
* **Sketches**: :class:`MinHasher`/:class:`MinHashSketch` estimate join-key
  Jaccard overlap; :class:`TfIdfSketch`/:class:`IdfModel` score schema
  unionability by IDF-weighted cosine.
* **Engine** (:mod:`repro.discovery.engine`): the packed/sparse structures
  behind the vectorized hot path — :class:`PackedSignatureMatrix` (joins
  as one exact broadcast scan) and :class:`SparseTermMatrix` (unions as
  one sparse term-matrix product).
* **Index** (:class:`DiscoveryIndex`): ``Discover(R, augType)`` over the
  registered corpus; the scalar reference implementation is retained as
  the parity oracle for the vectorized paths.

See ``docs/ARCHITECTURE.md`` for how this package sits between the
relational layer and the serving gateway, and ``docs/TUNING.md`` for the
engine-knob trade-offs.
"""

from repro.discovery.engine import (
    PackedSignatureMatrix,
    SparseTermMatrix,
    VersionedCache,
)
from repro.discovery.index import (
    JOIN,
    UNION,
    DiscoveryIndex,
    DiscoveryIndexLike,
    JoinCandidate,
    UnionCandidate,
)
from repro.discovery.minhash import MinHasher, MinHashSketch, exact_jaccard
from repro.discovery.profiles import ColumnProfile, DatasetProfile, profile_relation
from repro.discovery.tfidf import IdfModel, TfIdfSketch, tokenize

__all__ = [
    "DiscoveryIndex",
    "DiscoveryIndexLike",
    "JoinCandidate",
    "UnionCandidate",
    "JOIN",
    "UNION",
    "MinHasher",
    "MinHashSketch",
    "exact_jaccard",
    "ColumnProfile",
    "DatasetProfile",
    "profile_relation",
    "TfIdfSketch",
    "IdfModel",
    "tokenize",
    "PackedSignatureMatrix",
    "SparseTermMatrix",
    "VersionedCache",
]
