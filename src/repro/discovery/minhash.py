"""MinHash sketches for join-key discovery.

Mileena "uses min-hash and TF-IDF sketches based on Aurum to search for
augmentation datasets based on column similarity" (§2.2.1).  A MinHash
sketch summarises the set of distinct values in a column; the fraction of
matching hash minima estimates the Jaccard similarity between two columns,
which is how join candidates are discovered without scanning raw data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DiscoveryError

_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class MinHashSketch:
    """A fixed-width MinHash signature over a column's distinct values."""

    signature: tuple[int, ...]
    num_values: int

    def jaccard(self, other: "MinHashSketch") -> float:
        """Estimated Jaccard similarity between the two underlying value sets."""
        if len(self.signature) != len(other.signature):
            raise DiscoveryError("cannot compare MinHash sketches of different widths")
        if self.num_values == 0 or other.num_values == 0:
            return 0.0
        matches = sum(1 for a, b in zip(self.signature, other.signature) if a == b)
        return matches / len(self.signature)

    def signature_array(self) -> np.ndarray:
        """The signature as an ``int64`` row, ready to pack into a matrix."""
        return np.asarray(self.signature, dtype=np.int64)


class MinHasher:
    """Generates MinHash sketches with a shared family of hash functions."""

    #: Values hashed per vectorised block; bounds the (num_hashes × chunk)
    #: permutation table to a few MB regardless of column cardinality.
    _CHUNK = 4096

    def __init__(self, num_hashes: int = 64, seed: int = 7) -> None:
        if num_hashes <= 0:
            raise DiscoveryError("num_hashes must be positive")
        rng = np.random.default_rng(seed)
        self.num_hashes = num_hashes
        self._a = rng.integers(1, _PRIME - 1, size=num_hashes, dtype=np.int64)
        self._b = rng.integers(0, _PRIME - 1, size=num_hashes, dtype=np.int64)

    def sketch(self, values: Iterable) -> MinHashSketch:
        """Sketch the distinct (stringified) values of a column.

        Value hashing is batched: the per-value digests are concatenated and
        decoded in one ``np.frombuffer`` pass, and the permutation table is
        minimised chunk by chunk so memory stays bounded on wide columns.
        The arithmetic (including int64 wraparound in ``a * h``) is
        element-for-element identical to the original scalar loop, so
        signatures are unchanged.
        """
        distinct = {str(value) for value in values if value is not None}
        if not distinct:
            return MinHashSketch(tuple([int(_PRIME)] * self.num_hashes), 0)
        digests = b"".join(
            hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
            for value in distinct
        )
        hashes = (np.frombuffer(digests, dtype=">u8") % np.uint64(_PRIME)).astype(np.int64)
        # (a * h + b) mod p for every hash function, minimised over values.
        signature = np.full(self.num_hashes, _PRIME, dtype=np.int64)
        a_column = self._a[:, None]
        b_column = self._b[:, None]
        for start in range(0, len(hashes), self._CHUNK):
            chunk = hashes[start : start + self._CHUNK]
            table = (a_column * chunk[None, :] + b_column) % _PRIME
            np.minimum(signature, table.min(axis=1), out=signature)
        return MinHashSketch(tuple(int(v) for v in signature), len(distinct))


def exact_jaccard(left: Sequence, right: Sequence) -> float:
    """Exact Jaccard similarity (ground truth used in tests and calibration)."""
    a = {str(value) for value in left if value is not None}
    b = {str(value) for value in right if value is not None}
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)
