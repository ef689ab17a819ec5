"""Annotated relations: tuples paired with semi-ring annotations.

This is the formal object of §3.1 ("the annotated relational model maps
``t ∈ R`` to a commutative semi-ring").  The concrete sketches used by the
platform (:mod:`repro.sketches`) work directly on keyed covariance
aggregates for speed, but the annotated-relation view is useful for tests,
for the worked example of Figure 3, and for semi-rings other than the
covariance one (counts, sums, marginal histograms for causal inference).
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, TypeVar

from repro.exceptions import SemiringError
from repro.relational.relation import Relation
from repro.semiring.base import Semiring

E = TypeVar("E")
Key = tuple


class AnnotatedRelation(Generic[E]):
    """A mapping from group-by key tuples to semi-ring annotations.

    The "tuple part" of the annotated relation is the group-by key (the
    attributes that remain after aggregation); everything that was aggregated
    away lives in the annotation.
    """

    def __init__(self, semiring: Semiring[E], group_columns: tuple[str, ...] = ()) -> None:
        self.semiring = semiring
        self.group_columns = group_columns
        self._annotations: dict[Key, E] = {}

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        semiring: Semiring[E],
        group_columns: Iterable[str] = (),
    ) -> "AnnotatedRelation[E]":
        """Annotate and aggregate a raw relation, grouping by ``group_columns``."""
        group_columns = tuple(group_columns)
        for column in group_columns:
            if column not in relation.schema:
                raise SemiringError(f"unknown group column {column!r}")
        annotated = cls(semiring, group_columns)
        for row in relation.to_rows():
            key = tuple(row[column] for column in group_columns)
            annotated.accumulate(key, semiring.lift(row))
        return annotated

    def accumulate(self, key: Key, annotation: E) -> None:
        """Add an annotation into the group identified by ``key``."""
        if key in self._annotations:
            self._annotations[key] = self.semiring.add(self._annotations[key], annotation)
        else:
            self._annotations[key] = annotation

    # -- accessors --------------------------------------------------------------
    def annotation(self, key: Key) -> E:
        """Annotation of a specific group (``zero`` when the group is absent)."""
        return self._annotations.get(key, self.semiring.zero())

    def keys(self) -> list[Key]:
        """All group keys present in the annotated relation."""
        return list(self._annotations.keys())

    def items(self) -> Iterable[tuple[Key, E]]:
        return self._annotations.items()

    def __len__(self) -> int:
        return len(self._annotations)

    def total(self) -> E:
        """Sum of all annotations (the group-by-nothing aggregate)."""
        return self.semiring.sum(self._annotations.values())

    # -- algebra ----------------------------------------------------------------
    def union(self, other: "AnnotatedRelation[E]") -> "AnnotatedRelation[E]":
        """Union: add annotations of matching keys, keep unmatched keys."""
        self._check_compatible(other)
        result = AnnotatedRelation(self.semiring, self.group_columns)
        for key, annotation in self.items():
            result.accumulate(key, annotation)
        for key, annotation in other.items():
            result.accumulate(key, annotation)
        return result

    def join(self, other: "AnnotatedRelation[E]") -> "AnnotatedRelation[E]":
        """Join on the shared group columns: multiply annotations of matching keys."""
        if self.group_columns != other.group_columns:
            raise SemiringError(
                "annotated join requires identical group columns "
                f"({self.group_columns} vs {other.group_columns})"
            )
        result = AnnotatedRelation(self.semiring, self.group_columns)
        for key, annotation in self.items():
            if key in other._annotations:
                result.accumulate(
                    key, self.semiring.multiply(annotation, other._annotations[key])
                )
        return result

    def map_annotations(self, func: Callable[[E], E]) -> "AnnotatedRelation[E]":
        """Apply ``func`` to each annotation (e.g. a privacy mechanism)."""
        result = AnnotatedRelation(self.semiring, self.group_columns)
        for key, annotation in self.items():
            result._annotations[key] = func(annotation)
        return result

    def regroup(self) -> E:
        """Collapse all groups (equivalent to :meth:`total`)."""
        return self.total()

    def _check_compatible(self, other: "AnnotatedRelation[E]") -> None:
        if self.group_columns != other.group_columns:
            raise SemiringError(
                "annotated union requires identical group columns "
                f"({self.group_columns} vs {other.group_columns})"
            )
