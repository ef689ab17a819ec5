"""The sketch-based proxy model and the augmentation state it evaluates.

During the greedy search every candidate augmentation must be scored in
time independent of relation sizes (§3.2).  :class:`AugmentationState`
maintains the semi-ring statistics of the *currently accepted* augmented
training and testing data; :class:`SketchProxyModel` turns those statistics
into a ridge-regression fit and a test-side R², never touching raw rows.

Joins on a single requester join key are evaluated exactly (keyed sketch
multiplication followed by collapse).  The keyed sketches are packed per
request into one array block per ``(split, join key)`` and joined in
closed form; a greedy round joins and collapses all of its candidates as
stacked arrays (:func:`trial_elements`) and the proxy scores them with one
batched PSD check and ridge solve (:meth:`SketchProxyModel.evaluate_many`).
The scalar :func:`~repro.sketches.sketch.vertical_augment` + left-fold
collapse, ``psd_project`` and :class:`~repro.ml.LinearRegression`'s
statistics path stay as the oracle they are bit-identical to.

When accepted joins span multiple different join keys, the
cross-covariances between feature blocks acquired through *different*
keys are estimated with an independence approximation
(``Σ f·g ≈ Σf · Σg / n``); blocks acquired through the same key, and every
term involving the requester's own columns, remain exact.  The final model
returned to the requester is always trained on materialised data, so this
approximation only influences candidate ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import SemiringError, SketchError
from repro.ml.linear_regression import LinearRegression
from repro.semiring.covariance import CovarianceElement
from repro.sketches.sketch import RelationSketch

TRAIN = "train"
TEST = "test"

#: Cap on the float64 cells of one stacked join temporary ``(C, K, M, M)``
#: (4 MiB).  A round is scored in chunks of candidates under it, so a
#: high-cardinality join key cannot multiply peak memory by the candidate
#: count.
STACK_CELLS = 1 << 19

ElementPair = tuple[CovarianceElement, CovarianceElement]


@dataclass(frozen=True, slots=True)
class ProxyScore:
    """Utility of a (candidate) augmentation state."""

    train_r2: float
    test_r2: float

    @property
    def utility(self) -> float:
        """The score used for greedy selection (test-side R²)."""
        return self.test_r2


class SketchProxyModel:
    """Ridge regression trained and evaluated purely from covariance elements.

    The proxy protocol the greedy search relies on is
    ``evaluate_many(pairs, target) -> list[ProxyScore | None]`` over
    ``(train_element, test_element)`` pairs, one ``None`` per pair that
    cannot be scored; ``evaluate`` scores one pair and raises the
    :class:`SketchError` instead.
    """

    def __init__(self, ridge: float = 1e-4) -> None:
        self.ridge = ridge

    def evaluate(
        self,
        train_element: CovarianceElement,
        test_element: CovarianceElement,
        target: str,
    ) -> ProxyScore:
        """Train on the train-side element, score on both sides."""
        (outcome,) = self._evaluate_all([(train_element, test_element)], target)
        if isinstance(outcome, SketchError):
            raise outcome
        return outcome

    def evaluate_many(
        self, pairs: Sequence[ElementPair], target: str
    ) -> list[ProxyScore | None]:
        """Score every ``(train_element, test_element)`` pair at once.

        Both elements of a pair are PSD-projected first: privatised
        statistics can lose positive semi-definiteness, which would
        otherwise let the residual algebra report impossible (>1) R² values
        and mislead the greedy search toward noise.  Pairs are grouped by
        the positions of their features; each group takes one batched
        ``eigh`` per side and one batched ridge solve, and every number
        equals the per-pair ``psd_project`` +
        :meth:`LinearRegression.fit_from_statistics` /
        ``score_from_statistics`` result bit for bit.
        """
        return [
            None if isinstance(outcome, SketchError) else outcome
            for outcome in self._evaluate_all(pairs, target)
        ]

    # -- internals ---------------------------------------------------------------------
    def _evaluate_all(
        self, pairs: Sequence[ElementPair], target: str
    ) -> list[ProxyScore | SketchError]:
        outcomes: list[ProxyScore | SketchError | None] = [None] * len(pairs)
        layouts: dict[tuple[tuple[str, ...], tuple[str, ...]], object] = {}
        groups: dict[tuple, list[int]] = {}
        for index, (train, test) in enumerate(pairs):
            names = (train.features, test.features)
            layout = layouts.get(names)
            if layout is None:
                try:
                    layout = _layout(*names, target)
                except SketchError as error:
                    layout = error
                layouts[names] = layout
            if isinstance(layout, SketchError):
                outcomes[index] = layout
            else:
                widths = (len(train.features), len(test.features))
                groups.setdefault((layout, widths), []).append(index)
        for ((train_at, test_at), _), members in groups.items():
            train = _Stack.psd_projected([pairs[index][0] for index in members])
            test = _Stack.psd_projected([pairs[index][1] for index in members])
            gram, moment, _ = train.normal_equations(*train_at)
            thetas = LinearRegression(ridge=self.ridge).solve_many(gram, moment)
            train_r2 = train.r2(thetas, *train_at)
            test_r2 = test.r2(thetas, *test_at)
            for index, fit, held_out in zip(members, train_r2, test_r2):
                if isinstance(fit, SketchError):
                    outcomes[index] = fit
                elif isinstance(held_out, SketchError):
                    outcomes[index] = held_out
                else:
                    outcomes[index] = ProxyScore(train_r2=fit, test_r2=held_out)
        return outcomes


def _layout(
    train_features: tuple[str, ...], test_features: tuple[str, ...], target: str
) -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
    """Positions of the usable features and of the target in each layout.

    Pairs whose positions and widths agree stack into one group, whatever
    their feature names.
    """
    usable = [
        name for name in train_features if name != target and name in test_features
    ]
    if not usable:
        raise SketchError("no shared features between train and test statistics")
    positions = []
    for features in (train_features, test_features):
        if target not in features:
            raise SketchError(f"element is missing features {[target]}")
        positions.append(
            (tuple(features.index(name) for name in usable), features.index(target))
        )
    return positions[0], positions[1]


@dataclass
class _Stack:
    """Covariance statistics of C elements of one width, stacked.

    ``counts (C,)``, ``sums (C, m)`` and ``products (C, m, m)``; the rows
    may carry different feature names at the same positions.
    """

    counts: np.ndarray
    sums: np.ndarray
    products: np.ndarray

    @classmethod
    def of(cls, elements: Sequence[CovarianceElement]) -> _Stack:
        return cls(
            np.array([element.count for element in elements], dtype=np.float64),
            np.stack([element.sums for element in elements]),
            np.stack([element.products for element in elements]),
        )

    @classmethod
    def psd_projected(cls, elements: Sequence[CovarianceElement]) -> _Stack:
        """Stack ``elements``, each as its own ``psd_project()`` would leave it.

        One batched ``eigh`` screens the moment matrices; an element with a
        negative eigenvalue goes through ``psd_project`` itself, which stays
        the only clip code.
        """
        stack = cls.of(elements)
        size = stack.sums.shape[1] + 1
        moment = np.empty((len(elements), size, size))
        moment[:, 0, 0] = stack.counts
        moment[:, 0, 1:] = stack.sums
        moment[:, 1:, 0] = stack.sums
        moment[:, 1:, 1:] = stack.products
        moment = 0.5 * (moment + moment.transpose(0, 2, 1))
        eigenvalues, _ = np.linalg.eigh(moment)
        for row in np.flatnonzero((eigenvalues < 0).any(axis=1)):
            projected = elements[row].psd_project()
            stack.counts[row] = projected.count
            stack.sums[row] = projected.sums
            stack.products[row] = projected.products
        return stack

    def element(self, row: int, features: tuple[str, ...], count: float) -> CovarianceElement:
        return CovarianceElement(features, count, self.sums[row], self.products[row])

    def normal_equations(
        self, at: tuple[int, ...], target: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(G, m, Σy²)`` of the design ``[1 | X]`` for every element."""
        at = np.array(at, dtype=np.intp)
        size = len(at) + 1
        gram = np.empty((len(self.counts), size, size))
        gram[:, 0, 0] = self.counts
        gram[:, 0, 1:] = self.sums[:, at]
        gram[:, 1:, 0] = self.sums[:, at]
        gram[:, 1:, 1:] = self.products[:, at[:, None], at]
        moment = np.empty((len(self.counts), size))
        moment[:, 0] = self.sums[:, target]
        moment[:, 1:] = self.products[:, at, target]
        return gram, moment, self.products[:, target, target]

    def r2(
        self, thetas: np.ndarray, at: tuple[int, ...], target: int
    ) -> list[float | SketchError]:
        """R² of each fitted ``θ`` on its own element.

        ``SSE = ((θ G) θ) − ((2θ) m) + Σy²`` as stacked products, in the
        scalar path's evaluation order; ``SST = Σy² − (Σy)²/n``.
        """
        gram, moment, y_squared = self.normal_equations(at, target)
        quadratic = (thetas[:, None, :] @ gram) @ thetas[:, :, None]
        linear = (2.0 * thetas)[:, None, :] @ moment[:, :, None]
        sse = quadratic[:, 0, 0] - linear[:, 0, 0] + y_squared
        scores: list[float | SketchError] = []
        for error, count, sum_y, squares in zip(
            sse.tolist(), self.counts.tolist(), self.sums[:, target].tolist(), y_squared.tolist()
        ):
            if count <= 0:
                scores.append(SketchError("cannot score on an empty element"))
                continue
            sst = squares - sum_y * sum_y / count
            if sst <= 0:
                scores.append(0.0 if error <= 1e-12 else float("-inf"))
            else:
                scores.append(1.0 - error / sst)
        return scores


class _RequestMemo:
    """Packs and feature projections of the sketches one request touches.

    Shared by every state derived from one
    :meth:`AugmentationState.from_sketches`, so a provider is packed (and
    projected onto its new features) once per request instead of once per
    trial.  Entries are keyed by sketch identity and hold the sketch, so
    its id cannot be reused while the entry lives.  Nothing is stored on
    the sketch itself, which is pickled into snapshots.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, object], tuple[RelationSketch, object]] = {}

    def pack(self, sketch: RelationSketch, key: str) -> _KeyedBlock:
        """``_KeyedBlock.pack(sketch.keyed_sketch(key))``, once per request."""
        return self._get(
            sketch, ("pack", key), lambda: _KeyedBlock.pack(sketch.keyed_sketch(key))
        )

    def projected(self, sketch: RelationSketch, features: tuple[str, ...]) -> RelationSketch:
        """``sketch`` restricted to ``features`` (itself when nothing is dropped)."""
        if features == sketch.features:
            return sketch
        return self._get(
            sketch, ("project", features), lambda: _project_sketch(sketch, features)
        )

    def _get(self, sketch: RelationSketch, detail: object, compute: Callable[[], object]):
        entry = self._entries.get((id(sketch), detail))
        if entry is None:
            entry = self._entries[(id(sketch), detail)] = (sketch, compute())
        return entry[1]


def _project_sketch(sketch: RelationSketch, features: tuple[str, ...]) -> RelationSketch:
    return RelationSketch(
        dataset=sketch.dataset,
        features=features,
        total=sketch.total.project(features),
        keyed={
            keyed_column: {value: element.project(features) for value, element in groups.items()}
            for keyed_column, groups in sketch.keyed.items()
        },
        scaling=sketch.scaling,
        private=sketch.private,
        epsilon=sketch.epsilon,
        delta=sketch.delta,
    )


@dataclass
class AugmentationState:
    """Semi-ring statistics of the augmented train/test data accepted so far.

    The keyed statistics are packed: one :class:`_KeyedBlock` per ``(split,
    join key)``.  States are treated as immutable: ``with_join`` /
    ``with_union`` derive new ones.  A derived state keeps a reference to
    the state it came from and extends that state's memoised packed join
    chains, so scoring a join candidate costs one packed join per split
    instead of re-joining the whole accepted prefix.
    """

    target: str
    train_total: CovarianceElement
    train_keyed: dict[str, _KeyedBlock]
    test_total: CovarianceElement
    test_keyed: dict[str, _KeyedBlock]
    accepted_joins: dict[str, list[RelationSketch]] = field(default_factory=dict)
    accepted_unions: list[str] = field(default_factory=list)
    _memo: _RequestMemo = field(default_factory=_RequestMemo, repr=False, compare=False)
    _parent: AugmentationState | None = field(default=None, repr=False, compare=False)
    #: ``(join key, packed keyed sketch)`` of the join that derived this
    #: state from ``_parent``; None for a union or a fresh state.
    _joined: tuple[str, _KeyedBlock] | None = field(default=None, repr=False, compare=False)
    _chains: dict[tuple[str, str], _KeyedBlock] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_sketches(
        cls, target: str, train: RelationSketch, test: RelationSketch
    ) -> "AugmentationState":
        """Initial state: just the requester's own train/test sketches."""
        memo = _RequestMemo()
        return cls(
            target=target,
            train_total=train.total,
            train_keyed={key: memo.pack(train, key) for key in train.keyed},
            test_total=test.total,
            test_keyed={key: memo.pack(test, key) for key in test.keyed},
            _memo=memo,
        )

    # -- candidate evaluation -------------------------------------------------------
    def train_element(self) -> CovarianceElement:
        """Statistics of the augmented training data under the current state."""
        return self._combined(TRAIN)

    def test_element(self) -> CovarianceElement:
        """Statistics of the augmented testing data under the current state."""
        return self._combined(TEST)

    def with_union(
        self, sketch: RelationSketch, column_mapping: Sequence[tuple[str, str]] = ()
    ) -> "AugmentationState":
        """A new state with ``sketch`` unioned into the training data.

        ``column_mapping`` holds the discovery's ``(requester column,
        provider column)`` pairs; the provider's features and keyed columns
        are renamed through it first, as ``materialize_plan`` renames the
        relation.  Each keyed block is added row by row into the state's
        block, and key values the state lacks are appended in the sketch's
        order, exactly as a per-key-value ``+`` into a dict would.
        """
        renames = {source: name for name, source in column_mapping}
        features = self.train_total.features
        try:
            aligned = sketch.total.rename(renames).project(features)
        except SemiringError as error:
            raise SketchError(f"{sketch.dataset!r} cannot be unioned: {error}") from error
        new_keyed = dict(self.train_keyed)
        for keyed_column in sketch.keyed:
            key = renames.get(keyed_column, keyed_column)
            if key in new_keyed:
                block = self._memo.pack(sketch, keyed_column)
                new_keyed[key] = new_keyed[key].plus(block.renamed(renames))
        return AugmentationState(
            target=self.target,
            train_total=self.train_total + aligned,
            train_keyed=new_keyed,
            test_total=self.test_total,
            test_keyed=self.test_keyed,
            accepted_joins={key: list(v) for key, v in self.accepted_joins.items()},
            accepted_unions=[*self.accepted_unions, sketch.dataset],
            _memo=self._memo,
            _parent=self,
        )

    def with_join(self, key: str, sketch: RelationSketch) -> "AugmentationState":
        """A new state with ``sketch`` joined in on ``key``.

        Provider features whose names collide with columns the requester (or
        an earlier augmentation) already contributes are dropped — they carry
        no new information and, left in place, would be conflated with the
        existing features when sketches are multiplied.
        """
        if key not in self.train_keyed:
            raise SketchError(f"the requester has no keyed sketch on {key!r}")
        if key not in sketch.keyed:
            raise SketchError(f"{sketch.dataset!r} has no keyed sketch on {key!r}")
        existing = set(self.train_total.features)
        for sketches in self.accepted_joins.values():
            for accepted in sketches:
                existing.update(accepted.features)
        new_features = tuple(f for f in sketch.features if f not in existing)
        if not new_features:
            raise SketchError(
                f"{sketch.dataset!r} contributes no new features over the current state"
            )
        sketch = self._memo.projected(sketch, new_features)
        joins = {k: list(v) for k, v in self.accepted_joins.items()}
        joins.setdefault(key, []).append(sketch)
        return AugmentationState(
            target=self.target,
            train_total=self.train_total,
            train_keyed=self.train_keyed,
            test_total=self.test_total,
            test_keyed=self.test_keyed,
            accepted_joins=joins,
            accepted_unions=list(self.accepted_unions),
            _memo=self._memo,
            _parent=self,
            _joined=(key, self._memo.pack(sketch, key)),
        )

    def stacked_cells(self) -> int:
        """Float64 cells this trial adds to a stacked join temporary.

        ``K·M²`` for a join trial (``K`` rows of the chain it extends, ``M``
        features after the join, larger split); 0 for any other state,
        which :func:`trial_elements` scores on its own.
        """
        if self._joined is None or self._parent is None:
            return 0
        key, block = self._joined
        cells = 0
        for split in (TRAIN, TEST):
            try:
                left = self._parent._chain(split, key)
            except SketchError:
                continue
            width = len(left.features) + len(block.features)
            cells = max(cells, len(left.keys) * width * width)
        return cells

    # -- internals ----------------------------------------------------------------------
    def _keyed(self, split: str) -> dict[str, _KeyedBlock]:
        return self.train_keyed if split == TRAIN else self.test_keyed

    def _combined(self, split: str) -> CovarianceElement:
        total = self.train_total if split == TRAIN else self.test_total
        keys = [key for key, sketches in self.accepted_joins.items() if sketches]
        if not keys:
            return total
        branches = [self._chain(split, key).element for key in keys]
        if len(branches) == 1:
            return branches[0]
        (element,) = _combine_branches(
            total, [([branch.features], _Stack.of([branch])) for branch in branches]
        )
        return element

    def _stacked_round(
        self, split: str, trials: Sequence[AugmentationState]
    ) -> list[CovarianceElement | None]:
        """``trial._combined(split)`` for join trials that share this trial's
        parent, join key and new-feature count; None for an empty join.

        One :func:`_join_stack` and one fold for all of them, and one
        :func:`_combine_branches` when other keys carry accepted joins.
        """
        key = self._joined[0]
        left = self._parent._chain(split, key)
        rights = [trial._joined[1] for trial in trials]
        lengths, joined = _collapse(left, rights)
        names = [left.features + right.features for right in rights]
        keys = [other for other, sketches in self.accepted_joins.items() if sketches]
        if len(keys) == 1:
            counts = joined.counts.tolist()
            return [
                joined.element(row, names[row], counts[row]) if lengths[row] else None
                for row in range(len(trials))
            ]
        branches = []
        for other in keys:
            if other == key:
                branches.append((names, joined))
            else:
                element = self._parent._chain(split, other).element
                branches.append(([element.features], _Stack.of([element])))
        total = self.train_total if split == TRAIN else self.test_total
        combined = _combine_branches(total, branches)
        return [element if lengths[row] else None for row, element in enumerate(combined)]

    def _chain(self, split: str, key: str) -> _KeyedBlock:
        """``keyed[key] ⋈ accepted₁ ⋈ … ⋈ acceptedₙ`` on ``key``, packed and memoised.

        The parent's chain is reused whenever this state shares the split's
        keyed statistics with it (a join leaves both splits alone, a union
        replaces the train side), extended by the derived join if it was
        on ``key``.  Otherwise the chain is rebuilt from the keyed block.
        """
        block = self._chains.get((split, key))
        if block is not None:
            return block
        keyed = self._keyed(split)
        parent = self._parent
        if parent is not None and parent._keyed(split) is keyed:
            block = parent._chain(split, key)
            if self._joined is not None and self._joined[0] == key:
                block = block.join(self._joined[1])
        else:
            if key not in keyed:
                raise SketchError(f"no keyed statistics available for join key {key!r}")
            block = keyed[key]
            for sketch in self.accepted_joins.get(key, ()):
                block = block.join(self._memo.pack(sketch, key))
        self._chains[(split, key)] = block
        return block


def trial_elements(trials: Sequence[AugmentationState]) -> list[ElementPair | None]:
    """``(train_element(), test_element())`` of every trial; None where it fails.

    Join trials are scored as stacked groups: the trials extending one
    parent on one join key with the same number of new features share one
    :func:`_join_stack`, one fold and one :func:`_combine_branches` per
    split.  Other states (unions, fresh states) take their own
    ``train_element`` / ``test_element``.  A trial whose statistics raise
    :class:`SketchError` (an empty key intersection, say) yields None, as
    it would one by one.
    """
    outcomes: list[ElementPair | None] = [None] * len(trials)
    groups: dict[tuple, tuple[AugmentationState, str, list[int]]] = {}
    for index, trial in enumerate(trials):
        if trial._joined is None or trial._parent is None:
            try:
                outcomes[index] = (trial.train_element(), trial.test_element())
            except SketchError:
                pass
            continue
        key, block = trial._joined
        for split in (TRAIN, TEST):
            group = (id(trial._parent), split, key, len(block.features))
            groups.setdefault(group, (trial, split, []))[2].append(index)
    elements: dict[tuple[int, str], CovarianceElement] = {}
    for first, split, members in groups.values():
        try:
            stacked = first._stacked_round(split, [trials[index] for index in members])
        except SketchError:
            continue
        for index, element in zip(members, stacked):
            if element is not None:
                elements[index, split] = element
    for index in range(len(trials)):
        if (index, TRAIN) in elements and (index, TEST) in elements:
            outcomes[index] = (elements[index, TRAIN], elements[index, TEST])
    return outcomes


@dataclass(frozen=True, eq=False)
class _KeyedBlock:
    """A keyed sketch ``{key value: element}`` packed one row per key value.

    ``counts (K,)``, ``sums (K, m)`` and ``products (K, m, m)`` share one
    feature layout.  Rows keep the order of the mapping the block was
    packed from, and a join keeps its left operand's order, so every
    result matches :func:`~repro.sketches.sketch.vertical_augment`
    followed by a left-to-right ``+`` fold bit for bit.
    """

    features: tuple[str, ...]
    keys: tuple[str, ...]
    counts: np.ndarray
    sums: np.ndarray
    products: np.ndarray

    @classmethod
    def pack(cls, groups: Mapping[str, CovarianceElement]) -> _KeyedBlock:
        elements = list(groups.values())
        if not elements:
            return cls((), (), np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)))
        features = elements[0].features
        if any(element.features != features for element in elements):
            raise SketchError("keyed groups disagree on their feature layout")
        return cls(
            features,
            tuple(groups),
            np.array([element.count for element in elements], dtype=np.float64),
            np.stack([element.sums for element in elements]),
            np.stack([element.products for element in elements]),
        )

    @cached_property
    def key_array(self) -> np.ndarray:
        return np.array(self.keys, dtype=str)

    @cached_property
    def sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, key_array[order])``: the keys sorted, for ``searchsorted``."""
        order = np.argsort(self.key_array, kind="stable")
        return order, self.key_array[order]

    def renamed(self, renames: Mapping[str, str]) -> _KeyedBlock:
        if not renames:
            return self
        features = tuple(renames.get(name, name) for name in self.features)
        return _KeyedBlock(features, self.keys, self.counts, self.sums, self.products)

    def plus(self, other: _KeyedBlock) -> _KeyedBlock:
        """Per key value ``self + other`` on ``self``'s layout; new key values appended.

        ``other`` is projected onto ``self``'s features first; a feature it
        lacks raises :class:`SketchError`.
        """
        try:
            at = np.array([other.features.index(name) for name in self.features], dtype=np.intp)
        except ValueError as error:
            raise SketchError(
                f"union statistics lack requester features {self.features}"
            ) from error
        counts = other.counts
        sums = other.sums[:, at]
        products = other.products[:, at[:, None], at]
        _, rows, partners = _match(self, [other])
        fresh = np.ones(len(other.keys), dtype=bool)
        fresh[partners] = False
        appended = np.flatnonzero(fresh)
        merged_counts = self.counts.copy()
        merged_sums = self.sums.copy()
        merged_products = self.products.copy()
        merged_counts[rows] = merged_counts[rows] + counts[partners]
        merged_sums[rows] = merged_sums[rows] + sums[partners]
        merged_products[rows] = merged_products[rows] + products[partners]
        return _KeyedBlock(
            self.features,
            self.keys + tuple(other.keys[row] for row in appended),
            np.concatenate([merged_counts, counts[appended]]),
            np.concatenate([merged_sums, sums[appended]]),
            np.concatenate([merged_products, products[appended]]),
        )

    def join(self, other: _KeyedBlock) -> _KeyedBlock:
        """``self ⋈ other`` on the shared key values: :func:`_join_stack` with C = 1."""
        rows, lengths, counts, sums, products = _join_stack(self, [other])
        size = int(lengths[0])
        return _KeyedBlock(
            self.features + other.features,
            tuple(self.keys[row] for row in rows[0, :size]),
            counts[0, :size],
            sums[0, :size],
            products[0, :size],
        )

    @cached_property
    def element(self) -> CovarianceElement:
        """The block summed over its key values, folded in row order."""
        if not self.keys:
            raise SketchError("join produced no matching key groups")
        stack = _fold(
            np.array([len(self.keys)]),
            self.counts[None].copy(),
            self.sums[None].copy(),
            self.products[None].copy(),
        )
        return stack.element(0, self.features, stack.counts.tolist()[0])


def _match(
    left: _KeyedBlock, rights: Sequence[_KeyedBlock]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key values ``left`` shares with each right block, in one ``searchsorted``.

    Returns ``(owners, rows, partners)``: right block index, ``left`` row
    and row within the concatenated right blocks of every shared value,
    sorted by owner and then by ``left`` row, so each owner's matches keep
    ``left``'s order.
    """
    order, keys = left.sorted_keys
    values = np.concatenate([right.key_array for right in rights])
    if not len(keys) or not len(values):
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty
    owners = np.repeat(np.arange(len(rights)), [len(right.keys) for right in rights])
    at = np.searchsorted(keys, values)
    at[at == len(keys)] = 0
    partners = np.flatnonzero(keys[at] == values)
    rows = order[at[partners]]
    owners = owners[partners]
    ranked = np.lexsort((rows, owners))
    return owners[ranked], rows[ranked], partners[ranked]


def _join_stack(
    left: _KeyedBlock, rights: Sequence[_KeyedBlock]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``left ⋈ right`` for every right block at once, padded to ``(C, K, …)``.

    All rights share one width ``mb``; their features must be disjoint
    from ``left``'s.  Row ``c`` holds the ``lengths[c]`` shared key values
    in ``left``'s order (``rows`` are their left rows); the padding after
    them is filler.  Per key this is ``CovarianceElement.__mul__`` over
    the layout ``A + B`` in closed form: count ``c_a c_b``, sums ``[c_b
    s_a, c_a s_b]``, products ``[[c_b Q_a, s_a s_bᵀ], [s_b s_aᵀ, c_a
    Q_b]]``.  The terms the zero padding of ``expand`` adds to each block
    are kept (as products with ``0.0``, summed in ``__mul__``'s order), so
    signed zeros agree bit for bit as well.
    """
    if any(not set(left.features).isdisjoint(right.features) for right in rights):
        raise SketchError("packed joins need disjoint feature layouts")
    owners, matched, partners = _match(left, rights)
    lengths = np.bincount(owners, minlength=len(rights))
    filled = np.arange(int(lengths.max(initial=0))) < lengths[:, None]
    rows = np.zeros(filled.shape, dtype=np.intp)
    rows[filled] = matched
    across = np.zeros(filled.shape, dtype=np.intp)
    across[filled] = partners
    ca, sa, qa = left.counts[rows], left.sums[rows], left.products[rows]
    cb = np.concatenate([right.counts for right in rights])[across]
    sb = np.concatenate([right.sums for right in rights])[across]
    qb = np.concatenate([right.products for right in rights])[across]
    ma, mb = sa.shape[-1], sb.shape[-1]
    ca2, cb2 = ca[..., None], cb[..., None]
    ca3, cb3 = ca[..., None, None], cb[..., None, None]
    za3, zb3 = ca3 * 0.0, cb3 * 0.0
    zsa, zsb = sa * 0.0, sb * 0.0
    # Each block is built in place in ``__mul__``'s order of terms (``+`` is
    # commutative, so ``x + y`` may be written ``y += x``), which keeps one
    # stacked temporary alive instead of one per term.
    sums = np.empty(ca.shape + (ma + mb,))
    np.multiply(cb2, sa, out=sums[..., :ma])
    sums[..., :ma] += ca2 * 0.0
    np.multiply(ca2, sb, out=sums[..., ma:])
    sums[..., ma:] += cb2 * 0.0
    products = np.empty(ca.shape + (ma + mb, ma + mb))
    own = products[..., :ma, :ma]
    np.multiply(cb3, qa, out=own)
    own += za3
    own += zsa[..., :, None]
    own += zsa[..., None, :]
    cross = products[..., :ma, ma:]
    np.multiply(sa[..., :, None], sb[..., None, :], out=cross)
    np.add(zb3 + za3 + 0.0, cross.swapaxes(-1, -2), out=products[..., ma:, :ma])
    cross += zb3 + za3
    cross += 0.0
    own = products[..., ma:, ma:]
    np.multiply(ca3, qb, out=own)
    own += zb3
    own += zsb[..., None, :]
    own += zsb[..., :, None]
    return rows, lengths, ca * cb, sums, products


def _collapse(
    left: _KeyedBlock, rights: Sequence[_KeyedBlock]
) -> tuple[np.ndarray, _Stack]:
    """``(lengths, (left ⋈ right).element for every right)``; empty joins fold to zeros."""
    _, lengths, *statistics = _join_stack(left, rights)
    return lengths, _fold(lengths, *statistics)


def _fold(
    lengths: np.ndarray, counts: np.ndarray, sums: np.ndarray, products: np.ndarray
) -> _Stack:
    """Each row's first ``lengths[c]`` key values summed in order.

    ``accumulate`` along axis 1 is a strict left-to-right fold for every
    shape, so entry ``lengths[c] − 1`` ignores the padding after it; an
    axis ``reduce`` sums pairwise once the trailing axes collapse to one
    element, which would break bit-identity with the ``+`` fold.  It runs
    in place, overwriting the three arrays.  Rows with no key value come
    back as zeros.
    """
    if not counts.shape[1]:
        return _Stack(
            np.zeros(len(counts)),
            np.zeros(sums.shape[:1] + sums.shape[2:]),
            np.zeros(products.shape[:1] + products.shape[2:]),
        )
    rows = np.arange(len(counts))
    last = np.maximum(lengths - 1, 0)
    return _Stack(
        np.add.accumulate(counts, axis=1, out=counts)[rows, last],
        np.add.accumulate(sums, axis=1, out=sums)[rows, last],
        np.add.accumulate(products, axis=1, out=products)[rows, last],
    )


def _combine_branches(
    base: CovarianceElement,
    branches: Sequence[tuple[Sequence[tuple[str, ...]], _Stack]],
) -> list[CovarianceElement]:
    """Merge per-key join branches into one element per stacked row.

    The base (requester-only) block is taken from ``base``.  Each branch
    contributes exact statistics for its own provider features and their
    cross terms with the base features (rescaled to the base row count to
    undo join-induced row loss).  Cross terms between provider features of
    *different* branches use the independence approximation.

    A branch is ``(names, stack)``: C rows (or 1, broadcast) of one width,
    with one name tuple per row (or one for all).  Provider features of
    different branches must be disjoint, as ``with_join`` makes them.
    Each cell is the value a per-feature loop writes last: a pair of one
    branch's provider features takes the product from the row of the
    feature that comes later in that branch.
    """
    count = base.count
    if count <= 0:
        raise SketchError("cannot combine branches over an empty base")
    rows = max(len(stack.counts) for _, stack in branches)
    in_base = set(base.features)
    provided = [name for names, _ in branches for name in names[0] if name not in in_base]
    if len(set(provided)) != len(provided):
        raise SketchError("join branches share provider features")
    width = len(base.features) + len(provided)
    sums = np.zeros((rows, width))
    products = np.zeros((rows, width, width))
    sums[:, : len(base.features)] = base.sums
    products[:, : len(base.features), : len(base.features)] = base.products
    position = {name: i for i, name in enumerate(base.features)}
    owned = []
    start = len(base.features)
    for names, stack in branches:
        layout = names[0]
        new = np.array([i for i, name in enumerate(layout) if name not in in_base], dtype=np.intp)
        shared = [i for i, name in enumerate(layout) if name in in_base]
        at = np.arange(start, start + len(new))
        start += len(new)
        owned.append(at)
        base_at = np.array([position[layout[i]] for i in shared], dtype=np.intp)
        shared = np.array(shared, dtype=np.intp)
        scale = np.divide(
            count, stack.counts, out=np.zeros(len(stack.counts)), where=stack.counts > 0
        )
        sums[:, at] = stack.sums[:, new] * scale[:, None]
        own = stack.products[:, new[:, None], new] * scale[:, None, None]
        later = np.tri(len(new), dtype=bool)
        products[:, at[:, None], at] = np.where(later, own, own.swapaxes(-1, -2))
        cross = stack.products[:, new[:, None], shared] * scale[:, None, None]
        products[:, at[:, None], base_at] = cross
        products[:, base_at[:, None], at] = cross.swapaxes(-1, -2)
    # Independence approximation for features from different branches.
    for i, mine in enumerate(owned):
        for j, theirs in enumerate(owned):
            if i != j:
                products[:, mine[:, None], theirs] = (
                    sums[:, mine][:, :, None] * sums[:, theirs][:, None, :] / count
                )
    elements = []
    for row in range(rows):
        features = list(base.features)
        for names, _ in branches:
            features.extend(
                name for name in names[row if len(names) > 1 else 0] if name not in in_base
            )
        elements.append(CovarianceElement(tuple(features), count, sums[row], products[row]))
    return elements
