"""The sketch-based proxy model and the augmentation state it evaluates.

During the greedy search every candidate augmentation must be scored in
time independent of relation sizes (§3.2).  :class:`AugmentationState`
maintains the semi-ring statistics of the *currently accepted* augmented
training and testing data; :class:`SketchProxyModel` turns those statistics
into a ridge-regression fit and a test-side R², never touching raw rows.

Joins on a single requester join key are evaluated exactly (keyed sketch
multiplication followed by collapse).  The keyed sketches are packed per
request into one array block per ``(split, join key)`` and joined in
closed form; the scalar :func:`~repro.sketches.sketch.vertical_augment` +
left-fold collapse stays as the oracle they are bit-identical to.

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
from typing import Mapping

import numpy as np

from repro.exceptions import SketchError
from repro.ml.linear_regression import LinearRegression
from repro.semiring.covariance import CovarianceElement
from repro.sketches.sketch import RelationSketch

TRAIN = "train"
TEST = "test"


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
    """Ridge regression trained and evaluated purely from covariance elements."""

    def __init__(self, ridge: float = 1e-4) -> None:
        self.ridge = ridge

    def evaluate(
        self,
        train_element: CovarianceElement,
        test_element: CovarianceElement,
        target: str,
    ) -> ProxyScore:
        """Train on the train-side element, score on both sides.

        Both elements are PSD-projected first: privatised statistics can
        lose positive semi-definiteness, which would otherwise let the
        residual algebra report impossible (>1) R² values and mislead the
        greedy search toward noise.
        """
        train_element = train_element.psd_project()
        test_element = test_element.psd_project()
        features = [name for name in train_element.features if name != target]
        usable = [name for name in features if name in test_element.features]
        if not usable:
            raise SketchError("no shared features between train and test statistics")
        model = LinearRegression(ridge=self.ridge).fit_from_statistics(
            train_element, usable, target
        )
        train_r2 = model.score_from_statistics(train_element, usable, target)
        test_r2 = model.score_from_statistics(test_element, usable, target)
        return ProxyScore(train_r2=train_r2, test_r2=test_r2)


@dataclass
class AugmentationState:
    """Semi-ring statistics of the augmented train/test data accepted so far.

    States are treated as immutable: ``with_join`` / ``with_union`` derive
    new ones.  A derived state keeps a reference to the state it came from
    and extends that state's memoised packed join chains, so scoring a
    join candidate costs one packed join per split instead of re-joining
    the whole accepted prefix.
    """

    target: str
    train_total: CovarianceElement
    train_keyed: dict[str, dict[str, CovarianceElement]]
    test_total: CovarianceElement
    test_keyed: dict[str, dict[str, CovarianceElement]]
    accepted_joins: dict[str, list[RelationSketch]] = field(default_factory=dict)
    accepted_unions: list[str] = field(default_factory=list)
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
        return cls(
            target=target,
            train_total=train.total,
            train_keyed={key: dict(groups) for key, groups in train.keyed.items()},
            test_total=test.total,
            test_keyed={key: dict(groups) for key, groups in test.keyed.items()},
        )

    # -- candidate evaluation -------------------------------------------------------
    def train_element(self) -> CovarianceElement:
        """Statistics of the augmented training data under the current state."""
        return self._combined(TRAIN)

    def test_element(self) -> CovarianceElement:
        """Statistics of the augmented testing data under the current state."""
        return self._combined(TEST)

    def with_union(self, sketch: RelationSketch) -> "AugmentationState":
        """A new state with ``sketch`` unioned into the training data."""
        aligned = sketch.total.project(self.train_total.features)
        new_keyed = {key: dict(groups) for key, groups in self.train_keyed.items()}
        for key, groups in sketch.keyed.items():
            if key not in new_keyed:
                continue
            for value, element in groups.items():
                projected = element.project(self.train_total.features)
                if value in new_keyed[key]:
                    new_keyed[key][value] = new_keyed[key][value] + projected
                else:
                    new_keyed[key][value] = projected
        return AugmentationState(
            target=self.target,
            train_total=self.train_total + aligned,
            train_keyed=new_keyed,
            test_total=self.test_total,
            test_keyed=self.test_keyed,
            accepted_joins={key: list(v) for key, v in self.accepted_joins.items()},
            accepted_unions=[*self.accepted_unions, sketch.dataset],
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
        if new_features != sketch.features:
            sketch = RelationSketch(
                dataset=sketch.dataset,
                features=new_features,
                total=sketch.total.project(new_features),
                keyed={
                    keyed_column: {
                        value: element.project(new_features)
                        for value, element in groups.items()
                    }
                    for keyed_column, groups in sketch.keyed.items()
                },
                scaling=sketch.scaling,
                private=sketch.private,
                epsilon=sketch.epsilon,
                delta=sketch.delta,
            )
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
            _parent=self,
            _joined=(key, _KeyedBlock.pack(sketch.keyed[key])),
        )

    # -- internals ----------------------------------------------------------------------
    def _keyed(self, split: str) -> dict[str, dict[str, CovarianceElement]]:
        return self.train_keyed if split == TRAIN else self.test_keyed

    def _combined(self, split: str) -> CovarianceElement:
        total = self.train_total if split == TRAIN else self.test_total
        keys = [key for key, sketches in self.accepted_joins.items() if sketches]
        if not keys:
            return total
        branches = [self._chain(split, key).element for key in keys]
        if len(branches) == 1:
            return branches[0]
        return _combine_branches(total, branches)

    def _chain(self, split: str, key: str) -> _KeyedBlock:
        """``keyed[key] ⋈ accepted₁ ⋈ … ⋈ acceptedₙ`` on ``key``, packed and memoised.

        The parent's chain is reused whenever this state shares the split's
        keyed statistics with it (a join leaves both splits alone, a union
        replaces the train side), extended by the derived join if it was
        on ``key``.  Otherwise the chain is rebuilt from the keyed sketch.
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
            block = _KeyedBlock.pack(keyed[key])
            for sketch in self.accepted_joins.get(key, ()):
                block = block.join(_KeyedBlock.pack(sketch.keyed_sketch(key)))
        self._chains[(split, key)] = block
        return block


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
    def rows(self) -> dict[str, int]:
        return {key: row for row, key in enumerate(self.keys)}

    def join(self, other: _KeyedBlock) -> _KeyedBlock:
        """``self ⋈ other`` on the shared key values, for disjoint features.

        Per key this is ``CovarianceElement.__mul__`` over the layout
        ``A + B`` in closed form: count ``c_a c_b``, sums ``[c_b s_a,
        c_a s_b]``, products ``[[c_b Q_a, s_a s_bᵀ], [s_b s_aᵀ, c_a Q_b]]``.
        The terms the zero padding of ``expand`` adds to each block are
        kept (as products with ``0.0``, summed in ``__mul__``'s order), so
        signed zeros agree bit for bit as well.
        """
        if not set(self.features).isdisjoint(other.features):
            raise SketchError("packed joins need disjoint feature layouts")
        partner_rows = other.rows
        left: list[int] = []
        right: list[int] = []
        for row, key in enumerate(self.keys):
            partner = partner_rows.get(key)
            if partner is not None:
                left.append(row)
                right.append(partner)
        ca, sa, qa = self.counts[left], self.sums[left], self.products[left]
        cb, sb, qb = other.counts[right], other.sums[right], other.products[right]
        ma, mb = sa.shape[1], sb.shape[1]
        ca2, cb2 = ca[:, None], cb[:, None]
        ca3, cb3 = ca[:, None, None], cb[:, None, None]
        za3, zb3 = ca3 * 0.0, cb3 * 0.0
        zsa, zsb = sa * 0.0, sb * 0.0
        cross = sa[:, :, None] * sb[:, None, :]
        sums = np.empty((len(left), ma + mb))
        sums[:, :ma] = cb2 * sa + ca2 * 0.0
        sums[:, ma:] = cb2 * 0.0 + ca2 * sb
        products = np.empty((len(left), ma + mb, ma + mb))
        products[:, :ma, :ma] = cb3 * qa + za3 + zsa[:, :, None] + zsa[:, None, :]
        products[:, :ma, ma:] = zb3 + za3 + cross + 0.0
        products[:, ma:, :ma] = zb3 + za3 + 0.0 + cross.transpose(0, 2, 1)
        products[:, ma:, ma:] = zb3 + ca3 * qb + zsb[:, None, :] + zsb[:, :, None]
        return _KeyedBlock(
            self.features + other.features,
            tuple(self.keys[row] for row in left),
            ca * cb,
            sums,
            products,
        )

    @cached_property
    def element(self) -> CovarianceElement:
        """The block summed over its key values, folded in row order.

        ``accumulate`` is a strict left-to-right fold for every shape; an
        axis-0 ``reduce`` sums pairwise once the trailing axes collapse to
        one element, which would break bit-identity with the ``+`` fold.
        """
        if not self.keys:
            raise SketchError("join produced no matching key groups")
        return CovarianceElement(
            self.features,
            float(np.add.accumulate(self.counts)[-1]),
            np.add.accumulate(self.sums)[-1].copy(),
            np.add.accumulate(self.products)[-1].copy(),
        )


def _combine_branches(
    base: CovarianceElement, branches: list[CovarianceElement]
) -> CovarianceElement:
    """Merge per-key join branches into one element.

    The base (requester-only) block is taken from ``base``.  Each branch
    contributes exact statistics for its own provider features and their
    cross terms with the base features (rescaled to the base row count to
    undo join-induced row loss).  Cross terms between provider features of
    *different* branches use the independence approximation.
    """
    features: list[str] = list(base.features)
    origin: dict[str, int] = {}
    for index, branch in enumerate(branches):
        for feature in branch.features:
            if feature not in features:
                features.append(feature)
                origin[feature] = index
    count = base.count
    if count <= 0:
        raise SketchError("cannot combine branches over an empty base")

    sums = np.zeros(len(features))
    products = np.zeros((len(features), len(features)))
    position = {name: i for i, name in enumerate(features)}

    def branch_scale(branch: CovarianceElement) -> float:
        return count / branch.count if branch.count > 0 else 0.0

    # Base block.
    for i, a in enumerate(base.features):
        sums[position[a]] = base.sums[i]
        for j, b in enumerate(base.features):
            products[position[a], position[b]] = base.products[i, j]

    # Branch blocks (their own features, and cross terms with the base).
    for index, branch in enumerate(branches):
        scale = branch_scale(branch)
        for a in branch.features:
            if a in base.features:
                continue
            sums[position[a]] = branch.sum_of(a) * scale
            for b in branch.features:
                if b in base.features or origin.get(b) == index or b == a:
                    value = branch.product_of(a, b) * scale
                    products[position[a], position[b]] = value
                    products[position[b], position[a]] = value
        # Cross terms between this branch's new features and base features.
        for a in branch.features:
            if a in base.features:
                continue
            for b in base.features:
                if b in branch.features:
                    value = branch.product_of(a, b) * scale
                    products[position[a], position[b]] = value
                    products[position[b], position[a]] = value

    # Independence approximation for features from different branches.
    for a, index_a in origin.items():
        for b, index_b in origin.items():
            if index_a == index_b or a == b:
                continue
            approx = sums[position[a]] * sums[position[b]] / count
            products[position[a], position[b]] = approx
    return CovarianceElement(tuple(features), count, sums, products)
