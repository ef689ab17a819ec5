"""Tests for the sketch proxy model and the augmentation state algebra."""

import numpy as np
import pytest

from repro.core import AugmentationState, SketchProxyModel
from repro.core.proxy import _combine_branches, _Stack
from repro.exceptions import SketchError
from repro.ml import LinearRegression, r2_score
from repro.privacy import FactorizedPrivacyMechanism, PrivacyBudget
from repro.relational import KEY, NUMERIC, Relation, Schema, join
from repro.semiring import CovarianceElement
from repro.sketches import RelationSketch, SketchBuilder, vertical_augment


def make_task(seed=0, n=300, zones=8):
    """A task whose target depends on a zone-level latent feature."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=zones)
    zone_index = rng.integers(0, zones, size=n)
    local = rng.normal(size=n)
    y = 0.3 * local + 1.5 * latent[zone_index] + rng.normal(scale=0.1, size=n)
    relation = Relation(
        "task",
        {
            "zone": [f"z{i}" for i in zone_index],
            "local": local,
            "y": y,
        },
        Schema.from_spec({"zone": KEY, "local": NUMERIC, "y": NUMERIC}),
    )
    provider = Relation(
        "zone_latent",
        {"zone": [f"z{i}" for i in range(zones)], "latent": latent},
        Schema.from_spec({"zone": KEY, "latent": NUMERIC}),
    )
    return relation, provider


@pytest.fixture
def task_fixture():
    relation, provider = make_task()
    rng = np.random.default_rng(1)
    test, train = relation.split(0.3, rng)
    train = train.renamed("train")
    test = test.renamed("test")
    builder = SketchBuilder()
    train_sketch = builder.build(train, features=["local", "y"], key_columns=["zone"])
    test_sketch = builder.build(
        test, features=["local", "y"], key_columns=["zone"], scaling=train_sketch.scaling
    )
    provider_sketch = builder.build(provider, features=["latent"], key_columns=["zone"])
    return train, test, provider, train_sketch, test_sketch, provider_sketch


def test_proxy_evaluation_matches_raw_training(task_fixture):
    train, test, provider, train_sketch, test_sketch, _ = task_fixture
    proxy = SketchProxyModel(ridge=1e-8)
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    score = proxy.evaluate(state.train_element(), state.test_element(), "y")

    # Raw-data reference: fit on scaled training data, score on scaled test data.
    scaling = train_sketch.scaling
    def scaled(relation):
        x = (relation.numeric_matrix(["local"]) - scaling["local"].minimum) / scaling["local"].span
        y = (np.asarray(relation.column("y")) - scaling["y"].minimum) / scaling["y"].span
        return np.clip(x, 0, 1), np.clip(y, 0, 1)

    x_train, y_train = scaled(train)
    x_test, y_test = scaled(test)
    model = LinearRegression(ridge=1e-8).fit(x_train, y_train)
    assert score.train_r2 == pytest.approx(model.score(x_train, y_train), abs=1e-6)
    assert score.test_r2 == pytest.approx(r2_score(y_test, model.predict(x_test)), abs=1e-6)


def test_join_augmentation_improves_proxy_utility(task_fixture):
    _, _, _, train_sketch, test_sketch, provider_sketch = task_fixture
    proxy = SketchProxyModel()
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    base = proxy.evaluate(state.train_element(), state.test_element(), "y")
    augmented = state.with_join("zone", provider_sketch)
    improved = proxy.evaluate(augmented.train_element(), augmented.test_element(), "y")
    assert improved.test_r2 > base.test_r2 + 0.2


def test_join_state_statistics_match_materialized_join(task_fixture):
    train, test, provider, train_sketch, test_sketch, provider_sketch = task_fixture
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    augmented = state.with_join("zone", provider_sketch)
    element = augmented.train_element()

    # Materialise the scaled join and compare the covariance statistics.
    builder = SketchBuilder()
    scaled_train, _ = builder._scale(train, ["local", "y"])
    scaled_provider, _ = builder._scale(provider, ["latent"])
    materialized = join(scaled_train, scaled_provider, on="zone")
    from repro.semiring import covariance_aggregate

    expected = covariance_aggregate(materialized, ["local", "y", "latent"])
    assert element.is_close(expected, tolerance=1e-6)


def test_union_augmentation_adds_rows(task_fixture):
    _, _, _, train_sketch, test_sketch, _ = task_fixture
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    unioned = state.with_union(train_sketch)
    assert unioned.train_element().count == pytest.approx(2 * train_sketch.row_count)
    # Test-side statistics are untouched by horizontal augmentation.
    assert unioned.test_element().is_close(state.test_element())
    assert unioned.accepted_unions == [train_sketch.dataset]


def test_with_join_requires_matching_keys(task_fixture):
    _, _, _, train_sketch, test_sketch, provider_sketch = task_fixture
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    with pytest.raises(SketchError):
        state.with_join("city", provider_sketch)


def test_proxy_requires_shared_features(task_fixture):
    _, _, _, train_sketch, test_sketch, _ = task_fixture
    proxy = SketchProxyModel()
    from repro.semiring import CovarianceElement

    bogus = CovarianceElement.from_matrix(("other", "y2"), np.random.default_rng(0).random((5, 2)))
    with pytest.raises(SketchError):
        proxy.evaluate(train_sketch.total, bogus, "y")


def test_multi_key_branches_combine():
    """Joins on two different keys produce a usable combined element."""
    rng = np.random.default_rng(0)
    n, zones, months = 400, 6, 5
    zone_latent = rng.normal(size=zones)
    month_latent = rng.normal(size=months)
    zone_index = rng.integers(0, zones, size=n)
    month_index = rng.integers(0, months, size=n)
    y = zone_latent[zone_index] + month_latent[month_index] + rng.normal(scale=0.05, size=n)
    task = Relation(
        "task",
        {
            "zone": [f"z{i}" for i in zone_index],
            "month": [f"m{i}" for i in month_index],
            "y": y,
        },
        Schema.from_spec({"zone": KEY, "month": KEY, "y": NUMERIC}),
    )
    zone_provider = Relation(
        "zone_p",
        {"zone": [f"z{i}" for i in range(zones)], "zlat": zone_latent},
        Schema.from_spec({"zone": KEY, "zlat": NUMERIC}),
    )
    month_provider = Relation(
        "month_p",
        {"month": [f"m{i}" for i in range(months)], "mlat": month_latent},
        Schema.from_spec({"month": KEY, "mlat": NUMERIC}),
    )
    builder = SketchBuilder()
    train_sketch = builder.build(task, features=["y"], key_columns=["zone", "month"])
    test_sketch = builder.build(task, features=["y"], key_columns=["zone", "month"],
                                scaling=train_sketch.scaling)
    state = AugmentationState.from_sketches("y", train_sketch, test_sketch)
    state = state.with_join("zone", builder.build(zone_provider))
    state = state.with_join("month", builder.build(month_provider))
    element = state.train_element()
    assert set(element.features) == {"y", "zlat", "mlat"}
    assert element.count == pytest.approx(n)
    proxy = SketchProxyModel()
    score = proxy.evaluate(element, state.test_element(), "y")
    assert score.test_r2 > 0.8


# -- packed join chain vs the scalar oracle -------------------------------------------
def scalar_combine_branches(base, branches):
    """The per-feature loop the stacked ``_combine_branches`` reproduces bit for bit."""
    features = list(base.features)
    origin = {}
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
    for i, a in enumerate(base.features):
        sums[position[a]] = base.sums[i]
        for j, b in enumerate(base.features):
            products[position[a], position[b]] = base.products[i, j]
    for index, branch in enumerate(branches):
        scale = count / branch.count if branch.count > 0 else 0.0
        for a in branch.features:
            if a in base.features:
                continue
            sums[position[a]] = branch.sum_of(a) * scale
            for b in branch.features:
                if b in base.features or origin.get(b) == index or b == a:
                    value = branch.product_of(a, b) * scale
                    products[position[a], position[b]] = value
                    products[position[b], position[a]] = value
        for a in branch.features:
            if a in base.features:
                continue
            for b in base.features:
                if b in branch.features:
                    value = branch.product_of(a, b) * scale
                    products[position[a], position[b]] = value
                    products[position[b], position[a]] = value
    for a, index_a in origin.items():
        for b, index_b in origin.items():
            if index_a == index_b or a == b:
                continue
            products[position[a], position[b]] = sums[position[a]] * sums[position[b]] / count
    return CovarianceElement(tuple(features), count, sums, products)


def oracle_element(state, split, requester, unions=()):
    """The scalar chain: unions replayed with ``project`` + ``+`` into per-key dicts,
    then ``vertical_augment`` left folds, a ``+`` collapse, branches."""
    train, test = requester
    sketch = train if split == "train" else test
    total = sketch.total
    keyed = {key: dict(groups) for key, groups in sketch.keyed.items()}
    if split == "train":
        for union in unions:
            total = total + union.total.project(train.total.features)
            for key, groups in union.keyed.items():
                if key not in keyed:
                    continue
                for value, element in groups.items():
                    projected = element.project(train.total.features)
                    if value in keyed[key]:
                        keyed[key][value] = keyed[key][value] + projected
                    else:
                        keyed[key][value] = projected
    branches = []
    for key, sketches in state.accepted_joins.items():
        merged = keyed[key]
        for sketch in sketches:
            merged = vertical_augment(merged, sketch.keyed_sketch(key))
        collapsed = None
        for element in merged.values():
            collapsed = element if collapsed is None else collapsed + element
        if collapsed is None:
            raise SketchError("join produced no matching key groups")
        branches.append(collapsed)
    if not branches:
        return total
    return branches[0] if len(branches) == 1 else scalar_combine_branches(total, branches)


def assert_bit_identical(state, requester, unions=()):
    for split, element in (("train", state.train_element()), ("test", state.test_element())):
        expected = oracle_element(state, split, requester, unions)
        assert element.features == expected.features
        assert np.float64(element.count).tobytes() == np.float64(expected.count).tobytes()
        assert element.sums.tobytes() == expected.sums.tobytes()
        assert element.products.tobytes() == expected.products.tobytes()


def random_groups(rng, keys, features, sign=1.0):
    return {
        key: CovarianceElement.from_matrix(
            features, sign * rng.random((int(rng.integers(1, 5)), len(features)))
        )
        for key in keys
    }


def make_sketch(name, features, keyed, rng, private=False):
    if private:
        mechanism = FactorizedPrivacyMechanism(rng=rng)
        keyed = {
            key: mechanism.privatize_keyed(groups, PrivacyBudget(1.0, 1e-6))
            for key, groups in keyed.items()
        }
    total = CovarianceElement.from_matrix(features, rng.random((6, len(features))))
    return RelationSketch(name, tuple(features), total, keyed=keyed, private=private)


def provider_keys(rng, keys):
    """A shuffled partial overlap with ``keys`` plus values the requester lacks."""
    kept = [key for index, key in enumerate(keys) if index == 0 or index % 5]
    extra = [f"other{index}" for index in range(3)]
    order = rng.permutation(len(kept) + len(extra))
    return [(kept + extra)[index] for index in order]


@pytest.mark.parametrize("private", [False, True])
@pytest.mark.parametrize("num_keys", [1, 7, 9, 130, 300])
def test_packed_chain_matches_scalar_oracle(num_keys, private):
    rng = np.random.default_rng([num_keys, private])
    keys = [f"k{index}" for index in range(num_keys)]
    requester = ("local", "y")

    def requester_sketch(name):
        return make_sketch(name, requester, {"zone": random_groups(rng, keys, requester)}, rng, private)

    def provider(name, feature):
        groups = random_groups(rng, provider_keys(rng, keys), (feature,))
        return make_sketch(name, (feature,), {"zone": groups}, rng, private)

    own = (requester_sketch("train"), requester_sketch("test"))
    state = AugmentationState.from_sketches("y", *own)
    first = provider("p1", "a")
    second = provider("p2", "b")
    assert_bit_identical(state.with_join("zone", first), own)
    # Two sketches accepted on one key, and every trial on top of the memoised prefix.
    accepted = state.with_join("zone", first)
    for candidate in (second, provider("p3", "c")):
        assert_bit_identical(accepted.with_join("zone", candidate), own)
    assert_bit_identical(
        accepted.with_join("zone", second).with_join("zone", provider("p4", "d")), own
    )


def test_packed_join_keeps_signed_zeros():
    """A zero-sum requester feature joined to a negative partner, and -0.0 inputs."""
    rng = np.random.default_rng(4)
    keys = [f"k{index}" for index in range(12)]
    features = ("zero", "y")
    groups = {}
    for key in keys:
        element = CovarianceElement.from_matrix(
            features, np.column_stack([np.zeros(3), rng.random(3)])
        )
        products = element.products.copy()
        products[0, 0] = -0.0
        groups[key] = CovarianceElement(features, element.count, element.sums, products)
    train = make_sketch("train", features, {"zone": groups}, rng)
    test = make_sketch("test", features, {"zone": dict(groups)}, rng)
    negative = random_groups(rng, keys, ("neg",), sign=-1.0)
    negative[keys[0]] = CovarianceElement(("neg",), 2.0, np.array([-0.0]), np.array([[-0.0]]))
    partner = make_sketch("neg", ("neg",), {"zone": negative}, rng)
    state = AugmentationState.from_sketches("y", train, test).with_join("zone", partner)
    assert_bit_identical(state, (train, test))
    products = state.train_element().products
    assert not np.signbit(products[0, 2]) and not np.signbit(products[2, 0])


def test_packed_chain_matches_oracle_across_keys_and_unions():
    rng = np.random.default_rng(11)
    zones = [f"z{index}" for index in range(40)]
    months = [f"m{index}" for index in range(12)]
    requester = ("local", "y")

    def requester_sketch(name):
        keyed = {
            "zone": random_groups(rng, zones, requester),
            "month": random_groups(rng, months, requester),
        }
        return make_sketch(name, requester, keyed, rng)

    def provider(name, feature, key, values):
        groups = random_groups(rng, provider_keys(rng, values), (feature,))
        return make_sketch(name, (feature,), {key: groups}, rng)

    own = (requester_sketch("train"), requester_sketch("test"))
    state = AugmentationState.from_sketches("y", *own)
    zone_state = state.with_join("zone", provider("zp", "zlat", "zone", zones))
    both = zone_state.with_join("month", provider("mp", "mlat", "month", months))
    assert_bit_identical(both, own)
    assert_bit_identical(both.with_join("zone", provider("zp2", "zlat2", "zone", zones)), own)
    # A union replaces the train-side keyed statistics; joins after it still agree.
    extra = requester_sketch("more")
    unioned = zone_state.with_union(extra)
    assert_bit_identical(unioned, own, [extra])
    assert_bit_identical(
        unioned.with_join("zone", provider("zp3", "zlat3", "zone", zones)), own, [extra]
    )
    assert_bit_identical(
        unioned.with_join("month", provider("mp2", "mlat2", "month", months)), own, [extra]
    )


def test_empty_key_intersection_raises_like_the_oracle():
    rng = np.random.default_rng(2)
    requester = ("local", "y")
    train = make_sketch("train", requester, {"zone": random_groups(rng, ["a", "b"], requester)}, rng)
    test = make_sketch("test", requester, {"zone": random_groups(rng, ["a"], requester)}, rng)
    disjoint = make_sketch("p", ("f",), {"zone": random_groups(rng, ["c", "d"], ("f",))}, rng)
    state = AugmentationState.from_sketches("y", train, test).with_join("zone", disjoint)
    for split, element in (("train", state.train_element), ("test", state.test_element)):
        with pytest.raises(SketchError) as oracle_error:
            oracle_element(state, split, (train, test))
        with pytest.raises(SketchError) as packed_error:
            element()
        assert str(packed_error.value) == str(oracle_error.value)


def test_stacked_combine_matches_the_per_feature_loop():
    """Asymmetric branch products pin which triangle each provider cell comes from."""
    rng = np.random.default_rng(5)

    def element(features, count):
        size = len(features)
        return CovarianceElement(
            features, count, rng.normal(size=size), rng.normal(size=(size, size))
        )

    base = element(("local", "y"), 40.0)
    rows = [element(("y", "local", "a1", "a2", "a3"), count) for count in (30.0, 0.0, 12.5)]
    other = element(("local", "y", "b1", "b2"), 25.0)
    combined = _combine_branches(
        base,
        [
            ([row.features for row in rows], _Stack.of(rows)),
            ([other.features], _Stack.of([other])),
        ],
    )
    for row, got in zip(rows, combined):
        want = scalar_combine_branches(base, [row, other])
        assert got.features == want.features
        assert got.count == want.count
        assert got.sums.tobytes() == want.sums.tobytes()
        assert got.products.tobytes() == want.products.tobytes()
