import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_blobs
from creditworks import (
    CartParams,
    CartTree,
    Forest,
    ForestConfig,
    best_split,
    entropy,
    fit_cart,
    fit_forest,
    fit_logreg,
    forest_from_json_dict,
    forest_to_json_dict,
    gini,
)
from creditworks import forest
from creditworks.errors import DataError, TrainingError
from creditworks.forest import CRITERIA, TREE_ARRAYS


def test_gini_hand_values():
    assert gini(5, 0) == 0.0
    assert gini(3, 3) == 0.5
    assert gini(1, 3) == 0.375


def test_entropy_hand_values():
    assert entropy(4, 0) == 0.0
    assert entropy(2, 2) == 1.0
    assert entropy(1, 3) == pytest.approx(0.8112781244591328, abs=1e-16)


def test_impurity_properties():
    for imp in (gini, entropy):
        assert imp(0, 7) == 0.0
        assert imp(7, 0) == 0.0
        for a, b in [(1, 5), (2, 9), (4, 4)]:
            half = imp((a + b) // 2 + (a + b) % 2, (a + b) // 2)
            assert imp(a, b) <= imp(a + b - (a + b) // 2, (a + b) // 2) + 1e-15
            assert 0.0 <= imp(a, b) <= half + 1e-15
    with pytest.raises(DataError):
        gini(0, 0)
    with pytest.raises(DataError):
        entropy(-1, 2)


def test_best_split_hand_fixture():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    feature, threshold, gain = best_split(x, y, criterion="gini")
    assert (feature, threshold, gain) == (0, 2.5, 0.5)


def test_best_split_constant_features_give_none():
    x = np.full((6, 2), 3.0)
    y = np.array([0, 1, 0, 1, 0, 1])
    assert best_split(x, y) is None


def test_best_split_tie_prefers_lowest_feature():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([0, 0, 1, 1])
    feature, threshold, _ = best_split(x, y)
    assert feature == 0
    assert threshold == 2.5


def test_best_split_tie_prefers_lowest_threshold():
    # A pure class-0 run on both sides of the single 1 gives two splits with
    # equal gain: below the 1 and above it.
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0])
    feature, threshold, gain = best_split(x, y)
    assert feature == 0
    assert threshold == 1.5
    assert gain > 0


def _oracle_best_split(x, y, criterion):
    # Same arithmetic expression shape as the library, scalar math only.
    def imp(labels):
        n = len(labels)
        c1 = int(sum(labels))
        c0 = n - c1
        if c0 == 0 or c1 == 0:
            return 0.0
        p0, p1 = c0 / n, c1 / n
        if criterion == "gini":
            return 1.0 - p0 * p0 - p1 * p1
        return -(p0 * math.log2(p0) + p1 * math.log2(p1))

    n = len(y)
    parent = imp(list(y))
    best = None
    for j in range(x.shape[1]):
        values = sorted(set(float(v) for v in x[:, j]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            left = [int(y[i]) for i in range(n) if x[i, j] <= t]
            right = [int(y[i]) for i in range(n) if x[i, j] > t]
            nl, nr = len(left), len(right)
            g = parent - (nl / n) * imp(left) - (nr / n) * imp(right)
            if best is None or g > best[2]:
                best = (j, t, g)
    if best is None:
        return None
    return best[0], best[1], max(0.0, best[2])



def _reference_cart(x, y, params, rng=None, rows=None):
    """The recursive CART build fit_cart replaced, on top of best_split.

    Returns the tree as preorder lists in CartTree's layout, so fit_cart's
    iterative build can be compared with it array by array.
    """
    n_cols = x.shape[1]
    fs = params.feature_subsample
    k = n_cols if fs is None else min(n_cols, math.ceil(math.sqrt(n_cols)) if fs == "auto" else fs)
    arrays = {name: [] for name in TREE_ARRAYS}

    def build(subset, depth):
        node = len(arrays["feature"])
        n1 = int(y[subset].sum())
        n0 = int(subset.size) - n1
        for name, value in zip(TREE_ARRAYS, (-1, 0.0, -1, -1, n0, n1)):
            arrays[name].append(value)
        if (
            n0 == 0
            or n1 == 0
            or subset.size < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return node
        feats = np.sort(rng.choice(n_cols, size=k, replace=False)) if k < n_cols else None
        found = best_split(x, y, subset, feats, params.criterion)
        if found is None:
            return node
        feature, threshold, _ = found
        mask = x[subset, feature] <= threshold
        arrays["feature"][node] = feature
        arrays["threshold"][node] = threshold
        arrays["left"][node] = build(subset[mask], depth + 1)
        arrays["right"][node] = build(subset[~mask], depth + 1)
        return node

    build(np.arange(x.shape[0]) if rows is None else rows, 0)
    return arrays


def _reference_predict(arrays, x):
    """Per-row walk down the preorder lists."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        node = 0
        while arrays["feature"][node] >= 0:
            go_left = row[arrays["feature"][node]] <= arrays["threshold"][node]
            node = arrays["left"][node] if go_left else arrays["right"][node]
        out[i] = arrays["count1"][node] / (arrays["count0"][node] + arrays["count1"][node])
    return out


def _tie_heavy_data(seed, n=160):
    rng = np.random.default_rng(seed)
    # Integer grids repeat values (ties in every sort); one continuous column.
    x = np.column_stack(
        [rng.integers(0, 4, size=(n, 3)), rng.integers(0, 12, size=n), rng.normal(size=n)]
    ).astype(np.float64)
    y = ((x[:, 0] + x[:, 3] > 7) ^ (rng.random(n) < 0.2)).astype(np.int64)
    return x, y

def test_best_split_agrees_with_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(260):
        # numpy's default sort is not stable, so equal values come out in
        # any order; the counts at a cut must not depend on it. The last 60
        # cases hold 17-200 rows, so each value repeats many times.
        n = int(rng.integers(2, 9)) if trial < 200 else int(rng.integers(17, 201))
        d = int(rng.integers(1, 4))
        # Small integer grid forces repeated values and candidate ties.
        x = rng.integers(0, 4 if trial % 3 else 12, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        criterion = "gini" if trial % 2 == 0 else "entropy"
        got = best_split(x, y, criterion=criterion)
        want = _oracle_best_split(x, y, criterion)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2], abs=1e-12)


@pytest.mark.parametrize(
    "rows, features",
    [
        pytest.param(None, [-1], id="feature-minus-1"),
        pytest.param(None, [0, 5], id="feature-past-last"),
        pytest.param([-1, 0, 1], None, id="row-minus-1"),
        pytest.param([0, 1, 4], None, id="row-past-last"),
    ],
)
def test_best_split_rejects_indices_outside_the_matrix(rows, features):
    x = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(DataError, match="index outside"):
        best_split(x, y, rows=rows, features=features)


@pytest.mark.parametrize("rows", [[-1, 0, 1], [0, 1, 4]], ids=["minus-1", "past-last"])
def test_fit_cart_rejects_rows_outside_the_matrix(rows):
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(DataError, match=r"row index outside \[0, 4\)"):
        fit_cart(x, np.array([0, 0, 1, 1]), rows=rows)


def test_zero_column_matrix_grows_single_leaf_trees():
    x = np.zeros((6, 0))
    y = np.array([0, 1, 1, 0, 1, 1])
    tree = fit_cart(x, y)
    assert tree.stats() == {"nodes": 1, "leaves": 1, "depth": 0}
    assert (tree.count0.tolist(), tree.count1.tolist()) == ([2], [4])
    grown = fit_forest(x, y, ForestConfig(n_trees=3, seed=2))
    assert all(t.stats()["nodes"] == 1 for t in grown.trees)
    assert grown.predict_proba(np.zeros((2, 0))).shape == (2,)


def test_fit_cart_pure_labels_single_leaf():
    x = np.array([[1.0], [2.0], [3.0]])
    tree = fit_cart(x, np.array([1, 1, 1]), CartParams())
    assert tree.feature[0] == -1 and tree.stats()["nodes"] == 1
    assert tree.predict_proba(x).tolist() == [1.0, 1.0, 1.0]


def test_fit_cart_learns_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_cart(x, y, CartParams())
    assert np.array_equal(tree.classify(x), y)
    stats = tree.stats()
    assert stats["leaves"] >= 3
    assert stats["nodes"] > stats["leaves"]


def test_fit_cart_fits_noise_free_duplicate_free_data():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    tree = fit_cart(x, y, CartParams())
    assert np.array_equal(tree.classify(x), y)


def test_fit_cart_max_depth_zero_is_leaf():
    x = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    tree = fit_cart(x, y, CartParams(max_depth=0))
    assert tree.feature[0] == -1 and tree.stats()["nodes"] == 1
    assert tree.predict_proba(np.array([[0.5]]))[0] == 0.5


def test_fit_cart_min_samples_split_blocks_small_nodes():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    tree = fit_cart(x, y, CartParams(min_samples_split=5))
    assert tree.feature[0] == -1 and tree.stats()["nodes"] == 1


def test_fit_cart_terminates_on_contradictory_duplicates():
    x = np.array([[1.0], [1.0], [2.0]])
    y = np.array([0, 1, 1])
    tree = fit_cart(x, y, CartParams())
    # The duplicate pair cannot be separated; its leaf reports the mix.
    p = tree.predict_proba(np.array([[1.0]]))[0]
    assert p == 0.5


def test_fit_cart_distinguishes_close_values():
    x = np.array([[1.0], [1.0 + 1e-9]])
    y = np.array([0, 1])
    tree = fit_cart(x, y, CartParams())
    assert np.array_equal(tree.classify(x), y)



def test_fit_cart_grows_deep_trees_without_recursion():
    # Alternating labels on distinct values peel one row off per level.
    x = np.arange(5000, dtype=np.float64).reshape(-1, 1)
    y = np.arange(5000) % 2
    tree = fit_cart(x, y, CartParams())
    assert tree.stats()["depth"] == 4999
    assert np.array_equal(tree.classify(x), y)
    forest = Forest(trees=(tree,), seed=0, bootstrap=False, columns=("a",))
    back = forest_from_json_dict(json.loads(json.dumps(forest_to_json_dict(forest))))
    assert np.array_equal(back.predict_proba(x), forest.predict_proba(x))


def test_fit_cart_leaf_when_midpoint_rounds_onto_upper_value():
    # (a + b) / 2 rounds to b for these adjacent floats, so "<= threshold"
    # sends both rows left; the node stays a leaf instead of repeating.
    a = 1.0 + 2.0**-52
    x = np.array([[a], [np.nextafter(a, 2.0)]])
    tree = fit_cart(x, np.array([0, 1]), CartParams())
    assert tree.stats()["nodes"] == 1
    assert tree.predict_proba(x).tolist() == [0.5, 0.5]


@pytest.mark.parametrize("criterion", CRITERIA)
def test_fit_cart_matches_recursive_reference(criterion):
    for seed in range(4):
        x, y = _tie_heavy_data(seed)
        for params in (
            CartParams(criterion=criterion),
            CartParams(criterion=criterion, max_depth=3, min_samples_split=9),
            CartParams(criterion=criterion, feature_subsample="auto"),
        ):
            rows = np.random.default_rng(seed).integers(0, x.shape[0], size=x.shape[0])
            tree = fit_cart(x, y, params, np.random.default_rng(seed + 100), rows=rows)
            want = _reference_cart(x, y, params, np.random.default_rng(seed + 100), rows)
            for name in TREE_ARRAYS:
                assert getattr(tree, name).tolist() == want[name], name
            assert np.array_equal(tree.predict_proba(x), _reference_predict(want, x))


@pytest.mark.parametrize("criterion", CRITERIA)
def test_fit_forest_matches_recursive_reference(criterion):
    x, y = _tie_heavy_data(9, n=240)
    config = ForestConfig(
        n_trees=6, params=CartParams(criterion=criterion, feature_subsample="auto"), seed=4
    )
    forest = fit_forest(x, y, config)
    probs = np.zeros(x.shape[0])
    for t, tree in enumerate(forest.trees):
        rng = np.random.default_rng((config.seed, t))
        rows = rng.integers(0, x.shape[0], size=x.shape[0])
        want = _reference_cart(x, y, config.params, rng, rows)
        for name in TREE_ARRAYS:
            assert getattr(tree, name).tolist() == want[name], name
        probs = probs + _reference_predict(want, x)
    assert np.array_equal(forest.predict_proba(x), probs / config.n_trees)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 90),
    n_trees=st.integers(1, 4),
    criterion=st.sampled_from(CRITERIA),
    max_depth=st.one_of(st.none(), st.integers(0, 6)),
    min_samples_split=st.integers(2, 9),
    feature_subsample=st.sampled_from([None, 2, "auto"]),
    bootstrap=st.booleans(),
    # From one node per step (every node has more cells) to the whole batch.
    cap=st.sampled_from([1, 40, 400, 2**62]),
)
def test_lockstep_grower_equals_reference_cart(
    seed, n, n_trees, criterion, max_depth, min_samples_split, feature_subsample, bootstrap, cap
):
    x, y = _tie_heavy_data(seed, n)
    # A copy of a column ties every cut on it with the same cut on the copy.
    x = np.column_stack([x, x[:, 3]])
    params = CartParams(criterion, max_depth, min_samples_split, feature_subsample)

    def start(t):
        rng = np.random.default_rng((seed, t))
        return rng, rng.integers(0, n, size=n) if bootstrap else np.arange(n)

    trees = forest._grow(forest._coded(x, y), params, map(start, range(n_trees)), cap=cap)
    assert len(trees) == n_trees
    for t, tree in enumerate(trees):
        want = _reference_cart(x, y, params, *start(t))
        for name in TREE_ARRAYS:
            assert getattr(tree, name).tolist() == want[name], (t, name)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_trees=st.integers(1, 5),
    block_rows=st.integers(2, 9),
    remainder=st.integers(1, 8),
    max_depth=st.one_of(st.none(), st.integers(0, 5)),
)
def test_self_loop_prediction_equals_reference_walk(seed, n_trees, block_rows, remainder, max_depth):
    x, y = _tie_heavy_data(seed, 60)
    config = ForestConfig(n_trees, CartParams(max_depth=max_depth, feature_subsample="auto"), seed)
    grown = fit_forest(x, y, config)
    # At least three whole walk blocks and a part of one: training rows,
    # which hold the thresholds' neighbours, then rows off the grid.
    rows = 3 * block_rows + 1 + remainder % (block_rows - 1)
    noise = np.random.default_rng(seed).normal(3.0, 4.0, size=(rows - rows // 2, x.shape[1]))
    queries = np.concatenate([x[: rows // 2], noise])
    wants = [_reference_predict({name: getattr(t, name) for name in TREE_ARRAYS}, queries) for t in grown.trees]
    with mock.patch.object(forest, "_WALK_CELLS", block_rows * n_trees):
        got = grown.predict_proba(queries)
        assert np.array_equal(grown.trees[0].predict_proba(queries), wants[0])
    want = wants[0]
    for tree in wants[1:]:
        want = want + tree
    assert np.array_equal(got, want / n_trees)


def test_fit_cart_depth_cap_respected():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 2))
    y = (rng.random(60) < 0.5).astype(np.int64)
    tree = fit_cart(x, y, CartParams(max_depth=3))
    assert tree.stats()["depth"] <= 3


def test_fit_cart_subsample_requires_rng():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 1])
    with pytest.raises(TrainingError):
        fit_cart(x, y, CartParams(feature_subsample=1))


def test_single_tree_forest_matches_cart():
    x, y = make_blobs(n_per_class=40, seed=19)
    config = ForestConfig(
        n_trees=1, params=CartParams(feature_subsample=None), seed=7, bootstrap=False
    )
    forest = fit_forest(x, y, config)
    tree = fit_cart(x, y, CartParams())
    assert np.array_equal(forest.predict_proba(x), tree.predict_proba(x))


def test_forest_same_seed_reproduces_exactly():
    x, y = make_blobs(n_per_class=30, seed=23)
    config = ForestConfig(n_trees=5, seed=101)
    a = fit_forest(x, y, config)
    b = fit_forest(x, y, config)
    assert json.dumps(forest_to_json_dict(a), sort_keys=True) == json.dumps(
        forest_to_json_dict(b), sort_keys=True
    )


def test_forest_different_seeds_differ():
    x, y = make_blobs(n_per_class=30, seed=23)
    a = fit_forest(x, y, ForestConfig(n_trees=5, seed=1))
    b = fit_forest(x, y, ForestConfig(n_trees=5, seed=2))
    assert json.dumps(forest_to_json_dict(a)) != json.dumps(forest_to_json_dict(b))


def test_forest_test_accuracy_not_far_below_single_tree():
    x, y = make_blobs(n_per_class=150, seed=29)
    x_test, y_test = make_blobs(n_per_class=100, seed=30)
    tree = fit_cart(x, y, CartParams())
    forest = fit_forest(x, y, ForestConfig(n_trees=50, seed=3))
    acc_tree = float((tree.classify(x_test) == y_test).mean())
    acc_forest = float((forest.classify(x_test) == y_test).mean())
    assert acc_forest >= acc_tree - 0.02


def test_forest_prediction_is_tree_order_invariant():
    x, y = make_blobs(n_per_class=40, seed=31)
    forest = fit_forest(x, y, ForestConfig(n_trees=9, seed=5))
    reversed_forest = Forest(
        trees=tuple(reversed(forest.trees)),
        seed=forest.seed,
        bootstrap=forest.bootstrap,
        columns=forest.columns,
    )
    assert np.allclose(
        forest.predict_proba(x), reversed_forest.predict_proba(x), atol=1e-12
    )


def test_predict_proba_forest_averages_trees():
    def leaf_tree(p):
        count1 = int(round(p * 10))
        x = np.zeros((10, 1))
        y = np.array([1] * count1 + [0] * (10 - count1))
        return fit_cart(x, y, CartParams())

    trees = (leaf_tree(0.2), leaf_tree(0.6))
    forest = Forest(trees=trees, seed=0, bootstrap=False, columns=("a",))
    p = forest.predict_proba(np.array([[1.0]]))
    assert p.shape == (1,)
    assert p[0] == pytest.approx(0.4, abs=1e-15)


def test_predict_proba_forest_five_tree_hand_average():
    x, y = make_blobs(n_per_class=30, seed=43)
    forest = fit_forest(x, y, ForestConfig(n_trees=5, seed=17))
    probe = np.array([[1.0, 2.5], [-0.5, 4.0], [3.0, 3.0]])
    per_tree = np.array([tree.predict_proba(probe) for tree in forest.trees])
    assert np.array_equal(forest.predict_proba(probe), per_tree.mean(axis=0))


def test_predict_proba_forest_unanimous():
    x = np.zeros((4, 1))
    y = np.ones(4, dtype=np.int64)
    trees = tuple(fit_cart(x, y, CartParams()) for _ in range(3))
    forest = Forest(trees=trees, seed=0, bootstrap=False, columns=("a",))
    assert forest.predict_proba(np.array([[0.0]])).tolist() == [1.0]


def test_forest_serialization_roundtrip():
    x, y = make_blobs(n_per_class=25, seed=37)
    forest = fit_forest(x, y, ForestConfig(n_trees=4, seed=13), columns=("a", "b"))
    payload = forest_to_json_dict(forest)
    assert payload["kind"] == "forest"
    assert payload["columns"] == ["a", "b"]
    assert payload["seed"] == 13
    back = forest_from_json_dict(payload)
    assert back.n_trees == 4
    assert np.array_equal(back.predict_proba(x), forest.predict_proba(x))
    assert np.array_equal(back.classify(x), forest.classify(x))


def test_tree_serialization_preserves_leaf_counts():
    x = np.array([[0.0], [0.0], [1.0]])
    y = np.array([0, 1, 1])
    tree = fit_cart(x, y, CartParams())
    forest = Forest(trees=(tree,), seed=0, bootstrap=False, columns=("a",))
    payload = forest_to_json_dict(forest)
    arrays = payload["trees"][0]
    assert arrays["feature"][0] == 0 and arrays["threshold"][0] == 0.5
    left = arrays["left"][0]
    assert arrays["feature"][left] == -1
    assert arrays["count0"][left] == 1 and arrays["count1"][left] == 1
    back = forest_from_json_dict(json.loads(json.dumps(payload))).trees[0]
    assert back.predict_proba(np.array([[0.0]]))[0] == 0.5


def test_forest_rejects_wrong_width():
    x, y = make_blobs(n_per_class=10, seed=41)
    forest = fit_forest(x, y, ForestConfig(n_trees=2, seed=1))
    with pytest.raises(DataError):
        forest.predict_proba(np.zeros((2, 3)))


def test_cart_params_validation():
    with pytest.raises(TrainingError):
        CartParams(criterion="mse")
    with pytest.raises(TrainingError):
        CartParams(min_samples_split=1)
    with pytest.raises(TrainingError):
        CartParams(max_depth=-1)
    with pytest.raises(TrainingError):
        CartParams(feature_subsample=0)


def test_forest_config_validation():
    with pytest.raises(TrainingError):
        ForestConfig(n_trees=0)


@pytest.mark.parametrize(
    "x, y, error, fragment",
    [
        pytest.param(np.zeros(4), [0, 1, 0, 1], DataError, "2-D", id="1-d"),
        pytest.param(np.zeros((4, 2)), [0, 1, 0], DataError, "target length", id="short-y"),
        pytest.param(np.zeros((0, 2)), [], TrainingError, "empty matrix", id="empty"),
        pytest.param(np.zeros((4, 2)), [0, 1, 2, 1], TrainingError, "0/1", id="label-2"),
        # Checked as values: a cast to int first would train these as [0, 1, 0, 1].
        pytest.param(np.zeros((4, 2)), [0.5, 1.7, 0.2, 1.0], TrainingError, "0/1", id="label-fraction"),
        pytest.param(np.array([[0.0], [np.nan], [1.0], [2.0]]), [0, 1, 0, 1], TrainingError, "non-finite",
                     id="nan-feature"),
    ],
)
def test_bad_training_input_raises_before_any_fork(monkeypatch, x, y, error, fragment):
    # Both model fits and best_split share one check.
    for fit in (fit_cart, best_split, fit_logreg):
        with pytest.raises(error, match=fragment):
            fit(x, y)
    monkeypatch.setattr(forest, "_workers", lambda x, params: 2)
    monkeypatch.setattr(forest.os, "fork", lambda: pytest.fail("forked on bad input"))
    with pytest.raises(error, match=fragment):
        fit_forest(x, y, ForestConfig(n_trees=3))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_fit_forest_equals_serial_loop_for_any_worker_count(monkeypatch, workers, bootstrap):
    monkeypatch.setattr(forest, "_workers", lambda x, params: workers)
    x, y = _tie_heavy_data(5, n=120)
    params = CartParams(feature_subsample="auto", max_depth=6)
    for n_trees in (1, 2, 5, 7):
        config = ForestConfig(n_trees=n_trees, params=params, seed=3, bootstrap=bootstrap)
        got = fit_forest(x, y, config)
        assert got.n_trees == n_trees
        for t, tree in enumerate(got.trees):
            rng = np.random.default_rng((config.seed, t))
            rows = rng.integers(0, len(y), size=len(y)) if bootstrap else None
            want = fit_cart(x, y, params, rng, rows=rows)
            for name in TREE_ARRAYS:
                a, b = getattr(tree, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n_trees, t, name)


@pytest.mark.parametrize(
    "bad_tree, error, fragment",
    [
        pytest.param(0, MemoryError, "tree 0", id="parent"),
        pytest.param(1, TrainingError, "forest worker 1 failed with exit status 1", id="child"),
        pytest.param(4, TrainingError, "forest worker 1 failed with exit status 1", id="child-later-tree"),
    ],
)
def test_failed_worker_raises_and_leaves_no_child(monkeypatch, bad_tree, error, fragment):
    x, y = _tie_heavy_data(6, n=120)
    config = ForestConfig(n_trees=6, seed=8)
    bad_rows = np.random.default_rng((config.seed, bad_tree)).integers(0, len(y), size=len(y))
    real_grow = forest._grow

    def failing_grow(coded, params, starts, **kwargs):
        starts = list(starts)
        if any(np.array_equal(rows, bad_rows) for _, rows in starts):
            raise MemoryError(f"tree {bad_tree}")
        return real_grow(coded, params, starts, **kwargs)

    monkeypatch.setattr(forest, "_workers", lambda x, params: 3)
    monkeypatch.setattr(forest, "_grow", failing_grow)
    with pytest.raises(error, match=fragment):
        fit_forest(x, y, config)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


AUTO = CartParams(feature_subsample="auto")


@pytest.mark.parametrize(
    "cpus, free_pages, params, want",
    [
        pytest.param(1, 10**9, AUTO, 1, id="one-cpu"),
        pytest.param(8, 10**9, AUTO, 2, id="capped-at-measured"),
        pytest.param(8, 1, AUTO, 1, id="no-memory-for-a-second-working-set"),
        # The budget is 5 bytes per byte of the root's drawn features, 4 or
        # all 14 of x's columns over its 1000 rows: 160,000 or 560,000
        # bytes. 128 pages (524,288 bytes) hold only the first.
        pytest.param(8, 128, AUTO, 2, id="memory-for-a-subsampled-search"),
        pytest.param(8, 128, CartParams(), 1, id="no-memory-for-a-full-search"),
    ],
)
def test_worker_count_is_bounded_by_cpus_cap_and_free_memory(monkeypatch, cpus, free_pages, params, want):
    x = np.zeros((1000, 14))
    pages = {"SC_AVPHYS_PAGES": free_pages, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert forest._workers(x, params) == want


def test_worker_count_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert forest._workers(np.zeros((10, 2)), AUTO) == 1


def test_fork_warning_of_a_threaded_process_neither_fails_nor_loses_a_child(monkeypatch):
    # Python 3.12+ warns, in the parent, after a fork in a threaded process;
    # the suite turns DeprecationWarning into an error. Raised there, it would
    # lose the new child's pid, which then could never be reaped.
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks"
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(forest, "_workers", lambda x, params: 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    x, y = _tie_heavy_data(9, n=80)
    assert fit_forest(x, y, ForestConfig(n_trees=2, seed=1)).n_trees == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _finished(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize(
    "fitting",
    [
        # Each child has grown its trees: its write of more than a pipe
        # buffer must fail rather than block for ever.
        pytest.param(False, id="writing"),
        # Each child has steps to go, which would take minutes.
        pytest.param(True, id="fitting"),
    ],
)
def test_workers_of_a_killed_parent_exit(tmp_path, fitting):
    workers = 3
    # Each worker announces its pid once it has grown its trees, or, with
    # steps to go, before its first step; then it sleeps for a second, while
    # the parent is killed. Later steps are slow.
    script = f"""
import os, time
import numpy as np
from creditworks import forest

real_grow = forest._grow

def announce():
    os.write(1, b"%d\\n" % os.getpid())  # one write: the workers share stdout
    time.sleep(1.0)

def slow_grow(coded, params, starts, stop=None):
    if not {fitting}:
        trees = real_grow(coded, params, starts, stop=stop)
        announce()
        return trees
    announce()

    def slow_stop():
        time.sleep(0.1)
        return stop is not None and stop()

    return real_grow(coded, params, starts, stop=slow_stop)

forest._grow = slow_grow
forest._workers = lambda x, params: {workers}
rng = np.random.default_rng(0)
x, y = rng.random((8000, 5)), rng.integers(0, 2, 8000)
forest.fit_forest(x, y, forest.ForestConfig(n_trees={2 * workers}))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(forest.__file__).resolve().parents[1])}
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=err, env=env, text=True)
    children = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(workers)]
        children = [pid for pid in pids if pid != proc.pid]
        assert len(children) == workers - 1
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 30.0
        while not all(map(_finished, children)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert all(map(_finished, children)), (tmp_path / "stderr").read_text()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in children:
            if not _finished(pid):
                os.kill(pid, signal.SIGKILL)
