import base64
import json
import math
import os
import signal
import struct
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

from conftest import clean_tables, make_blobs, write_loans_csv
from creditworks import (
    CartParams,
    CartTree,
    Forest,
    ForestConfig,
    fit_cart,
    fit_forest,
    fit_logreg,
    forest_from_json_dict,
    forest_to_json_dict,
)
from creditworks import dataset, features, forest
from creditworks.errors import DataError, TrainingError
from creditworks.forest import CRITERIA, TREE_ARRAYS


def _impurity(criterion):
    """The impurity the split search uses, as a float of two class counts."""
    return lambda n0, n1: float(forest._impurity(float(n0 + n1), float(n1), criterion))


def test_gini_hand_values():
    gini = _impurity("gini")
    assert gini(5, 0) == 0.0
    assert gini(3, 3) == 0.5
    assert gini(1, 3) == 0.375


def test_entropy_hand_values():
    entropy = _impurity("entropy")
    assert entropy(4, 0) == 0.0
    assert entropy(2, 2) == 1.0
    assert entropy(1, 3) == pytest.approx(0.8112781244591328, abs=1e-16)


def test_impurity_properties():
    for imp in map(_impurity, CRITERIA):
        assert imp(0, 7) == 0.0
        assert imp(7, 0) == 0.0
        for a, b in [(1, 5), (2, 9), (4, 4)]:
            half = imp((a + b) // 2 + (a + b) % 2, (a + b) // 2)
            assert imp(a, b) <= imp(a + b - (a + b) // 2, (a + b) // 2) + 1e-15
            assert 0.0 <= imp(a, b) <= half + 1e-15


def _root_split(x, y, criterion="gini"):
    """(feature, threshold) of the root of a fit_cart stump, None for a leaf."""
    tree = fit_cart(x, y, CartParams(criterion=criterion, max_depth=1))
    if tree.feature[0] < 0:
        return None
    return int(tree.feature[0]), float(tree.threshold[0])


def test_best_split_hand_fixture():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    assert _root_split(x, y) == (0, 2.5)


def test_best_split_constant_features_give_none():
    x = np.full((6, 2), 3.0)
    y = np.array([0, 1, 0, 1, 0, 1])
    assert _root_split(x, y) is None


def test_best_split_tie_prefers_lowest_feature():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([0, 0, 1, 1])
    assert _root_split(x, y) == (0, 2.5)


def test_best_split_tie_prefers_lowest_threshold():
    # A pure class-0 run on both sides of the single 1 gives two splits with
    # equal gain: below the 1 and above it.
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0])
    assert _root_split(x, y) == (0, 1.5)


def _oracle_best_split(x, y, criterion):
    """Brute force over every midpoint cut, without a sort of the rows:
    (feature, threshold) of the highest gain, ties to the lowest feature,
    then the lowest threshold; None without a cut. The impurity has the
    library's arithmetic expression shape, in scalar math."""

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
    return None if best is None else best[:2]


def _reference_cart(x, y, params, rng=None, rows=None):
    """The recursive CART build fit_cart replaced, on top of the brute-force
    _oracle_best_split of each node's rows and drawn features.

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
        feats = np.sort(rng.choice(n_cols, size=k, replace=False)) if k < n_cols else np.arange(n_cols)
        found = _oracle_best_split(x[np.ix_(subset, feats)], y[subset], params.criterion)
        if found is None:
            return node
        feature, threshold = int(feats[found[0]]), found[1]
        mask = x[subset, feature] <= threshold
        if mask.all():
            return node  # the midpoint rounded onto the upper value: no cut
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
        want = _oracle_best_split(x, y, criterion)
        # A pure root is a leaf, whatever cut it has.
        assert _root_split(x, y, criterion) == (None if y.min() == y.max() else want)


@pytest.mark.parametrize(
    "rows",
    [pytest.param([-1, 0, 1], id="row-minus-1"), pytest.param([0, 1, 4], id="row-past-last")],
)
def test_best_split_rejects_indices_outside_the_matrix(rows):
    x = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(DataError, match="index outside"):
        fit_cart(x, y, rows=rows)


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


def test_fit_cart_splits_when_midpoint_rounds_onto_a_value_below_others():
    # The first of two equal-gain cuts lies between adjacent floats, so its
    # threshold is the upper one and both go left; 2.0 still goes right.
    a = 1.0 + 2.0**-52
    x = np.array([[a], [np.nextafter(a, 2.0)], [2.0]])
    y = np.array([0, 1, 0])
    tree = fit_cart(x, y, CartParams())
    assert tree.threshold[0] == x[1, 0]
    assert tree.stats()["nodes"] == 3
    want = _reference_cart(x, y, CartParams())
    for name in TREE_ARRAYS:
        assert getattr(tree, name).tolist() == want[name], name


@pytest.mark.parametrize(
    "values", [[1e308, 1.7e308], [-1.7e308, -1e308], [1.5e308, np.finfo(np.float64).max]]
)
def test_fit_cart_cuts_between_values_whose_sum_passes_the_float_range(values):
    # (lo + hi) / 2 is inf there: a threshold that sends every row left.
    x = np.array(values)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = fit_cart(x, np.array([0, 1]))
    assert values[0] < tree.threshold[0] < values[1]
    assert tree.predict_proba(x).tolist() == [0.0, 1.0]


@given(
    lo=st.floats(allow_nan=False, allow_infinity=False),
    hi=st.floats(allow_nan=False, allow_infinity=False),
)
def test_midpoint_has_the_bits_of_the_halved_sum_wherever_that_is_finite(lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    mid = forest._midpoint(np.array([lo]), np.array([hi]))[0]
    if math.isfinite(lo + hi):
        assert struct.pack("<d", mid) == struct.pack("<d", (lo + hi) / 2.0)
    else:
        assert lo <= mid <= hi


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_equals_one_node_a_step_where_midpoints_round(seed):
    # Values one float apart, so many midpoints round onto the upper value,
    # in nodes that share a step with others and in nodes alone in theirs.
    rng = np.random.default_rng(seed)
    a = 1.0 + 2.0**-52
    grid = np.array([a, np.nextafter(a, 2.0), np.nextafter(np.nextafter(a, 2.0), 2.0), 1.5, 2.0])
    x = grid[rng.integers(0, grid.size, size=(80, 3))]
    y = rng.integers(0, 2, size=80)
    params = CartParams(feature_subsample=2)

    def grow(cap):
        starts = ((np.random.default_rng((seed, t)), np.arange(80)) for t in range(4))
        with mock.patch.object(forest, "_STEP_CELLS", cap):
            return forest._grow(forest._coded(x, y), params, starts)

    for together, alone in zip(grow(2**62), grow(1)):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(together, name), getattr(alone, name)), name


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    d=st.integers(1, 3),
    criterion=st.sampled_from(CRITERIA),
    feature_subsample=st.sampled_from([None, 1, 2]),
)
def test_fit_cart_equals_reference_cart_where_midpoints_round(seed, n, d, criterion, feature_subsample):
    # Three floats one apart and two far from them: a cut whose midpoint
    # rounds onto the upper value is scored on the rows it sends left.
    a = 1.0 + 2.0**-52
    grid = np.array([a, np.nextafter(a, 2.0), np.nextafter(np.nextafter(a, 2.0), 2.0), 1.5, 2.0])
    rng = np.random.default_rng(seed)
    x = grid[rng.integers(0, grid.size, size=(n, d))]
    y = rng.integers(0, 2, size=n)
    params = CartParams(criterion=criterion, feature_subsample=feature_subsample)
    tree = fit_cart(x, y, params, np.random.default_rng(seed + 1))
    want = _reference_cart(x, y, params, np.random.default_rng(seed + 1))
    for name in TREE_ARRAYS:
        assert getattr(tree, name).tolist() == want[name], name


@settings(max_examples=500, deadline=None)
@given(
    lo=st.floats(allow_nan=False, allow_infinity=False),
    hi=st.floats(allow_nan=False, allow_infinity=False),
    steps=st.integers(2, 4),
)
def test_only_adjacent_floats_have_a_midpoint_that_rounds_onto_the_upper_one(lo, hi, steps):
    # The search skips the rounding check when no feature has two
    # consecutive values whose midpoint rounds: a node's consecutive values
    # that are not consecutive in the feature have a float between them.
    near = lo
    for _ in range(steps):
        near = math.nextafter(near, math.inf)
    for lo, hi in ((lo, near), (min(lo, hi), max(lo, hi))):
        if math.nextafter(lo, math.inf) < hi < math.inf:
            assert (lo + hi) / 2.0 != hi


def _assert_coded_alike(matrix):
    """_coded of a design matrix, from its category codes, equals _coded of
    its dense matrix, array for array; so does _coded of the matrix
    standardized, which is ranked from its scaled rows."""
    k = matrix.n_cols
    scaler = features.Scaler(np.linspace(-1.0, 1.0, k), np.linspace(2.0, 3.0, k), matrix.columns)
    for m in (matrix, features.apply_scaler(scaler, matrix)):
        view, dense = forest._coded(m, m.y), forest._coded(m.x, m.y)
        assert view.code.dtype == dense.code.dtype and np.array_equal(view.code, dense.code)
        assert view.values.tobytes() == dense.values.tobytes()
        assert (view.span, view.rounds) == (dense.span, dense.rounds)


def test_coded_of_the_conftest_book_equals_coded_of_its_dense_matrix(tmp_path):
    path = write_loans_csv(tmp_path / "loans.csv")
    table = dataset.filter_terminal(dataset.load_csv(path, dataset.default_column_specs()))
    table = dataset.handle_missing(dataset.drop_columns(table))
    matrix = dataset.encode(table)[0]
    for rows in (None, dataset.split_rows(table.row_count, 0.25, 11)[0]):
        _assert_coded_alike(matrix if rows is None else matrix.take(rows))


@settings(max_examples=200, deadline=None)
@given(data=clean_tables())
def test_coded_of_a_view_equals_coded_of_its_dense_matrix(data):
    # Dummies that are 1.0 on every row of a subset, or on none, included.
    table, rows = data
    matrix = dataset.encode(table)[0]
    for subset in (None, rows):
        _assert_coded_alike(matrix if subset is None else matrix.take(subset))


def test_the_rounding_check_changes_no_tree_where_no_midpoint_rounds():
    x, y = _tie_heavy_data(12, n=200)
    coded = forest._coded(x, y)
    assert not coded.rounds
    params = CartParams(feature_subsample=2, max_depth=8)

    def grow(codes):
        return forest._grow(codes, params, ((np.random.default_rng((6, t)), np.arange(200)) for t in range(3)))

    for a, b in zip(grow(coded), grow(coded._replace(rounds=True))):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    # _STEP_CELLS from one node per step (every node has more cells) to the
    # whole batch.
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

    with mock.patch.object(forest, "_STEP_CELLS", cap):
        trees = forest._grow(forest._coded(x, y), params, map(start, range(n_trees)))
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
    # Each array is base64 of its little-endian int32 or float64 bytes.
    stored = {
        "feature": struct.pack("<3i", 0, -1, -1),
        "threshold": struct.pack("<3d", 0.5, 0.0, 0.0),
        "left": struct.pack("<3i", 1, -1, -1),
        "right": struct.pack("<3i", 2, -1, -1),
        "count0": struct.pack("<3i", 1, 1, 0),
        "count1": struct.pack("<3i", 2, 1, 1),
    }
    assert payload["trees"] == [{name: base64.b64encode(raw).decode() for name, raw in stored.items()}]
    back = forest_from_json_dict(json.loads(json.dumps(payload))).trees[0]
    assert back.predict_proba(np.array([[0.0]]))[0] == 0.5


def test_a_count_past_int32_is_not_written():
    # A cast to int32 would wrap it to -2**31, and the model file would lie.
    leaf = np.array([-1])
    tree = CartTree(
        feature=leaf, threshold=np.zeros(1), left=leaf, right=leaf,
        count0=np.array([2**31]), count1=np.array([0]), params=CartParams(), n_features=1,
    )
    forest = Forest(trees=(tree,), seed=0, bootstrap=False, columns=("a",))
    with pytest.raises(TrainingError, match="'count0' holds a value outside int32"):
        forest_to_json_dict(forest)


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
    # Both model fits share one check.
    for fit in (fit_cart, fit_logreg):
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


@pytest.mark.parametrize("wide", ["codes", "node-offsets"])
def test_trees_do_not_depend_on_the_sort_key_width(wide):
    # int64 codes stand in for a matrix of 2**30 cells or more, and a span
    # of 2**31 for a step whose nodes' offsets pass int32.
    x, y = _tie_heavy_data(11, n=150)
    coded = forest._coded(x, y)
    if wide == "codes":
        widened = coded._replace(code=coded.code.astype(np.int64))
    else:
        widened = coded._replace(span=2**31)
    params = CartParams(feature_subsample=2, max_depth=6)

    def grow(codes):
        return forest._grow(codes, params, ((np.random.default_rng((5, t)), np.arange(150)) for t in range(3)))

    for a, b in zip(grow(coded), grow(widened)):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_fit_leaves_the_cpu_mask_and_the_trees_as_they_were(monkeypatch):
    """Each fit worker pins itself to a CPU for a moment: the process ends
    the fit with the CPU mask it started with, and with the serial trees."""
    x, y = _tie_heavy_data(7, n=160)
    config = ForestConfig(n_trees=6, params=CartParams(feature_subsample="auto", max_depth=5), seed=4)
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(forest, "_workers", lambda x, params: 1)
    serial = fit_forest(x, y, config)
    monkeypatch.setattr(forest, "_workers", lambda x, params: 2)
    pooled = fit_forest(x, y, config)
    assert os.sched_getaffinity(0) == mask
    for a, b in zip(serial.trees, pooled.trees):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_placing_a_worker_where_affinity_cannot_be_set_changes_nothing(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forest._place(1)  # no error
    monkeypatch.setattr(forest, "_workers", lambda x, params: 2)
    x, y = _tie_heavy_data(3, n=80)
    assert fit_forest(x, y, ForestConfig(n_trees=2, seed=1)).n_trees == 2


def test_n_trees_past_the_index_range_is_rejected():
    # Only a count that no list can hold: a large finite one would try to
    # allocate its list of trees.
    with pytest.raises(TrainingError, match="n_trees must be at most"):
        ForestConfig(n_trees=10**400)


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
    # Each worker announces its pid, and the size of the text it sends its
    # trees in, once it has grown its trees, or, with steps to go, before its
    # first step; then it sleeps for a second, while the parent is killed.
    # Later steps are slow.
    script = f"""
import json, os, time
import numpy as np
from creditworks import dataset, forest

real_grow = forest._grow

def announce(size=0):
    os.write(1, b"%d %d\\n" % (os.getpid(), size))  # one write: the workers share stdout
    time.sleep(1.0)

def slow_grow(coded, params, starts, stop=None):
    if not {fitting}:
        trees = real_grow(coded, params, starts, stop=stop)
        announce(len(json.dumps([forest._encode_tree(tree) for tree in trees])))
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
        announced = dict(map(int, proc.stdout.readline().split()) for _ in range(workers))
        children = [pid for pid in announced if pid != proc.pid]
        assert len(children) == workers - 1
        if not fitting:  # more than a 64 KiB pipe buffer each
            assert min(announced[pid] for pid in children) > 1 << 16, announced
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
