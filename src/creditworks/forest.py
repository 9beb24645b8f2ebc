"""CART decision trees and a bootstrap-aggregated random forest.

Splits maximize information gain over midpoint thresholds between consecutive
distinct feature values. Like reference CART implementations, an impure node
is split even when the best achievable gain is zero (two interleaved classes
can need several zero-gain cuts before any pure region appears); a node only
becomes a leaf when it is pure, hits a size or depth limit, or no candidate
threshold exists at all.
"""

from __future__ import annotations

import io
import math
import os
import signal
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataError, TrainingError, check_setting, check_training_data

CRITERIA = ("gini", "entropy")


def _impurity_from_counts(n0, n1, criterion):
    """Impurity of nodes given per-class counts; vectorized over arrays."""
    n0 = np.asarray(n0, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n = n0 + n1
    p0 = n0 / n
    p1 = n1 / n
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    # 0*log2(0) = 0: feed log2 a 1 wherever p is 0, the product zeroes it out.
    t0 = p0 * np.log2(np.where(p0 > 0.0, p0, 1.0))
    t1 = p1 * np.log2(np.where(p1 > 0.0, p1, 1.0))
    return -(t0 + t1)


def _check_counts(n0, n1, what):
    if n0 < 0 or n1 < 0 or int(n0) != n0 or int(n1) != n1:
        raise DataError(f"{what} counts must be non-negative integers, got ({n0}, {n1})")
    if n0 + n1 < 1:
        raise DataError(f"{what} must hold at least one sample")


def gini(n0: int, n1: int) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of a node with n0/n1 samples per class."""
    _check_counts(n0, n1, "node")
    return float(_impurity_from_counts(n0, n1, "gini"))


def entropy(n0: int, n1: int) -> float:
    """Shannon entropy -sum p_i log2 p_i in bits; 0*log(0) counts as 0."""
    _check_counts(n0, n1, "node")
    return float(_impurity_from_counts(n0, n1, "entropy"))


class _Coded(NamedTuple):
    """A training matrix as rank codes, which one integer sort orders.

    code[f, i] is 2 * r + y[i], where r ranks x[i, f] among feature f's
    distinct values (0 for the smallest), so one code carries a value's
    order and the row's label. The distinct values themselves are
    values[offset[f] + r]. span exceeds every code.
    """

    code: np.ndarray
    values: np.ndarray
    offset: np.ndarray
    span: int
    y: np.ndarray


def _coded(x, y) -> _Coded:
    n, n_cols = x.shape
    # Ranks are below n, so int32 codes hold any matrix of under 2**30 rows.
    code = np.empty((n_cols, n), dtype=np.int32 if n < 2**30 else np.int64)
    levels = []
    for f in range(n_cols):
        values, rank = np.unique(x[:, f], return_inverse=True)
        np.add(2 * rank, y, out=code[f], casting="unsafe")
        levels.append(values)
    offset = np.cumsum([0] + [values.size for values in levels[:-1]], dtype=np.intp)
    span = 2 * max((values.size for values in levels), default=1)
    return _Coded(code, np.concatenate(levels) if levels else np.zeros(0), offset, span, y)


def _search(coded: _Coded, rows, sizes, feats, criterion):
    """Highest-gain cut of every node of a batch, in one sort.

    The batch's nodes hold sizes[i] rows each, listed in node order in rows,
    and node i's candidate features are feats[i], in ascending order. Each
    (node, feature) pair is a segment of one key array, and one sort orders
    every segment by value. A cut between sorted positions p and p + 1 of a
    segment is a candidate where the two values differ, at their midpoint;
    the class counts on either side of it do not depend on how equal values
    are ordered. Within a node, ties break toward the lowest feature row,
    then the lowest threshold.

    Returns per node (row, cut, bound, gain): the winning row of feats[i], or
    -1 without a candidate; the threshold; the highest rank that goes left
    (x <= threshold), which is the upper value's when the midpoint rounds
    onto it; and the gain.
    """
    m, k = feats.shape
    seg_len = np.repeat(sizes, k)
    seg_end = np.cumsum(seg_len)
    best = np.full(m, -1)
    cut, bound, gain = np.zeros(m), np.zeros(m, dtype=np.intp), np.zeros(m)
    cells = int(seg_end[-1]) if seg_end.size else 0
    if cells < 2:
        return best, cut, bound, gain
    seg_start = seg_end - seg_len
    node_start = np.cumsum(sizes) - sizes
    # Cell c of a segment is its node's row number c - seg_start, as a
    # position in the feature-major code table.
    at = np.arange(cells) - np.repeat(seg_start - np.repeat(node_start, k), seg_len)
    n = coded.code.shape[1]
    dtype = np.int32 if m * k * coded.span <= 2**31 else np.int64
    key = coded.code.ravel()[rows[at] + np.repeat(feats.ravel() * n, seg_len)].astype(dtype, copy=False)
    del at
    seg_base = np.arange(m * k, dtype=dtype) * coded.span
    key += np.repeat(seg_base, seg_len)
    key.sort()
    labels = key & 1
    key >>= 1
    step_up = key[:-1] < key[1:]
    step_up[seg_end[:-1] - 1] = False
    cand = np.flatnonzero(step_up)
    if cand.size == 0:
        return best, cut, bound, gain
    cum = np.cumsum(labels)
    below = cum[seg_start] - labels[seg_start]
    seg = np.searchsorted(seg_end, cand, side="right")
    node = seg // k
    n_all = sizes.astype(np.float64)
    n1_all = (cum[seg_end[::k] - 1] - below[::k]).astype(np.float64)
    nn = n_all[node]
    nl = (cand - seg_start[seg] + 1).astype(np.float64)
    nl1 = (cum[cand] - below[seg]).astype(np.float64)
    nl0 = nl - nl1
    nr = nn - nl
    nr1 = n1_all[node] - nl1
    nr0 = nr - nr1
    gains = (
        _impurity_from_counts(n_all - n1_all, n1_all, criterion)[node]
        - (nl / nn) * _impurity_from_counts(nl0, nl1, criterion)
        - (nr / nn) * _impurity_from_counts(nr0, nr1, criterion)
    )
    # Candidates run in (node, feature row, position) order, so each node's
    # first maximum is the tie-break winner.
    group = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    top = np.maximum.reduceat(gains, group)
    hits = np.flatnonzero(gains == np.repeat(top, np.diff(np.append(group, cand.size))))
    win = hits[np.concatenate(([True], node[hits[1:]] != node[hits[:-1]]))]
    won, p, seg = node[win], cand[win], seg[win]
    best[won] = seg % k
    base = coded.offset[feats[won, best[won]]]
    lo_rank, hi_rank = key[p] - seg_base[seg] // 2, key[p + 1] - seg_base[seg] // 2
    hi = coded.values[base + hi_rank]
    cut[won] = (coded.values[base + lo_rank] + hi) / 2.0
    bound[won] = np.where(cut[won] == hi, hi_rank, lo_rank)
    gain[won] = gains[win]
    return best, cut, bound, gain


def _check_rows(rows, n: int) -> np.ndarray:
    """rows as indices into n samples, all of them when None."""
    if rows is None:
        return np.arange(n)
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise DataError(f"row index outside [0, {n})")
    return rows


def best_split(x, y, rows=None, features=None, criterion: str = "gini"):
    """Exhaustive search for the highest-gain (feature, threshold) cut.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each candidate feature. Ties break toward the lowest feature
    index, then the lowest threshold. Returns (feature, threshold, gain), or
    None when every candidate feature is constant over the row subset. x
    and y are checked as for fit_cart, and a row or feature index outside
    x raises DataError.
    """
    if criterion not in CRITERIA:
        raise TrainingError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    x, y = check_training_data(x, y)
    rows = _check_rows(rows, x.shape[0])
    feats = np.arange(x.shape[1]) if features is None else np.unique(np.asarray(features, dtype=np.intp))
    if feats.size and (feats[0] < 0 or feats[-1] >= x.shape[1]):
        raise DataError(f"feature index outside [0, {x.shape[1]})")
    sub = x[rows[:, None], feats]
    best, cut, _, gain = _search(
        _coded(sub, y[rows]), np.arange(rows.size), np.array([rows.size]), np.arange(feats.size)[None], criterion
    )
    if best[0] < 0:
        return None
    return int(feats[best[0]]), float(cut[0]), max(0.0, float(gain[0]))


@dataclass(frozen=True)
class CartParams:
    criterion: str = "gini"
    max_depth: int | None = None
    min_samples_split: int = 2
    # None = use all features; an integer = per-node draw of that many
    # features; "auto" = ceil(sqrt(n_features)), the usual forest default.
    feature_subsample: int | str | None = None

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise TrainingError(f"unknown criterion {self.criterion!r}")
        if self.max_depth is not None:
            check_setting("max_depth", self.max_depth, int)
            if self.max_depth < 0:
                raise TrainingError(f"max_depth must be >= 0, got {self.max_depth}")
        check_setting("min_samples_split", self.min_samples_split, int)
        if self.min_samples_split < 2:
            raise TrainingError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        fs = self.feature_subsample
        if fs is not None and fs != "auto" and (type(fs) is not int or fs < 1):
            raise TrainingError(f"feature_subsample must be None, 'auto' or a count, got {fs!r}")


TREE_ARRAYS = ("feature", "threshold", "left", "right", "count0", "count1")


def _dtype(name: str):
    return np.float64 if name == "threshold" else np.intp


@dataclass(frozen=True, eq=False)
class CartTree:
    """One tree as parallel arrays over its nodes, numbered in preorder.

    Node i is a leaf iff feature[i] == -1. Otherwise a row continues at
    left[i] when x[feature[i]] <= threshold[i] and at right[i] if not.
    count0 and count1 are the node's training samples per class; a leaf
    predicts count1 / (count0 + count1). Construction checks that the
    arrays form one tree whose children come after their parent, which
    bounds every walk, so arrays read from a file are safe to predict with.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    count0: np.ndarray
    count1: np.ndarray
    params: CartParams
    n_features: int

    def __post_init__(self):
        sizes = {name: len(getattr(self, name)) for name in TREE_ARRAYS}
        n = sizes["feature"]
        if n < 1 or len(set(sizes.values())) != 1:
            raise DataError(f"tree arrays must be non-empty and of equal length, got {sizes}")
        feature = self.feature
        if feature.min() < -1 or feature.max() >= self.n_features:
            raise DataError(f"tree feature index outside [-1, {self.n_features})")
        inner = np.flatnonzero(feature >= 0)
        children = np.concatenate([self.left[inner], self.right[inner]])
        if np.any(children <= np.concatenate([inner, inner])) or np.any(children >= n):
            raise DataError("tree child index must exceed its parent's and lie inside the arrays")
        if not np.array_equal(np.sort(children), np.arange(1, n)):
            raise DataError("every tree node but the root must be the child of exactly one node")
        if self.count0.min() < 0 or self.count1.min() < 0:
            raise DataError("tree class counts must be non-negative")
        leaf = feature < 0
        if np.any(self.count0[leaf] + self.count1[leaf] < 1):
            raise DataError("every tree leaf must hold at least one training sample")

    @cached_property
    def _loops(self) -> "_Loops":
        return _loops((self,))

    def predict_proba(self, x) -> np.ndarray:
        return _leaf_sum(self._loops, _check_input(x, self.n_features))

    def classify(self, x, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    def stats(self) -> dict:
        """Node count, leaf count and depth."""
        leaves = int(np.count_nonzero(self.feature < 0))
        depth = _depth(self.feature, self.left, self.right, np.zeros(1, dtype=np.intp))
        return {"nodes": int(self.feature.size), "leaves": leaves, "depth": depth}


def _depth(feature, left, right, roots) -> int:
    """Edges on the longest path from any of roots to a leaf."""
    depth, level = 0, roots
    while True:
        level = level[feature[level] >= 0]
        if level.size == 0:
            return depth
        level = np.concatenate([left[level], right[level]])
        depth += 1


def _check_input(x, n_features: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != n_features:
        raise DataError(f"tree was grown on {n_features} features, input has {x.shape[1]}")
    return x


class _Loops(NamedTuple):
    """Trees laid end to end for a walk of a fixed number of steps.

    Every leaf points to itself on both sides and tests feature 0 against
    +inf, so a row that reaches a leaf stays there, and depth steps take
    every row of every tree to its leaf. child[2 * i + 1] is node i's left
    child (x <= threshold) and child[2 * i] its right one. value holds each
    leaf's prediction, count1 / (count0 + count1).
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


def _loops(trees) -> _Loops:
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    first = np.repeat(roots, sizes)
    feature, threshold, left, right, count0, count1 = (
        np.concatenate([getattr(tree, name) for tree in trees]) for name in TREE_ARRAYS
    )
    left += first
    right += first
    depth = _depth(feature, left, right, roots)
    leaf = feature < 0
    at = np.flatnonzero(leaf)
    feature[leaf], threshold[leaf], left[leaf], right[leaf] = 0, np.inf, at, at
    value = np.divide(count1, count0 + count1, out=np.zeros(leaf.size), where=leaf)
    return _Loops(feature, threshold, np.column_stack([right, left]).ravel(), value, roots, depth)


# Node-rows (trees times rows) one walk step holds: about 40 bytes each.
_WALK_CELLS = 1 << 15


def _leaf_sum(loops: _Loops, x) -> np.ndarray:
    """Each row's leaf values summed over the trees, a left fold in tree order."""
    total = np.empty(x.shape[0])
    n_trees, n_cols = loops.roots.size, x.shape[1]
    rows = max(1, _WALK_CELLS // n_trees)
    for start in range(0, x.shape[0], rows):
        block = x[start : start + rows]
        flat = block.ravel()
        offset = np.arange(block.shape[0]) * n_cols
        node = np.repeat(loops.roots, block.shape[0]).reshape(n_trees, -1)
        for _ in range(loops.depth):
            at = loops.feature[node]
            at += offset
            go_left = flat[at] <= loops.threshold[node]
            del at
            node *= 2
            node += go_left
            node = loops.child[node]
        leaf = loops.value[node]
        sums = leaf[0]
        for tree in leaf[1:]:
            sums = sums + tree
        total[start : start + rows] = sums
    return total


def _resolve_subsample(params: CartParams, n_cols: int) -> int:
    fs = params.feature_subsample
    if fs is None:
        return n_cols
    if fs == "auto":
        return min(n_cols, math.ceil(math.sqrt(n_cols)))
    return min(n_cols, int(fs))


def fit_cart(x, y, params: CartParams = CartParams(), rng=None, rows=None) -> CartTree:
    """Grow one tree by impurity-minimizing splits, depth first.

    A node becomes a leaf when it is pure, smaller than min_samples_split,
    at max_depth, or when no candidate threshold exists. With feature
    subsampling active, each node that passes those checks draws its
    feature subset from rng in preorder (node, then left subtree, then
    right subtree), which pins the tree for a given generator state.

    Each split node sorts only its drawn features, over its own rows (see
    _search), and sends a row left when its value is <= the threshold.
    """
    x, y = check_training_data(x, y)
    return _grow(_coded(x, y), params, [(rng, _check_rows(rows, x.shape[0]))])[0]


# Cells (a node's rows times its drawn features) one grower step may search.
# The step's sort keys and per-candidate arrays take up to about 100 bytes
# a cell, so this bounds them at about 1.6 MB. It changes no tree, only how
# many nodes share a sort. 15 trees at depth 10 on a 6,091 x 14 matrix
# took 0.66, 0.33, 0.25 and 0.22 s of CPU with caps of 1,024, 4,096,
# 16,384 and 65,536 cells; the larger caps' arrays would set the peak RSS
# of a `train` that small.
_STEP_CELLS = 1 << 14


def _grow(coded: _Coded, params: CartParams, starts, cap: int = _STEP_CELLS, stop=None):
    """Grow one tree per (rng, rows) pair of starts, all in lockstep.

    Each tree keeps its own depth-first stack and numbers its nodes in the
    order it pops them. A step pops, from every tree with nodes left, the
    leaves on top of its stack and then one node to split, and one _search
    covers the popped nodes of all trees. So each tree still draws its
    feature subsets in its own preorder, and the trees equal those grown one
    at a time. A node's rows are a range of one array holding every tree's
    rows; a split reorders its range, left rows first. stop, if given, is
    called before each step, and the grower returns None once it says true.
    """
    n_cols = coded.code.shape[0]
    k = _resolve_subsample(params, n_cols)
    max_depth = math.inf if params.max_depth is None else params.max_depth

    def leaf(n, n1, depth):
        return n1 == 0 or n1 == n or n < params.min_samples_split or depth >= max_depth or n_cols == 0

    # Per tree: a stack of (first, end, depth, node whose right child this
    # is or -1, positives, leaf) and the count0, count1, splits and right
    # links of its nodes so far. Each tree's rows are kept as int32 as soon
    # as they are drawn.
    rngs, parts, stacks, first = [], [], [], 0
    for rng, rows in starts:
        if rows.size == 0:
            raise TrainingError("cannot fit on an empty row subset")
        n1 = int(coded.y[rows].sum())
        stacks.append([(first, first + rows.size, 0, -1, n1, leaf(rows.size, n1, 0))])
        first += rows.size
        rngs.append(rng)
        parts.append(rows.astype(np.int32 if coded.y.size < 2**31 else np.intp))
    if k < n_cols and any(rng is None for rng in rngs):
        raise TrainingError("feature subsampling requires an rng")
    perm = np.concatenate(parts)
    del parts
    grown = [([], [], [], []) for _ in stacks]

    def pop(t):
        """Number tree t's next node and record its class counts."""
        lo, hi, depth, right_of, n1, _ = stacks[t].pop()
        count0, count1, _, rights = grown[t]
        if right_of >= 0:
            rights.append((right_of, len(count0)))
        count0.append(hi - lo - n1)
        count1.append(n1)
        return t, len(count0) - 1, lo, hi, depth, n1

    pending = list(range(len(stacks)))
    while pending:
        if stop is not None and stop():
            return None
        for t in pending:
            while stacks[t] and stacks[t][-1][5]:
                pop(t)
        # The largest next nodes first, so that none waits behind smaller
        # ones; a node larger than the cap gets a step to itself.
        batch, cells = [], 0
        for t in sorted((t for t in pending if stacks[t]), key=lambda t: stacks[t][-1][0] - stacks[t][-1][1]):
            lo, hi = stacks[t][-1][:2]
            if not batch or cells + (hi - lo) * k <= cap:
                batch.append(pop(t))
                cells += (hi - lo) * k
        if batch:
            if k < n_cols:
                feats = np.sort([rngs[t].choice(n_cols, size=(k,), replace=False) for t, *_ in batch], axis=1)
            else:
                feats = np.broadcast_to(np.arange(n_cols), (len(batch), n_cols))
            for i, f, c, nl, l1 in _split(coded, perm, batch, feats, params.criterion, cap):
                t, node, a, b, depth, n1 = batch[i]
                grown[t][2].append((node, f, c))
                depth += 1
                stacks[t].append((a + nl, b, depth, node, n1 - l1, leaf(b - a - nl, n1 - l1, depth)))
                stacks[t].append((a, a + nl, depth, -1, l1, leaf(nl, l1, depth)))
        pending = [t for t in pending if stacks[t]]
    return [_tree(params, n_cols, *arrays) for arrays in grown]


def _split(coded: _Coded, perm, batch, feats, criterion, cap):
    """Search the batch's nodes and split their ranges of perm in place.

    Yields (i, feature, threshold, left rows, left positives) for each node
    batch[i] = (tree, node, first, end, depth, positives) that splits; its
    left rows then fill the start of its range.
    """
    lo = np.array([b[2] for b in batch])
    size = np.array([b[3] for b in batch]) - lo
    start = np.cumsum(size) - size
    rows = perm[np.arange(start[-1] + size[-1]) + np.repeat(lo - start, size)]
    # A batch over the cap is one node: search its features a few at a
    # time, so the search holds about cap cells, or one feature's. A later
    # group wins only with a greater gain, which keeps the tie-break.
    step = max(1, cap // int(size.sum()))
    best = None
    for j in range(0, feats.shape[1], step):
        found = _search(coded, rows, size, feats[:, j : j + step], criterion)
        if best is None:
            best, cut, bound, gain = found
        elif found[0][0] >= 0 and (best[0] < 0 or found[3][0] > gain[0]):
            best, cut, bound, gain = found[0] + j, found[1], found[2], found[3]
    found = best >= 0
    split = np.flatnonzero(found)
    if split.size == 0:
        return
    rows = rows[np.repeat(found, size)]
    size, feature = size[split], feats[split, best[split]]
    code = coded.code.ravel()[rows + np.repeat(feature * coded.code.shape[1], size)]
    go_left = (code >> 1) <= np.repeat(bound[split], size)
    start = np.cumsum(size) - size
    n_left = np.add.reduceat(go_left, start, dtype=np.intp)
    left_n1 = np.add.reduceat(code & go_left, start, dtype=np.intp)
    # Each row's place in its node's range: its rank among the node's left
    # rows, or after all of them, its rank among the right ones.
    lefts = np.cumsum(go_left)
    lefts -= np.repeat(lefts[start] - go_left[start], size)
    at = np.where(go_left, lefts - 1, np.arange(rows.size) - np.repeat(start - n_left, size) - lefts)
    perm[np.repeat(lo[split], size) + at] = rows
    for i, f, c, nl, l1, n in zip(split.tolist(), feature.tolist(), cut[split].tolist(), n_left.tolist(),
                                  left_n1.tolist(), size.tolist()):
        # With nl == n the midpoint rounded onto the upper value (adjacent
        # floats), so "<=" keeps every sample on the left: the cut separates
        # nothing and the node stays a leaf.
        if nl < n:
            yield i, f, c, nl, l1


def _tree(params, n_cols, count0, count1, splits, rights) -> CartTree:
    size = len(count0)
    feature, left, right = (np.full(size, -1, dtype=np.intp) for _ in range(3))
    threshold = np.zeros(size)
    if splits:
        node, feats, cuts = (np.array(c) for c in zip(*splits))
        feature[node], threshold[node], left[node] = feats, cuts, node + 1
        parent, child = np.array(rights).T
        right[parent] = child
    return CartTree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        count0=np.array(count0, dtype=np.intp),
        count1=np.array(count1, dtype=np.intp),
        params=params,
        n_features=n_cols,
    )


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    params: CartParams = CartParams(feature_subsample="auto")
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        check_setting("n_trees", self.n_trees, int)
        check_setting("seed", self.seed, int)
        check_setting("bootstrap", self.bootstrap, bool)
        if self.n_trees < 1:
            raise TrainingError(f"n_trees must be >= 1, got {self.n_trees}")


@dataclass(frozen=True)
class Forest:
    trees: tuple[CartTree, ...]
    seed: int
    bootstrap: bool
    columns: tuple[str, ...] = ()

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    @cached_property
    def _loops(self) -> _Loops:
        return _loops(self.trees)

    def predict_proba(self, x) -> np.ndarray:
        return _leaf_sum(self._loops, _check_input(x, self.n_features)) / self.n_trees

    def classify(self, x, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)


# An extra worker holds its own working set: its trees' rows (4 bytes per
# row and tree), their node records, and one step's search, which holds
# about _STEP_CELLS cells or one feature's values over a node's rows,
# at about 100 bytes a cell. The rank codes are made before the fork and
# shared. The budget is still counted in the bytes of the root's k drawn
# features over all n rows, k * n * 8. Measured as the rise in summed
# proportional set size over a serial fit (20 trees at depth 8), in
# multiples of those root bytes: 2.4 for a 100k-row book's train matrix
# (75k x 55, mostly 0/1 dummies) with "auto" subsampling and 0.37 with
# feature_subsample None; 4.3 and 1.2 on a 100k x 14 matrix of distinct
# values. Every rise was 10-13 MB: the set now grows with the rows, not
# with k. 5 covers all four, and the 1M-row book's 1.9 ("auto", 77 MB).
_WORKER_BYTES_PER_ROOT_BYTE = 5
# The largest pool whose speed and memory have been measured, on a 2-CPU host.
_MAX_WORKERS = 2


def _workers(x, params: CartParams) -> int:
    """Processes to fit trees with params on x in: one per CPU this process
    may run on, at most _MAX_WORKERS, and as many extra ones as free memory
    holds a working set of. One where os.fork or the free memory is unknown."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        free = 0
    root_bytes = _resolve_subsample(params, x.shape[1]) * x.shape[0] * 8
    extra = free // max(1, _WORKER_BYTES_PER_ROOT_BYTE * root_bytes)
    return max(1, min(cpus, _MAX_WORKERS, 1 + extra))


def _starts(config: ForestConfig, n: int, worker: int, workers: int):
    """(rng, rows) of each tree t = worker (mod workers): tree t's generator,
    seeded with (seed, t), draws its bootstrap rows first."""
    for t in range(worker, config.n_trees, workers):
        rng = np.random.default_rng((config.seed, t))
        yield rng, rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)


def _grow_in_child(
    coded: _Coded, config: ForestConfig, worker: int, workers: int, write_end: int, parent: int, read_ends
):
    """Grow worker's trees in lockstep, write their arrays to write_end as .npy
    records in tree order, and end the process: exit status 0 once all are
    written.

    os._exit never returns into the caller and skips the atexit handlers and
    the flush of stdio buffers inherited from the parent, so nothing the
    parent had buffered is written twice. The records are built in memory
    and written in one go: numpy's .npy writer and reader need a seekable
    file, which a pipe is not.

    If the parent dies without reaping this child, the child stops before
    the grower's next step. The read ends it inherited, its own included,
    are closed first, so with the parent gone no reader is left and a write
    fails with a broken pipe instead of blocking on a full pipe buffer for
    ever.
    """
    status = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        starts = _starts(config, coded.y.size, worker, workers)
        trees = _grow(coded, config.params, starts, stop=lambda: os.getppid() != parent)
        if trees is None:
            return  # orphaned: no one will read these trees
        records = io.BytesIO()
        for tree in trees:
            for name in TREE_ARRAYS:
                np.lib.format.write_array(records, getattr(tree, name), allow_pickle=False)
        with open(write_end, "wb") as pipe:
            pipe.write(records.getbuffer())
        status = 0
    finally:
        os._exit(status)


def fit_forest(x, y, config: ForestConfig = ForestConfig(), columns=()) -> Forest:
    """Train n_trees CARTs on bootstrap resamples.

    Tree t's entire randomness (its bootstrap draw, then its per-node
    feature subsets) comes from a generator seeded with (seed, t), so the
    forest is identical no matter how the tree loop is scheduled.

    With W = min(n_trees, _workers(x, params)) workers, worker w grows the
    trees t = w (mod W) in lockstep (see _grow): worker 0 is this process and
    the others are forked children, which send their trees' arrays back
    through a pipe each. The inputs are checked, and the rank codes the
    split search sorts are made, once, here, before any fork; the children
    share the codes. Every received tree is checked again by CartTree. A
    child that fails raises TrainingError naming its exit status; on any
    error the children are killed and reaped.
    """
    x, y = check_training_data(x, y)
    workers = min(config.n_trees, _workers(x, config.params))
    coded = _coded(x, y)
    parent = os.getpid()
    trees = [None] * config.n_trees
    children = {}  # worker -> pid, until reaped
    pipes = {}  # worker -> read end, until closed
    try:
        for w in range(1, workers):
            pipes[w], write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork in a process with several
                    # threads. A CLI process has one (importing the package
                    # pins OpenBLAS to one thread), but a library caller that
                    # loaded numpy first, or set OPENBLAS_NUM_THREADS, forks
                    # with the OpenBLAS pool. The child calls no BLAS routine
                    # and leaves through os._exit.
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                    children[w] = os.fork()
                if children[w] == 0:
                    _grow_in_child(coded, config, w, workers, write_end, parent, pipes.values())
            finally:
                os.close(write_end)
        trees[::workers] = _grow(coded, config.params, _starts(config, x.shape[0], 0, workers))
        for w in range(1, workers):
            with open(pipes.pop(w), "rb") as pipe:
                records = io.BytesIO(pipe.read())
            status = os.waitstatus_to_exitcode(os.waitpid(children[w], 0)[1])
            del children[w]
            if status != 0:
                raise TrainingError(f"forest worker {w} failed with exit status {status}")
            for t in range(w, config.n_trees, workers):
                arrays = {
                    name: np.lib.format.read_array(records, allow_pickle=False)
                    for name in TREE_ARRAYS
                }
                trees[t] = CartTree(**arrays, params=config.params, n_features=x.shape[1])
    finally:
        for read_end in pipes.values():
            os.close(read_end)
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Forest(
        trees=tuple(trees),
        seed=config.seed,
        bootstrap=config.bootstrap,
        columns=tuple(columns),
    )


FOREST_FORMAT = "cart-arrays-1"


def forest_to_json_dict(forest: Forest) -> dict:
    params = forest.trees[0].params
    return {
        "kind": "forest",
        "format": FOREST_FORMAT,
        "columns": list(forest.columns),
        "seed": forest.seed,
        "bootstrap": forest.bootstrap,
        "n_trees": forest.n_trees,
        "n_features": forest.n_features,
        "params": asdict(params),
        "trees": [
            {name: getattr(tree, name).tolist() for name in TREE_ARRAYS}
            for tree in forest.trees
        ],
    }


def _tree_array(tree: dict, name: str) -> np.ndarray:
    values = np.asarray(tree[name])
    kinds = "if" if name == "threshold" else "i"
    if values.ndim != 1 or (values.size and values.dtype.kind not in kinds):
        what = "numbers" if name == "threshold" else "integers"
        raise DataError(f"tree array {name!r} must be a list of {what}")
    return values.astype(_dtype(name))


def forest_from_json_dict(payload: dict) -> Forest:
    """Rebuild the forest that forest_to_json_dict wrote.

    Any other format, including the nested-node layout of older versions,
    raises DataError: such models must be retrained. So do tree arrays that
    do not form a tree (see CartTree).
    """
    if payload.get("kind") != "forest":
        raise DataError(f"payload kind {payload.get('kind')!r} is not a forest model")
    if payload.get("format") != FOREST_FORMAT:
        raise DataError(
            f"forest model format {payload.get('format')!r} is not {FOREST_FORMAT!r}; "
            "retrain the model"
        )
    params = CartParams(**payload["params"])
    n_features = int(payload["n_features"])
    trees = tuple(
        CartTree(
            **{name: _tree_array(t, name) for name in TREE_ARRAYS},
            params=params,
            n_features=n_features,
        )
        for t in payload["trees"]
    )
    if not trees:
        raise DataError("forest payload holds no trees")
    return Forest(
        trees=trees,
        seed=int(payload["seed"]),
        bootstrap=bool(payload["bootstrap"]),
        columns=tuple(payload.get("columns", ())),
    )
