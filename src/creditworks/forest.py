"""CART decision trees and a bootstrap-aggregated random forest.

Splits maximize information gain over midpoint thresholds between consecutive
distinct feature values. Like reference CART implementations, an impure node
is split even when the best achievable gain is zero (two interleaved classes
can need several zero-gain cuts before any pure region appears); a node only
becomes a leaf when it is pure, hits a size or depth limit, or no candidate
threshold exists at all.
"""

from __future__ import annotations

import base64
import json
import math
import os
import signal
import sys
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dataset import DesignMatrix, check_training_data
from .errors import DataError, TrainingError, check_setting

CRITERIA = ("gini", "entropy")


def _impurity(n, n1, criterion):
    """Impurity of nodes of n samples, n1 of them positive; vectorized over
    arrays of floats."""
    p0 = n - n1
    p0 /= n
    p1 = n1 / n
    if criterion == "gini":
        p0 *= p0
        p1 *= p1
        return 1.0 - p0 - p1
    # 0*log2(0) = 0: feed log2 a 1 wherever p is 0, the product zeroes it out.
    t0 = p0 * np.log2(np.where(p0 > 0.0, p0, 1.0))
    t1 = p1 * np.log2(np.where(p1 > 0.0, p1, 1.0))
    return -(t0 + t1)


class _Coded(NamedTuple):
    """A training matrix as rank codes, which one integer sort orders.

    code[f, i] is 2 * r + y[i], where r ranks x[i, f] among the distinct
    values of every feature, feature after feature: values[r] is x[i, f],
    and the ranks of one feature lie above those of the features before it.
    So one code carries a value's order and feature and the row's label.
    span exceeds every code.

    rounds is whether some feature has two consecutive distinct values
    whose midpoint rounds onto the upper one. Only adjacent floats can do
    that, and two values adjacent as floats are consecutive among any of
    the feature's values, a node's rows included: without rounds, no cut
    of any node rounds.
    """

    code: np.ndarray
    values: np.ndarray
    span: int
    y: np.ndarray
    rounds: bool


def _midpoint(lo, hi):
    """(lo + hi) / 2.0 elementwise, or lo / 2.0 + hi / 2.0 where the sum
    passes the float range: the midpoint of two finite floats is finite."""
    with np.errstate(over="ignore"):
        total = lo + hi
    return np.where(np.isfinite(total), total / 2.0, lo / 2.0 + hi / 2.0)


def _ranks(x):
    """Per column of x, a 2-D array or a DesignMatrix: its distinct values
    in order and each row's rank among them, as np.unique gives them. An
    unscaled matrix's dummy column is ranked straight from its category's
    codes, without its dense values."""
    if not isinstance(x, DesignMatrix) or x.scaling is not None:
        dense = x.x if isinstance(x, DesignMatrix) else x
        for f in range(dense.shape[1]):
            yield np.unique(dense[:, f], return_inverse=True)
        return
    for values, levels in x.frame:
        if not levels:
            yield np.unique(values, return_inverse=True)
            continue
        counts = np.bincount(values, minlength=levels)
        for level in range(1, levels):
            if 0 < counts[level] < values.size:
                yield np.array([0.0, 1.0]), (values == level).astype(np.intp)
            else:  # 1.0 on every row, or on none
                yield np.array([float(counts[level] > 0)]), np.zeros(values.size, dtype=np.intp)


def _coded(x, y) -> _Coded:
    n, n_cols = x.shape
    # Ranks are below n * n_cols, so int32 codes hold any matrix of under 2**30 cells.
    code = np.empty((n_cols, n), dtype=np.int32 if n * n_cols < 2**30 else np.int64)
    levels, base, rounds = [], 0, False
    for f, (values, rank) in enumerate(_ranks(x)):
        rank += base
        np.add(2 * rank, y, out=code[f], casting="unsafe")
        levels.append(values)
        base += values.size
        rounds = rounds or bool(np.any(_midpoint(values[:-1], values[1:]) == values[1:]))
    return _Coded(code, np.concatenate(levels) if levels else np.zeros(0), 2 * base, y, rounds)


def _search(coded: _Coded, rows, sizes, feats, criterion):
    """Highest-gain cut of every node of a batch, in one sort.

    The batch's nodes hold sizes[i] rows each, listed in node order in rows,
    and node i's candidate features are feats[i], in ascending order. Each
    (node, feature) pair is a segment of one key array, node i's codes
    raised by i * span, and one sort orders every segment by value. A cut
    between sorted positions p and p + 1 of a segment is a candidate where
    the two values differ, at their midpoint; the class counts on either
    side of it do not depend on how equal values are ordered. A cut is
    scored on the rows it sends left, which are the upper value's rows too
    where the midpoint rounds onto the upper value. Within a node, ties
    break toward the lowest feature row, then the lowest threshold.

    Returns, over the nodes i with a candidate, in order: i; the winning
    row of feats[i]; the threshold; the highest rank that goes left
    (x <= threshold), which is the upper value's when the midpoint rounds
    onto it; the gain; and the rows and positives that go left.
    """
    m, k = feats.shape
    span = coded.span
    if rows.size * k < 2:
        return (np.zeros(0, dtype=np.intp),) * 7
    # numpy's array methods and ufuncs, not its module functions: a step's
    # search makes about a hundred calls on arrays that are often tiny. take
    # and compress gather faster than fancy and boolean indexing.
    at = (feats.T.astype(rows.dtype) * coded.code.shape[1]).repeat(sizes, axis=1)
    at += rows
    key = coded.code.ravel().take(at)
    del at
    if key.dtype == np.int32 and m * span > 2**31:
        key = key.astype(np.int64)
    key += np.arange(0, m * span, span, dtype=key.dtype).repeat(sizes)
    key = key.ravel()
    key.sort()
    cum = (key & 1).cumsum(dtype=key.dtype)
    key >>= 1
    seg_end = sizes.repeat(k).cumsum()
    step_up = key[:-1] < key[1:]
    step_up[seg_end[:-1] - 1] = False
    cand = step_up.nonzero()[0]
    del step_up
    # Segment s starts at sorted position start[s] and holds count[s]
    # candidates, node i holds per_node[i]. Per segment, table holds the
    # position before its start, the positives before it, and its node's
    # rows and positives.
    start = seg_end - sizes.repeat(k)
    count = cand.searchsorted(seg_end - 1) - cand.searchsorted(start)
    per_node = np.add.reduce(count.reshape(m, k), axis=1)
    table = np.empty((4, m, k), dtype=cum.dtype)
    table[0].flat = start - 1
    table[1].flat = cum[start - 1]
    table[1, 0, 0] = 0
    table[2] = sizes[:, None]
    table[3] = (cum[seg_end[::k] - 1] - table[1, :, 0])[:, None]
    # Samples and positives: the left and right side of each candidate,
    # then each node.
    c = cand.size
    of = table.reshape(4, m * k).repeat(count, axis=1)
    # The last sorted position each candidate sends left: its own, or where
    # its midpoint rounds onto the upper value, the segment's next
    # candidate or its last position.
    end = cand
    if coded.rounds:
        seg_of = np.arange(m * k).repeat(count)
        lift = seg_of // k * (span // 2)
        hi = coded.values[key[cand + 1] - lift]
        rounded = _midpoint(coded.values[key[cand] - lift], hi) == hi
        end = np.where(rounded, np.minimum(np.append(cand[1:], key.size), seg_end[seg_of] - 1), cand)
    n, n1 = np.empty(2 * c + m), np.empty(2 * c + m)
    np.subtract(end, of[0], out=n[:c])
    np.subtract(cum.take(end), of[1], out=n1[:c])
    np.subtract(of[2], n[:c], out=n[c : 2 * c])
    np.subtract(of[3], n1[:c], out=n1[c : 2 * c])
    n[2 * c :], n1[2 * c :] = table[2, :, 0], table[3, :, 0]
    # A rounded cut can leave its right side empty: that side weighs 0, and
    # its impurity is taken as one negative row's, 0, rather than 0 / 0.
    impurity = _impurity(np.maximum(n, 1) if coded.rounds else n, n1, criterion)
    weighted = n[: 2 * c].reshape(2, c) / of[2]
    weighted *= impurity[: 2 * c].reshape(2, c)
    gains = impurity[2 * c :].repeat(per_node)
    gains -= weighted[0]
    gains -= weighted[1]
    del n, n1, of, weighted
    # Candidates run in (node, feature row, position) order, so the first
    # candidate of a node to reach the node's highest gain wins.
    won = per_node.nonzero()[0]
    first = per_node.cumsum()[won] - per_node[won]
    top = np.maximum.reduceat(gains, first) if won.size else gains[:0]
    hits = (gains == top.repeat(per_node[won])).nonzero()[0]
    hit = hits[hits.searchsorted(first)]
    p, q = cand[hit], end[hit]
    seg = start.searchsorted(p, side="right") - 1
    base = won * (span // 2)
    cut = _midpoint(coded.values[key[p] - base], coded.values[key[p + 1] - base])
    return won, seg - won * k, cut, key[q] - base, gains[hit], q - start[seg] + 1, cum[q] - table[1].flat[seg]


def _check_rows(rows, n: int) -> np.ndarray:
    """rows as indices into n samples, all of them when None."""
    if rows is None:
        return np.arange(n)
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise DataError(f"row index outside [0, {n})")
    return rows


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
            # Each gather's index freed before the next gather, so that a
            # step holds three node-row arrays at once, not four.
            at = loops.feature[node]
            at += offset
            value = flat[at]
            del at
            go_left = value <= loops.threshold[node]
            del value
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


def _grow(coded: _Coded, params: CartParams, starts, stop=None):
    """Grow one tree per (rng, rows) pair of starts, all in lockstep.

    Each tree keeps a depth-first stack of the nodes it has still to search:
    a leaf is recorded when it is made and never stacked. A step pops one
    node from each of the trees with the largest next nodes, and one
    _search covers them all. So each tree still draws its feature subsets
    in its own preorder, and the trees equal those grown one at a time.
    Nodes are numbered as they are made, and _tree renumbers them in
    preorder. A node's rows are a range of one array holding every tree's
    rows; a split reorders its range, left rows first. stop, if given, is
    called before each step, and the grower returns None once it says true.
    """
    n_cols = coded.code.shape[0]
    k = _resolve_subsample(params, n_cols)
    max_depth = math.inf if params.max_depth is None else params.max_depth

    def leaf(n, n1, depth):
        return n1 == 0 or n1 == n or n < params.min_samples_split or depth >= max_depth or n_cols == 0

    # Per tree: a stack of (node, first, end, depth, positives) and the
    # count0, count1 and splits of its nodes so far. Each tree's rows are
    # kept as int32 as soon as they are drawn, when every cell's index in
    # the code table fits.
    rngs, parts, stacks, grown, first = [], [], [], [], 0
    for rng, rows in starts:
        if rows.size == 0:
            raise TrainingError("cannot fit on an empty row subset")
        n1 = int(coded.y[rows].sum())
        stacks.append([] if leaf(rows.size, n1, 0) else [(0, first, first + rows.size, 0, n1)])
        grown.append(([rows.size - n1], [n1], []))
        first += rows.size
        rngs.append(rng)
        parts.append(rows.astype(np.int32 if coded.code.size < 2**31 else np.intp))
    if k < n_cols and any(rng is None for rng in rngs):
        raise TrainingError("feature subsampling requires an rng")
    perm = np.concatenate(parts)
    del parts

    pending = [t for t, stack in enumerate(stacks) if stack]
    while pending:
        if stop is not None and stop():
            return None
        # The largest next nodes first, so that none waits behind smaller
        # ones; a node of more than _STEP_CELLS cells gets a step to itself.
        batch, lo, size, cells = [], [], [], 0
        for t in sorted(pending, key=lambda t: stacks[t][-1][1] - stacks[t][-1][2]):
            a, b = stacks[t][-1][1:3]
            if not batch or cells + (b - a) * k <= _STEP_CELLS:
                batch.append((t, *stacks[t].pop()))
                lo.append(a)
                size.append(b - a)
                cells += (b - a) * k
        if k < n_cols:
            feats = np.array([rngs[t].choice(n_cols, size=(k,), replace=False) for t, *_ in batch])
            feats.sort(axis=1)
        else:
            feats = np.broadcast_to(np.arange(n_cols), (len(batch), n_cols))
        for i, f, c, nl, l1 in zip(*_split(coded, perm, np.array(lo), np.array(size), feats, params.criterion)):
            t, node, a, b, depth, n1 = batch[i]
            count0, count1, splits = grown[t]
            left, nr, r1 = len(count0), b - a - nl, n1 - l1
            count0 += (nl - l1, nr - r1)
            count1 += (l1, r1)
            splits.append((node, f, c, left))
            depth += 1
            if not leaf(nr, r1, depth):
                stacks[t].append((left + 1, a + nl, b, depth, r1))
            if not leaf(nl, l1, depth):
                stacks[t].append((left, a, a + nl, depth, l1))
        pending = [t for t in pending if stacks[t]]
    return [_tree(params, n_cols, *arrays) for arrays in grown]


def _split(coded: _Coded, perm, lo, size, feats, criterion):
    """Search the nodes perm[lo[i] : lo[i] + size[i]] and split them in place.

    Returns lists (i, feature, threshold, left rows, left positives) over
    the nodes i that split; their left rows then fill the start of their
    ranges, in their former order, and the right rows follow.
    """
    start = size.cumsum() - size
    rows = perm.take(np.arange(start[-1] + size[-1]) + (lo - start).repeat(size))
    # A batch over _STEP_CELLS is one node: search its features a few at a
    # time, so the search holds about _STEP_CELLS cells, or one feature's. A
    # later group wins only with a greater gain, which keeps the tie-break.
    step = max(1, _STEP_CELLS // rows.size)
    found = _search(coded, rows, size, feats[:, :step], criterion)
    for j in range(step, feats.shape[1], step):
        group = _search(coded, rows, size, feats[:, j : j + step], criterion)
        if group[0].size and (found[0].size == 0 or group[4][0] > found[4][0]):
            found = (group[0], group[1] + j, *group[2:])
    node, row, cut, bound, _, n_left, left_n1 = found
    # With every row on the left the midpoint rounded onto the upper value
    # (adjacent floats), so "<=" keeps every sample on the left: the cut
    # separates nothing and the node stays a leaf.
    split = n_left < size[node]
    node, n_left = node[split], n_left[split]
    if node.size == 0:
        return [], [], [], [], []
    feature = feats[node, row[split]]
    # Rows of a node without a cut all go left, which leaves them in place.
    offset, limit, lefts = np.zeros_like(size), np.empty_like(size), size.copy()
    limit.fill(coded.span)
    offset[node], limit[node], lefts[node] = feature * coded.code.shape[1], 2 * bound[split] + 1, n_left
    go_left = coded.code.ravel().take(offset.repeat(size) + rows) <= limit.repeat(size)
    rights = size - lefts
    ends = lefts.cumsum()
    perm[np.arange(ends[-1]) + (lo - ends + lefts).repeat(lefts)] = rows.compress(go_left)
    ends = rights.cumsum()
    perm[np.arange(ends[-1]) + (lo + size - ends).repeat(rights)] = rows.compress(~go_left)
    return node.tolist(), feature.tolist(), cut[split].tolist(), n_left.tolist(), left_n1[split].tolist()


def _tree(params, n_cols, count0, count1, splits) -> CartTree:
    """The tree of nodes numbered as they were made, renumbered in preorder.

    splits holds (node, feature, threshold, left child) of each node that
    split, in the order they split, so after their parents; a right child
    is its left sibling + 1. In preorder a left child follows its parent,
    and a right child follows its left sibling's subtree.
    """
    size = len(count0)
    under = [1] * size
    for node, _, _, left in reversed(splits):
        under[node] += under[left] + under[left + 1]
    number = [0] * size
    for node, _, _, left in splits:
        number[left] = number[node] + 1
        number[left + 1] = number[left] + under[left]
    number = np.array(number)
    feature, left, right = (np.full(size, -1, dtype=np.intp) for _ in range(3))
    threshold = np.zeros(size)
    count = np.empty((2, size), dtype=np.intp)
    count[:, number] = count0, count1
    if splits:
        node, feats, cuts, child = zip(*splits)
        at = number[list(node)]
        child = np.array(child)
        feature[at], threshold[at], left[at], right[at] = feats, cuts, at + 1, number[child + 1]
    return CartTree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        count0=count[0],
        count1=count[1],
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
        # A count past the index range could not even size the list of trees.
        if self.n_trees > sys.maxsize:
            raise TrainingError(f"n_trees must be at most {sys.maxsize}")


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


def _place(worker: int) -> None:
    """Move this process to CPU number worker (mod their count) of those it
    may run on, then let it run on all of them again.

    A forked child starts on its parent's CPU, and the scheduler may leave
    both there for the whole fit while another CPU idles. A moment's pin
    moves each worker to a CPU of its own; restoring the mask at once leaves
    the scheduler free to move it later. Where the affinity cannot be set,
    nothing changes.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(cpus)[worker % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _starts(config: ForestConfig, n: int, worker: int, workers: int):
    """(rng, rows) of each tree t = worker (mod workers): tree t's generator,
    seeded with (seed, t), draws its bootstrap rows first."""
    for t in range(worker, config.n_trees, workers):
        rng = np.random.default_rng((config.seed, t))
        yield rng, rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)


def _grow_in_child(
    coded: _Coded, config: ForestConfig, worker: int, workers: int, write_end: int, parent: int, read_ends
):
    """Grow worker's trees in lockstep, write them to write_end as the JSON
    text of a list of their _encode_tree dicts, in tree order, and end the
    process: exit status 0 once all are written.

    os._exit never returns into the caller and skips the atexit handlers and
    the flush of stdio buffers inherited from the parent, so nothing the
    parent had buffered is written twice.

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
        _place(worker)
        starts = _starts(config, coded.y.size, worker, workers)
        trees = _grow(coded, config.params, starts, stop=lambda: os.getppid() != parent)
        if trees is None:
            return  # orphaned: no one will read these trees
        text = json.dumps([_encode_tree(tree) for tree in trees])
        with open(write_end, "w", encoding="ascii") as pipe:
            pipe.write(text)
        status = 0
    finally:
        os._exit(status)


def fit_forest(x, y, config: ForestConfig = ForestConfig(), columns=()) -> Forest:
    """Train n_trees CARTs on bootstrap resamples of x, a 2-D array or a
    DesignMatrix (see _ranks), with labels y.

    Tree t's entire randomness (its bootstrap draw, then its per-node
    feature subsets) comes from a generator seeded with (seed, t), so the
    forest is identical no matter how the tree loop is scheduled.

    With W = min(n_trees, _workers(x, params)) workers, worker w grows the
    trees t = w (mod W) in lockstep (see _grow): worker 0 is this process and
    the others are forked children, which send their trees back through a
    pipe each, in the codec of the model file. Each worker first moves to a
    CPU of its own (see _place). The inputs are checked, and the rank codes
    the split search sorts are made, once, here, before any fork; the
    children share the codes. Every received tree is checked again by
    _decode_tree. A child that fails raises TrainingError naming its exit
    status; on any error the children are killed and reaped.
    """
    x, y = check_training_data(x, y)
    workers = min(config.n_trees, _workers(x, config.params))
    coded = _coded(x, y)
    parent = os.getpid()
    trees = [None] * config.n_trees
    children = {}  # worker -> pid, until reaped
    pipes = {}  # worker -> read end, until closed
    if workers > 1:
        _place(0)
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
            with open(pipes.pop(w), encoding="ascii") as pipe:
                text = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(children[w], 0)[1])
            del children[w]
            if status != 0:
                raise TrainingError(f"forest worker {w} failed with exit status {status}")
            trees[w::workers] = [_decode_tree(t, config.params, x.shape[1]) for t in json.loads(text)]
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


FOREST_FORMAT = "cart-arrays-2"
# The bytes each tree array is stored in: little-endian int32 node numbers,
# features and counts, and float64 thresholds. Decoded arrays are widened
# to the grower's intp and float64.
_STORED = {name: np.dtype("<f8" if name == "threshold" else "<i4") for name in TREE_ARRAYS}


def _encode_tree(tree: CartTree) -> dict:
    """{name: base64 text of the array's _STORED bytes} of tree's arrays;
    TrainingError if an integer does not fit its stored type."""
    encoded = {}
    for name, stored in _STORED.items():
        values = getattr(tree, name)
        narrow = values.astype(stored)
        if stored.kind == "i" and not np.array_equal(narrow, values):
            raise TrainingError(f"tree array {name!r} holds a value outside {stored.name}")
        encoded[name] = base64.b64encode(narrow).decode("ascii")
    return encoded


def _decode_tree(encoded: dict, params: CartParams, n_features: int) -> CartTree:
    """The tree _encode_tree encoded, checked by CartTree; DataError if an
    array is not base64 text of whole items."""
    arrays = {}
    for name, stored in _STORED.items():
        try:
            raw = base64.b64decode(encoded[name], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise DataError(f"tree array {name!r} is not base64 text: {exc}") from exc
        if len(raw) % stored.itemsize:
            raise DataError(f"tree array {name!r} holds {len(raw)} bytes, not whole {stored.name} items")
        arrays[name] = np.frombuffer(raw, stored).astype(np.float64 if stored.kind == "f" else np.intp)
    return CartTree(**arrays, params=params, n_features=n_features)


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
        "trees": [_encode_tree(tree) for tree in forest.trees],
    }


def forest_from_json_dict(payload: dict) -> Forest:
    """Rebuild the forest that forest_to_json_dict wrote.

    Any other format, including the number lists and nested nodes of older
    versions, raises DataError: such models must be retrained. So do tree
    arrays that do not form a tree (see CartTree).
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
    trees = tuple(_decode_tree(t, params, n_features) for t in payload["trees"])
    if not trees:
        raise DataError("forest payload holds no trees")
    return Forest(
        trees=trees,
        seed=int(payload["seed"]),
        bootstrap=bool(payload["bootstrap"]),
        columns=tuple(payload.get("columns", ())),
    )
