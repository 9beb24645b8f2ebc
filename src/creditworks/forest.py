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
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingError, check_setting

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


def information_gain(parent, left, right, criterion: str = "gini") -> float:
    """Parent impurity minus the size-weighted mean of child impurities.

    parent, left and right are (count0, count1) pairs and the children must
    partition the parent exactly. Rounding can push the weighted child term
    a few ulps past the parent impurity, so the result is floored at 0.
    """
    if criterion not in CRITERIA:
        raise TrainingError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    p0, p1 = parent
    l0, l1 = left
    r0, r1 = right
    _check_counts(p0, p1, "parent")
    _check_counts(l0, l1, "left child")
    _check_counts(r0, r1, "right child")
    if l0 + r0 != p0 or l1 + r1 != p1:
        raise DataError(
            f"children ({l0},{l1}) + ({r0},{r1}) do not partition parent ({p0},{p1})"
        )
    n = p0 + p1
    wl = (l0 + l1) / n
    wr = (r0 + r1) / n
    gain = (
        _impurity_from_counts(p0, p1, criterion)
        - wl * _impurity_from_counts(l0, l1, criterion)
        - wr * _impurity_from_counts(r0, r1, criterion)
    )
    return max(0.0, float(gain))


def _best_cut(sv, sy, criterion):
    """Highest-gain cut over presorted candidate features.

    sv and sy are (k, n): row r holds one feature's values over a node's n
    samples in ascending order, and the samples' labels in that order. A
    cut between sorted positions p and p + 1 is a candidate where the two
    values differ. Ties break toward the lowest row, then the lowest
    position. Returns (row, position, gain), or None without a candidate.
    """
    # Row-major order, so the first argmax below is the tie-break winner.
    rows, pos = np.nonzero(sv[:, :-1] < sv[:, 1:])
    if rows.size == 0:
        return None
    n = sv.shape[1]
    prefix1 = np.cumsum(sy, axis=1)
    n1p = int(prefix1[0, -1])
    nl = (pos + 1).astype(np.float64)
    nl1 = prefix1[rows, pos].astype(np.float64)
    nl0 = nl - nl1
    nr = n - nl
    nr1 = n1p - nl1
    nr0 = nr - nr1
    gains = (
        _impurity_from_counts(n - n1p, n1p, criterion)
        - (nl / n) * _impurity_from_counts(nl0, nl1, criterion)
        - (nr / n) * _impurity_from_counts(nr0, nr1, criterion)
    )
    b = int(np.argmax(gains))
    return int(rows[b]), int(pos[b]), float(gains[b])


def best_split(x, y, rows=None, features=None, criterion: str = "gini"):
    """Exhaustive search for the highest-gain (feature, threshold) cut.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each candidate feature. Ties break toward the lowest feature
    index, then the lowest threshold. Returns (feature, threshold, gain), or
    None when every candidate feature is constant over the row subset.
    """
    if criterion not in CRITERIA:
        raise TrainingError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size < 2:
        return None
    feats = range(x.shape[1]) if features is None else sorted(int(f) for f in set(features))
    feats = np.asarray(feats, dtype=np.intp)

    values = x[np.ix_(rows, feats)].T
    order = np.argsort(values, axis=1, kind="stable")
    sv = np.take_along_axis(values, order, axis=1)
    found = _best_cut(sv, y[rows].astype(np.int64)[order], criterion)
    if found is None:
        return None
    r, p, gain = found
    return int(feats[r]), float((sv[r, p] + sv[r, p + 1]) / 2.0), max(0.0, gain)


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

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.n_features:
            raise DataError(
                f"tree was grown on {self.n_features} features, input has {x.shape[1]}"
            )
        node = np.zeros(x.shape[0], dtype=np.intp)
        rows = np.arange(x.shape[0])
        # One pass per tree level: rows still at an inner node step to a child.
        while rows.size:
            at = node[rows]
            f = self.feature[at]
            inner = f >= 0
            rows, at, f = rows[inner], at[inner], f[inner]
            node[rows] = np.where(
                x[rows, f] <= self.threshold[at], self.left[at], self.right[at]
            )
        return self.count1[node] / (self.count0[node] + self.count1[node])

    def classify(self, x, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    def stats(self) -> dict:
        """Node count, leaf count and depth."""
        depth = 0
        level = np.zeros(1, dtype=np.intp)
        while True:
            level = level[self.feature[level] >= 0]
            if level.size == 0:
                break
            level = np.concatenate([self.left[level], self.right[level]])
            depth += 1
        leaves = int(np.count_nonzero(self.feature < 0))
        return {"nodes": int(self.feature.size), "leaves": leaves, "depth": depth}


def _resolve_subsample(params: CartParams, n_cols: int) -> int:
    fs = params.feature_subsample
    if fs is None:
        return n_cols
    if fs == "auto":
        return min(n_cols, math.ceil(math.sqrt(n_cols)))
    return min(n_cols, int(fs))


def _check_xy(x, y):
    """x as a 2-D float64 matrix and y as its int64 0/1 labels, one per row."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2:
        raise DataError("training matrix must be 2-D")
    if y.shape != (x.shape[0],):
        raise DataError("target length does not match row count")
    if x.shape[0] == 0:
        raise TrainingError("cannot fit on an empty matrix")
    if not np.isin(y, (0, 1)).all():
        raise TrainingError("labels must be 0/1")
    return x, y


def fit_cart(x, y, params: CartParams = CartParams(), rng=None, rows=None) -> CartTree:
    """Grow one tree by impurity-minimizing splits, depth first.

    A node becomes a leaf when it is pure, smaller than min_samples_split,
    at max_depth, or when no candidate threshold exists. With feature
    subsampling active, each node that passes those checks draws its
    feature subset from rng in preorder (node, then left subtree, then
    right subtree), which pins the tree for a given generator state.

    Every feature is sorted once over rows, stably, so equal values keep
    their order in rows. A split partitions each feature's sorted order
    stably into the children's, so no node sorts again (CART presorting).
    """
    x, y = _check_xy(x, y)
    n_cols = x.shape[1]
    k = _resolve_subsample(params, n_cols)
    if k < n_cols and rng is None:
        raise TrainingError("feature subsampling requires an rng")
    rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise TrainingError("cannot fit on an empty row subset")

    # Samples are positions in rows. order[j] lists a node's samples by
    # ascending feature j; without features one row still tracks membership.
    xt = np.ascontiguousarray(x[rows].T)
    ys = y[rows]
    order = np.argsort(xt, axis=1, kind="stable") if n_cols else np.arange(rows.size)[None]
    goes_left = np.empty(rows.size, dtype=bool)
    every_feature = np.arange(n_cols)

    arrays = {name: [] for name in TREE_ARRAYS}
    feature, threshold = arrays["feature"], arrays["threshold"]
    # (sorted samples, depth, node whose right child this is or -1). In
    # preorder a left child is numbered right after its parent.
    stack = [(order, 0, -1)]
    while stack:
        idx, depth, right_of = stack.pop()
        node = len(feature)
        if right_of >= 0:
            arrays["right"][right_of] = node
        n = idx.shape[1]
        n1 = int(ys[idx[0]].sum())
        n0 = n - n1
        for name, value in zip(TREE_ARRAYS, (-1, 0.0, -1, -1, n0, n1)):
            arrays[name].append(value)
        if (
            n0 == 0
            or n1 == 0
            or n < params.min_samples_split
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        feats = np.sort(rng.choice(n_cols, size=k, replace=False)) if k < n_cols else every_feature
        sub = idx[feats]
        sv = xt[feats[:, None], sub]
        found = _best_cut(sv, ys[sub], params.criterion)
        if found is None:
            continue
        r, p, _ = found
        cut = (sv[r, p] + sv[r, p + 1]) / 2.0
        n_left = int(np.searchsorted(sv[r], cut, side="right"))
        if n_left == n:
            # The midpoint rounded onto the upper value (adjacent floats), so
            # "<=" keeps every sample on the left: the cut separates nothing.
            continue
        goes_left[sub[r, :n_left]] = True
        goes_left[sub[r, n_left:]] = False
        mask = goes_left[idx]
        feature[node] = int(feats[r])
        threshold[node] = float(cut)
        arrays["left"][node] = node + 1
        stack.append((idx[~mask].reshape(len(idx), n - n_left), depth + 1, node))
        stack.append((idx[mask].reshape(len(idx), n_left), depth + 1, -1))

    return CartTree(
        **{name: np.asarray(arrays[name], dtype=_dtype(name)) for name in TREE_ARRAYS},
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

    def predict_proba(self, x) -> np.ndarray:
        probs = self.trees[0].predict_proba(x)
        for tree in self.trees[1:]:
            probs = probs + tree.predict_proba(x)
        return probs / self.n_trees

    def classify(self, x, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)


# An extra worker holds its own per-tree working set (x[rows], its transpose,
# the int64 sort order and the node partitions copied from it). Measured as
# the rise in summed proportional set size over a serial fit: 4.9 times
# x.nbytes on a 1M x 14 matrix, 5.2 for a 100k-row book's train, 6.2 on a
# 100k x 14 matrix, where the interpreter pages a child copies weigh more.
_WORKER_BYTES_PER_X_BYTE = 6
# The largest pool whose speed and memory have been measured, on a 2-CPU host.
_MAX_WORKERS = 2


def _workers(x) -> int:
    """Processes to fit trees on x in: one per CPU this process may run on,
    at most _MAX_WORKERS, and only as many extra ones as free memory holds
    a working set of. One where os.fork or the free memory is unknown."""
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
    extra = free // max(1, _WORKER_BYTES_PER_X_BYTE * x.nbytes)
    return max(1, min(cpus, _MAX_WORKERS, 1 + extra))


def _fit_tree(x, y, config: ForestConfig, t: int) -> CartTree:
    rng = np.random.default_rng((config.seed, t))
    n = x.shape[0]
    rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
    return fit_cart(x, y, config.params, rng, rows=rows)


def _grow_in_child(
    x, y, config: ForestConfig, worker: int, workers: int, write_end: int, parent: int, read_ends
):
    """Fit worker's trees, write their arrays to write_end as .npy records in
    tree order, and end the process: exit status 0 once all are written.

    os._exit never returns into the caller and skips the atexit handlers and
    the flush of stdio buffers inherited from the parent, so nothing the
    parent had buffered is written twice. The records are built in memory
    and written in one go: numpy's .npy writer and reader need a seekable
    file, which a pipe is not.

    If the parent dies without reaping this child, the child stops before
    its next tree. The read ends it inherited, its own included, are closed
    first, so with the parent gone no reader is left and a write fails with
    a broken pipe instead of blocking on a full pipe buffer for ever.
    """
    status = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        records = io.BytesIO()
        for t in range(worker, config.n_trees, workers):
            if os.getppid() != parent:
                return  # orphaned: no one will read these trees
            tree = _fit_tree(x, y, config, t)
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

    With W = min(n_trees, _workers(x)) workers, worker w fits the trees
    t = w (mod W): worker 0 is this process and the others are forked
    children, which send their trees' arrays back through a pipe each. The
    inputs are checked here, before any fork, and every received tree is
    checked again by CartTree. A child that fails raises TrainingError
    naming its exit status; on any error the children are killed and reaped.
    """
    x, y = _check_xy(x, y)
    workers = min(config.n_trees, _workers(x))
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
                    # threads, as numpy's OpenBLAS pool makes this one. The
                    # child calls no BLAS routine and leaves through os._exit.
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                    children[w] = os.fork()
                if children[w] == 0:
                    _grow_in_child(x, y, config, w, workers, write_end, parent, pipes.values())
            finally:
                os.close(write_end)
        for t in range(0, config.n_trees, workers):
            trees[t] = _fit_tree(x, y, config, t)
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
        "params": {
            "criterion": params.criterion,
            "max_depth": params.max_depth,
            "min_samples_split": params.min_samples_split,
            "feature_subsample": params.feature_subsample,
        },
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
