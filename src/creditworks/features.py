"""Exploratory feature statistics and standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DesignMatrix, row_blocks
from .errors import DataError


def correlation_report(matrix) -> tuple[tuple[str, float, bool], ...]:
    """Correlation of every design-matrix column against its default labels.

    Returns (name, r, defined) triples sorted by r descending, ties broken
    by column name, so the strongest default signals list first. r is
    Sxy / sqrt(Sxx Syy), its sums taken over the matrix's row blocks (see
    _column_sums); a constant column has r 0.0, undefined, not NaN.
    """
    n = matrix.n_rows
    if n < 2 and matrix.n_cols:
        raise DataError("a correlation needs at least 2 rows")
    if matrix.n_cols == 0:
        return ()
    dy = np.asarray(matrix.y, dtype=np.float64)
    dy = dy - dy.mean()
    sy = float(np.sqrt(np.einsum("i,i->", dy, dy)))
    mean = _column_sums(matrix) / n
    sx = np.sqrt(_column_sums(matrix, mean))
    sxy = _column_sums(matrix, mean, dy)
    rows = []
    for name, s, c in zip(matrix.columns, sx.tolist(), sxy.tolist()):
        defined = s != 0.0 and sy != 0.0
        rows.append((name, c / (s * sy) if defined else 0.0, defined))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return tuple(rows)


def _column_sums(matrix, mean=None, by=None) -> np.ndarray:
    """Column sums over the matrix's dense rows x, taken a row block at a
    time: of x; given the column means, of (x - mean) ** 2; given a vector
    by as well, of (x - mean) * by.

    numpy sums axis 0 of a C-contiguous matrix of two or more columns row
    after row, so adding the running sum into a block's first row keeps
    the bits of one sum over the whole matrix. A one-column block is summed
    pairwise, so a one-column matrix keeps them only in one block.
    """
    total = np.zeros(matrix.n_cols)
    for start, rows in row_blocks(matrix):
        if mean is not None:
            rows -= mean
            if by is None:
                np.square(rows, out=rows)
            else:
                rows *= by[start : start + len(rows), None]
        if start:
            rows[0] += total
        total = rows.sum(axis=0)
    return total


@dataclass(frozen=True)
class Scaler:
    """Column-wise standardizer, fitted by fit_scaler on training data only.

    Uses the population standard deviation. Constant columns keep scale 1
    so they pass through centered at zero instead of dividing by zero.
    """

    mean: np.ndarray
    scale: np.ndarray
    columns: tuple[str, ...]

    def transform(self, x) -> np.ndarray:
        """The standardized copy of x, a row or a 2-D array: the bits of a
        standardized DesignMatrix's rows."""
        x = np.array(x, dtype=np.float64, ndmin=2)
        if x.shape[1] != self.mean.shape[0]:
            raise DataError(
                f"scaler fitted on {self.mean.shape[0]} columns, got {x.shape[1]}"
            )
        x -= self.mean
        x /= self.scale
        return x

    def to_json_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "mean": [float(v) for v in self.mean],
            "scale": [float(v) for v in self.scale],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Scaler":
        mean = np.asarray(payload["mean"], dtype=np.float64)
        scale = np.asarray(payload["scale"], dtype=np.float64)
        columns = tuple(payload["columns"])
        if mean.shape != scale.shape or mean.shape[0] != len(columns):
            raise DataError("scaler payload has inconsistent lengths")
        if not (np.isfinite(mean).all() and ((scale > 0.0) & (scale < np.inf)).all()):
            raise DataError("scaler means must be finite and its scales positive and finite")
        mean.setflags(write=False)
        scale.setflags(write=False)
        return cls(mean=mean, scale=scale, columns=columns)


def fit_scaler(matrix) -> Scaler:
    """Fit a standardizer to a design matrix (training half only).

    Mean and standard deviation are taken by row blocks (see _column_sums)
    with the bits of x.mean(axis=0) and x.std(axis=0), whose formulas they
    repeat, and no dense copy larger than a block.
    """
    n = matrix.n_rows
    if n == 0:
        raise DataError("cannot fit a scaler on an empty matrix")
    mean = _column_sums(matrix) / n
    scale = np.sqrt(_column_sums(matrix, mean) / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    mean.setflags(write=False)
    scale.setflags(write=False)
    return Scaler(mean=mean, scale=scale, columns=tuple(matrix.columns))


def apply_scaler(scaler: Scaler, matrix) -> DesignMatrix:
    """The design matrix standardized with previously fitted parameters; its
    rows are scaled as they are built (see DesignMatrix.standardized)."""
    if tuple(matrix.columns) != scaler.columns:
        raise DataError("scaler was fitted on different columns")
    return matrix.standardized(scaler.mean, scaler.scale)


# Sanity screens for obviously out-of-range exploratory values. Each rule is
# (column, predicate description, predicate).
DEFAULT_THRESHOLD_RULES = (
    ("annual_inc", "> 1000000", lambda v: v > 1_000_000),
    ("open_acc", "> 40", lambda v: v > 40),
    ("total_acc", "> 80", lambda v: v > 80),
)


def threshold_counts(table, rules=DEFAULT_THRESHOLD_RULES) -> tuple[tuple[str, str, int], ...]:
    """Count rows exceeding each screening rule; unknown columns count as absent.

    A predicate sees the whole numeric column, NaN where a cell is missing,
    and must be false there. A rule on a non-numeric column is a DataError.
    """
    out = []
    for name, label, pred in rules:
        if not table.has_column(name):
            continue
        kind = table.spec_for(name).kind
        if kind != "numeric":
            raise DataError(f"threshold column {name!r} must be numeric, not {kind}")
        hits = np.count_nonzero(pred(table.columns[table.index_of(name)]))
        out.append((name, label, int(hits)))
    return tuple(out)
