"""Exploratory feature statistics and standardization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DesignMatrix
from .errors import DataError

# Columns per block of fit_scaler's standard deviation.
SCALER_COLUMNS = 8


class PearsonResult(NamedTuple):
    r: float
    defined: bool


def pearson(x, y) -> PearsonResult:
    """Pearson correlation of two equal-length vectors.

    When either vector is constant the coefficient has no value; the result
    carries r=0.0 with defined=False rather than NaN so report code can sort
    and print without special-casing.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise DataError("pearson expects 1-D vectors")
    if x.shape != y.shape:
        raise DataError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.size < 2:
        raise DataError("pearson needs at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    # einsum rather than np.dot: BLAS splits a long dot product across its
    # threads, and the sum's bits then depend on the thread count.
    sx = float(np.sqrt(np.einsum("i,i->", dx, dx)))
    sy = float(np.sqrt(np.einsum("i,i->", dy, dy)))
    if sx == 0.0 or sy == 0.0:
        return PearsonResult(0.0, False)
    return PearsonResult(float(np.einsum("i,i->", dx, dy) / (sx * sy)), True)


def correlation_report(matrix) -> tuple[tuple[str, float, bool], ...]:
    """Correlation of every design-matrix column against its default labels.

    Returns (name, r, defined) triples sorted by r descending, ties broken
    by column name, so the strongest default signals list first.
    """
    y = np.asarray(matrix.y, dtype=np.float64)
    rows = []
    for j, name in enumerate(matrix.columns):
        r, defined = pearson(matrix.x[:, j], y)
        rows.append((name, r, defined))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return tuple(rows)


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
        """The standardized copy of x, a row or a 2-D array."""
        return self.transform_in_place(np.array(x, dtype=np.float64, ndmin=2))

    def transform_in_place(self, x: np.ndarray) -> np.ndarray:
        """Standardize a writable 2-D float64 array in its own memory and
        return it; the same bits as transform, without a second array."""
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

    The standard deviation is taken over blocks of SCALER_COLUMNS columns,
    so its temporary is one block's copy, not the matrix's. A block of two
    or more columns sums each column row by row, as x.std(axis=0) does, so
    the bits are the same; a 1-column slice would be summed pairwise, so
    the last block is never 1 column wide unless the matrix is.
    """
    x = np.asarray(matrix.x, dtype=np.float64)
    if x.shape[0] == 0:
        raise DataError("cannot fit a scaler on an empty matrix")
    mean = x.mean(axis=0)
    k = x.shape[1]
    starts = range(0, max(k - 1, 1), SCALER_COLUMNS)
    scale = np.empty(k)
    for start, stop in zip(starts, [*starts[1:], k]):
        scale[start:stop] = x[:, start:stop].std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    mean.setflags(write=False)
    scale.setflags(write=False)
    return Scaler(mean=mean, scale=scale, columns=tuple(matrix.columns))


def apply_scaler(scaler: Scaler, matrix) -> DesignMatrix:
    """Standardize a design matrix with previously fitted parameters."""
    if tuple(matrix.columns) != scaler.columns:
        raise DataError("scaler was fitted on different columns")
    return DesignMatrix(
        columns=matrix.columns, x=scaler.transform(matrix.x), y=matrix.y
    )


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
