"""Loan table ingestion, cleaning, dummy encoding and train/test splitting."""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DataError,
    EmptyDatasetError,
    ParseError,
    SchemaError,
    UnresolvableColumnError,
)

COLUMN_KINDS = ("numeric", "categorical", "text", "date")
COLUMN_ROLES = ("feature", "target", "exposure_aux", "drop")

# Terminal loan outcomes. Everything else (Current, Late, In Grace Period, ...)
# is still in flight and carries no default label.
STATUS_MAP = {"Fully Paid": 0, "Charged Off": 1}

MISSING_POLICIES = ("drop_row", "fill_median_or_mode")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    role: str = "feature"

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.role not in COLUMN_ROLES:
            raise SchemaError(f"unknown column role {self.role!r} for {self.name!r}")


def validate_schema(specs) -> tuple[ColumnSpec, ...]:
    """Check uniqueness of names and that exactly one column is the target."""
    specs = tuple(specs)
    names = [s.name for s in specs]
    dupes = [n for n, c in Counter(names).items() if c > 1]
    if dupes:
        raise SchemaError(f"duplicate column names in spec: {dupes}")
    targets = [s.name for s in specs if s.role == "target"]
    if len(targets) != 1:
        raise SchemaError(f"spec must have exactly one target column, found {targets}")
    return specs


def default_column_specs() -> tuple[ColumnSpec, ...]:
    """Spec for the accepted-loans extract this pipeline is normally run on."""
    return validate_schema(
        [
            ColumnSpec("loan_amnt", "numeric", "feature"),
            ColumnSpec("term", "categorical", "feature"),
            ColumnSpec("int_rate", "numeric", "feature"),
            ColumnSpec("sub_grade", "categorical", "feature"),
            ColumnSpec("emp_title", "text", "drop"),
            ColumnSpec("emp_length", "categorical", "drop"),
            ColumnSpec("grade", "categorical", "drop"),
            ColumnSpec("issue_d", "date", "drop"),
            ColumnSpec("title", "text", "drop"),
            ColumnSpec("annual_inc", "numeric", "feature"),
            ColumnSpec("dti", "numeric", "feature"),
            ColumnSpec("open_acc", "numeric", "feature"),
            ColumnSpec("total_acc", "numeric", "feature"),
            ColumnSpec("purpose", "categorical", "feature"),
            ColumnSpec("fico", "numeric", "feature"),
            ColumnSpec("loan_status", "text", "target"),
            ColumnSpec("recoveries", "numeric", "exposure_aux"),
            ColumnSpec("total_rec_prncp", "numeric", "exposure_aux"),
        ]
    )


def load_column_specs(path) -> tuple[ColumnSpec, ...]:
    """Read a JSON array of {name, kind, role} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"column spec file {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SchemaError(f"column spec file {path} must hold a JSON array")
    specs = []
    for i, entry in enumerate(raw):
        try:
            specs.append(ColumnSpec(entry["name"], entry["kind"], entry.get("role", "feature")))
        except (TypeError, KeyError) as exc:
            raise SchemaError(f"column spec entry {i} in {path} is malformed: {entry!r}") from exc
    return validate_schema(specs)


@dataclass(frozen=True)
class Categorical:
    """A non-numeric column: its distinct observed values in sorted order, and
    per row the index of the row's value among them (-1 where missing).

    Every level is used by some row, so a row subset recomputes the levels.
    """

    levels: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise SchemaError("level codes must be a 1-D integer array")
        if codes.size and (codes.min() < -1 or codes.max() >= len(self.levels)):
            raise SchemaError(f"level codes outside [-1, {len(self.levels)})")
        codes = codes.astype(np.intp, copy=False).view()
        codes.setflags(write=False)
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_codes(cls, values, codes) -> "Categorical":
        """Column whose row i holds values[codes[i]] (missing where -1).

        `values` need be neither sorted nor all used: the levels become the
        used values, sorted, and the codes are renumbered to match.
        """
        codes = np.asarray(codes, dtype=np.intp)
        used = np.bincount(codes[codes >= 0], minlength=len(values)) > 0
        order = sorted(np.flatnonzero(used).tolist(), key=values.__getitem__)
        renumber = np.full(len(values) + 1, -1, dtype=np.intp)  # [-1] maps -1 to -1
        renumber[order] = np.arange(len(order))
        return cls(tuple(values[i] for i in order), renumber[codes])

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> "Categorical":
        return Categorical.from_codes(self.levels, self.codes[rows])


def _missing(column) -> np.ndarray:
    if isinstance(column, Categorical):
        return column.codes < 0
    return np.isnan(column)


def _cells(column) -> list:
    """Row values as Python objects, None where missing."""
    if isinstance(column, Categorical):
        return np.array(column.levels + (None,), dtype=object)[column.codes].tolist()
    cells = column.astype(object)
    cells[np.isnan(column)] = None
    return cells.tolist()


@dataclass(frozen=True)
class RawLoanTable:
    """Parsed loan table, one array per schema column, all of one length.

    A numeric column is float64 with NaN for a missing cell; a column of any
    other kind is a Categorical. `rows` and `column()` derive Python cells
    (float, str, or None when missing) for callers that go row by row.
    """

    schema: tuple[ColumnSpec, ...]
    columns: tuple
    status_map: dict | None = None

    def __post_init__(self):
        if len(self.columns) != len(self.schema):
            raise SchemaError(f"{len(self.columns)} columns, schema has {len(self.schema)}")
        columns = []
        for spec, column in zip(self.schema, self.columns):
            if spec.kind == "numeric":
                column = np.asarray(column, dtype=np.float64).view()
                if column.ndim != 1:
                    raise SchemaError(f"numeric column {spec.name!r} must be 1-D")
                column.setflags(write=False)
            elif not isinstance(column, Categorical):
                raise SchemaError(f"{spec.kind} column {spec.name!r} must be a Categorical")
            columns.append(column)
        lengths = sorted({len(c) for c in columns})
        if len(lengths) > 1:
            raise SchemaError(f"columns differ in length: {lengths}")
        object.__setattr__(self, "columns", tuple(columns))

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schema)

    @property
    def target_name(self) -> str:
        return next(s.name for s in self.schema if s.role == "target")

    def index_of(self, name: str) -> int:
        for i, s in enumerate(self.schema):
            if s.name == name:
                return i
        raise SchemaError(f"unknown column {name!r}")

    def spec_for(self, name: str) -> ColumnSpec:
        return self.schema[self.index_of(name)]

    def column(self, name: str) -> list:
        return _cells(self.columns[self.index_of(name)])

    def distinct(self, name: str) -> tuple[list, np.ndarray]:
        """A column as its distinct values (a Categorical's levels, or the
        sorted numbers) and per row the index of its value among them, -1
        where the cell is missing."""
        column = self.columns[self.index_of(name)]
        if isinstance(column, Categorical):
            return list(column.levels), column.codes
        values, codes = np.unique(column, return_inverse=True)  # NaN sorts last
        return values[~np.isnan(values)].tolist(), np.where(np.isnan(column), -1, codes)

    def labels(self) -> np.ndarray:
        """Per row the default label that the status map (STATUS_MAP unless
        the table carries one) gives the loan status: 0 or 1, and -1 where
        the status is missing or not mapped (a loan still in flight)."""
        mapping = STATUS_MAP if self.status_map is None else self.status_map
        values, codes = self.distinct(self.target_name)
        return np.array([mapping.get(v, -1) for v in values] + [-1], dtype=np.int64)[codes]

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Row tuples, built from the columns on every access."""
        return tuple(zip(*(_cells(c) for c in self.columns)))

    def has_column(self, name: str) -> bool:
        return any(s.name == name for s in self.schema)

    def take(self, rows) -> "RawLoanTable":
        """The rows selected by a boolean mask or an index array."""
        return RawLoanTable(self.schema, tuple(c[rows] for c in self.columns), self.status_map)


# Records per parse block: bounds the raw cell strings held at once.
BLOCK_ROWS = 256


def _number(text: str) -> float:
    """A numeric cell: the stripped text less a trailing "%" (Lending Club
    writes rates as "13.56%"), NaN when blank or no number, and inf for text
    that parses to NaN or an infinity, which load_csv rejects."""
    try:
        number = float(text)  # float() strips whitespace as str.strip() does
    except ValueError:
        value = text.strip()
        try:
            number = float(value[:-1] if value.endswith("%") else value)
        except ValueError:
            return math.nan
    return number if math.isfinite(number) else math.inf


def _parse(spec: ColumnSpec, cells: tuple, lines: list, levels: dict | None) -> np.ndarray:
    """One block of a column: floats (NaN when missing) for a numeric column,
    else codes from levels, which maps each stripped text to its code (the
    blank text to -1) and grows by each new text."""
    if levels is None:
        block = np.fromiter(map(_number, cells), np.float64, len(cells))
        bad = np.isinf(block)
        if bad.any():
            i = int(np.argmax(bad))
            raise ParseError(
                f"numeric column {spec.name!r} holds the non-finite value "
                f"{cells[i].strip()!r} at line {lines[i]}"
            )
        return block
    texts = list(map(str.strip, cells))
    # New codes follow set order; from_codes sorts the levels, so the column does not.
    for text in set(texts).difference(levels):
        levels[text] = len(levels) - 1
    return np.fromiter(map(levels.__getitem__, texts), np.intp, len(cells))


class _Utf8Reader(io.RawIOBase):
    """Passes a binary stream through, raising ParseError at the first byte
    that is not UTF-8, with its offset in the stream."""

    def __init__(self, raw, owned: bool):
        self._raw = raw
        self._owned = owned
        self._pending = b""  # an incomplete character held back from the last read
        self._offset = 0  # stream offset of _pending

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self._raw.read(len(buffer))
        chunk = self._pending + data
        try:
            _, used = codecs.utf_8_decode(chunk, "strict", not data)
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"CSV is not UTF-8: invalid byte at offset {self._offset + exc.start}"
            ) from None
        self._pending = chunk[used:]
        self._offset += used
        buffer[: len(data)] = data
        return len(data)

    def close(self) -> None:
        if self._owned and not self.closed:
            self._raw.close()
        super().close()


def _open_text(source):
    """A text stream over `source`, and whether load_csv must close it."""
    if isinstance(source, io.TextIOBase):
        return source, False
    if isinstance(source, (str, Path)):
        raw, owned = open(source, "rb", buffering=0), True
    elif isinstance(source, (bytes, bytearray)):
        raw, owned = io.BytesIO(source), True
    elif hasattr(source, "read"):
        raw, owned = source, False
    else:
        raise TypeError(f"cannot read CSV from {type(source).__name__}")
    checked = io.BufferedReader(_Utf8Reader(raw, owned))
    return io.TextIOWrapper(checked, encoding="utf-8", newline=""), True


def _blocks(reader, width: int):
    """The records in blocks of BLOCK_ROWS, each with its records' line numbers."""
    block, lines = [], []
    try:
        for record in reader:
            if len(record) != width:
                raise ParseError(
                    f"malformed CSV at line {reader.line_num}: "
                    f"expected {width} fields, got {len(record)}"
                )
            block.append(record)
            lines.append(reader.line_num)
            if len(block) == BLOCK_ROWS:
                yield block, lines
                block, lines = [], []
    except csv.Error as exc:
        raise ParseError(f"malformed CSV at line {reader.line_num}: {exc}") from exc
    if block:
        yield block, lines


def load_csv(source, specs, allow_extra: bool = False) -> RawLoanTable:
    """Parse an RFC-4180 UTF-8 CSV with a header row into a RawLoanTable.

    The header must carry exactly the spec'd column names (any order). With
    allow_extra, header columns absent from the spec are skipped instead of
    raising: their field counts are checked, but they are not parsed and the
    table's schema is the spec. A numeric cell is stripped and loses a
    trailing "%"; text that is no number is missing, and text that parses
    to NaN or an infinity is a ParseError.
    """
    specs = validate_schema(specs)
    fh, owned = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("CSV has no header row") from None
        except csv.Error as exc:
            raise ParseError(f"malformed CSV at line 1: {exc}") from exc

        names = {s.name for s in specs}
        # Only the spec's columns are read, so only their names must be unique.
        dupes = [n for n, c in Counter(header).items() if c > 1 and n in names]
        if dupes:
            raise SchemaError(f"duplicate header columns: {dupes}")
        missing = [s.name for s in specs if s.name not in header]
        if missing:
            raise SchemaError(f"spec columns absent from header: {missing}")
        extra = [h for h in header if h not in names]
        if extra and not allow_extra:
            raise SchemaError(f"header columns absent from spec: {extra}")

        positions = [header.index(s.name) for s in specs]
        levels = [None if s.kind == "numeric" else {"": -1} for s in specs]
        blocks = [[np.empty(0, np.float64 if s.kind == "numeric" else np.intp)] for s in specs]
        for block, lines in _blocks(reader, len(header)):
            fields = list(zip(*block))
            for spec, p, seen, parsed in zip(specs, positions, levels, blocks):
                parsed.append(_parse(spec, fields[p], lines, seen))
    finally:
        if owned:
            fh.close()
    columns = (
        np.concatenate(parsed) if seen is None
        else Categorical.from_codes(list(seen)[1:], np.concatenate(parsed))
        for seen, parsed in zip(levels, blocks)
    )
    return RawLoanTable(schema=specs, columns=tuple(columns))


def filter_terminal(table: RawLoanTable, status_map=None) -> RawLoanTable:
    """Keep only rows whose loan status is a terminal outcome (paid or charged off)."""
    table = replace(table, status_map=dict(STATUS_MAP if status_map is None else status_map))
    keep = table.labels() >= 0
    if not keep.any():
        raise EmptyDatasetError(
            f"no rows with a terminal loan status; expected one of {sorted(table.status_map)}"
        )
    return table.take(keep)


def drop_columns(table: RawLoanTable, names=None) -> RawLoanTable:
    """Remove the named columns; default is every column with role 'drop'."""
    if names is None:
        names = [s.name for s in table.schema if s.role == "drop"]
    names = list(names)
    known = set(table.names)
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SchemaError(f"cannot drop unknown columns: {unknown}")
    doomed = set(names)
    kept = [(s, c) for s, c in zip(table.schema, table.columns) if s.name not in doomed]
    if not any(s.role == "feature" for s, _ in kept):
        raise SchemaError("dropping these columns would leave no feature columns")
    schema, columns = zip(*kept)
    return RawLoanTable(schema=schema, columns=columns, status_map=table.status_map)


def _median(values: np.ndarray):
    """np.median of a NaN-free 1-D array, with the same bits. np.median's own
    NaN check imports numpy.ma, which costs every command time and memory."""
    half = values.size // 2
    if values.size % 2:
        return np.partition(values, half)[half]
    part = np.partition(values, (half - 1, half))
    return (part[half - 1] + part[half]) / 2.0


def _filled(spec: ColumnSpec, column, gaps: np.ndarray):
    if gaps.all():
        raise UnresolvableColumnError(f"column {spec.name!r} has no observed values to fill from")
    if isinstance(column, Categorical):
        # argmax takes the first of tied counts: the lexicographically smallest level.
        mode = int(np.argmax(np.bincount(column.codes[~gaps], minlength=len(column.levels))))
        return Categorical(column.levels, np.where(gaps, mode, column.codes))
    return np.where(gaps, _median(column[~gaps]), column)


def handle_missing(table: RawLoanTable, policy: str = "fill_median_or_mode") -> RawLoanTable:
    """Produce a table with no missing cells.

    drop_row removes every row that has any missing cell. fill_median_or_mode
    substitutes the column median (numeric) or most frequent value (other
    kinds; ties go to the lexicographically smallest), computed over the
    non-missing cells.
    """
    if policy not in MISSING_POLICIES:
        raise DataError(f"unknown missing policy {policy!r}; expected one of {MISSING_POLICIES}")
    if table.row_count == 0:
        raise EmptyDatasetError("cannot handle missing values on an empty table")

    gaps = [_missing(c) for c in table.columns]
    if policy == "drop_row":
        complete = ~np.logical_or.reduce(gaps)
        if not complete.any():
            raise EmptyDatasetError("every row has at least one missing cell")
        return table.take(complete)

    columns = tuple(
        _filled(spec, column, g) if g.any() else column
        for spec, column, g in zip(table.schema, table.columns, gaps)
    )
    return RawLoanTable(schema=table.schema, columns=columns, status_map=table.status_map)


@dataclass(frozen=True)
class EncodeReport:
    """What encoding did: constant columns it dropped and the dummy mapping."""

    dropped_constant: tuple[str, ...]
    dummies: dict
    numeric: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "dropped_constant": list(self.dropped_constant),
            "dummies": {
                name: {"baseline": m["baseline"], "columns": list(m["columns"])}
                for name, m in self.dummies.items()
            },
            "numeric": list(self.numeric),
        }


@dataclass(frozen=True)
class DesignMatrix:
    """Numeric feature matrix with a binary default target (1 = charged off)."""

    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.float64))
        y = np.asarray(self.y)
        if x.ndim != 2:
            raise DataError("design matrix must be 2-D")
        if x.shape[1] != len(self.columns):
            raise DataError(f"{x.shape[1]} matrix columns vs {len(self.columns)} names")
        if y.shape != (x.shape[0],):
            raise DataError("target length does not match row count")
        if not np.all(np.isfinite(x)):
            raise DataError("design matrix contains non-finite values")
        # Checked as values, before the cast, so that 0.5 is no 0.
        if not np.isin(y, (0, 1)).all():
            raise DataError("target vector must be binary")
        y = np.asarray(y, dtype=np.int64)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_cols(self) -> int:
        return self.x.shape[1]


def encode(table: RawLoanTable, rows=None) -> tuple[DesignMatrix, EncodeReport]:
    """Turn a clean table into a numeric matrix of its rows, or of the given
    rows only (an index array), filled into one preallocated array.

    Numeric features pass through. Each discrete feature with k distinct
    values becomes k-1 indicator columns named "<col>=<value>"; the
    lexicographically first value is the dropped baseline. Single-valued
    columns are dropped and recorded in the report. The levels are the whole
    table's, so a row subset encodes to the same columns as the table.
    """
    y = table.labels()
    if (y < 0).any():
        i = int(np.argmax(y < 0))
        values, codes = table.distinct(table.target_name)
        status = values[codes[i]] if codes[i] >= 0 else None
        raise DataError(
            f"row {i} has non-terminal status {status!r}; filter_terminal must run first"
        )

    kept: list = []
    col_names: list[str] = []
    dropped: list[str] = []
    dummies: dict = {}
    numeric: list[str] = []

    for spec, column in zip(table.schema, table.columns):
        if spec.role != "feature":
            continue
        if _missing(column).any():
            raise DataError(f"column {spec.name!r} still has missing cells; clean before encoding")
        if not isinstance(column, Categorical):
            kept.append(column)
            col_names.append(spec.name)
            numeric.append(spec.name)
            continue
        k = len(column.levels)
        if k < 2:
            dropped.append(spec.name)
            continue
        baseline, rest = column.levels[0], column.levels[1:]
        names = [f"{spec.name}={v}" for v in rest]
        dummies[spec.name] = {"baseline": baseline, "columns": tuple(names)}
        kept.append(column)
        col_names.extend(names)

    rows = slice(None) if rows is None else rows
    y = y[rows]
    x = np.empty((y.size, len(col_names)), dtype=np.float64)
    j = 0
    for column in kept:
        if isinstance(column, Categorical):
            block = column.codes[rows, None] == np.arange(1, len(column.levels))
        else:
            block = column[rows, None]
        x[:, j : j + block.shape[1]] = block
        j += block.shape[1]
    matrix = DesignMatrix(columns=tuple(col_names), x=x, y=y)
    report = EncodeReport(
        dropped_constant=tuple(dropped), dummies=dummies, numeric=tuple(numeric)
    )
    return matrix, report


@dataclass(frozen=True)
class SplitPair:
    train: DesignMatrix
    test: DesignMatrix
    test_fraction: float


def split_rows(n_rows: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, test rows) of a seeded shuffle split of n_rows rows. The
    permutation comes from numpy's PCG64 stream, so a given (seed, n_rows)
    pair always produces the same membership."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if n_rows < 2:
        raise DataError("need at least 2 rows to split")
    n_test = int(round(test_fraction * n_rows))
    n_test = min(max(n_test, 1), n_rows - 1)
    perm = np.random.default_rng(seed).permutation(n_rows)
    return perm[n_test:], perm[:n_test]


def split(matrix: DesignMatrix, test_fraction: float, seed: int) -> SplitPair:
    """split_rows of a matrix, with each half copied out of it."""
    train, test = split_rows(matrix.n_rows, test_fraction, seed)
    return SplitPair(
        train=DesignMatrix(matrix.columns, matrix.x[train], matrix.y[train]),
        test=DesignMatrix(matrix.columns, matrix.x[test], matrix.y[test]),
        test_fraction=test_fraction,
    )


class ClassBalance(NamedTuple):
    count0: int
    count1: int
    w0: float
    w1: float


def class_balance(y) -> ClassBalance:
    """Class counts and their proportions (weights sum to 1)."""
    y = np.asarray(y)
    if y.size == 0:
        raise DataError("cannot compute class balance of an empty target")
    count1 = int(np.count_nonzero(y == 1))
    count0 = int(y.size - count1)
    total = count0 + count1
    return ClassBalance(count0, count1, count0 / total, count1 / total)
