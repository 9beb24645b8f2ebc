"""Loan table ingestion, cleaning, dummy encoding and train/test splitting."""

from __future__ import annotations

import array
import csv
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import seeded
from .errors import (
    DataError,
    EmptyDatasetError,
    ParseError,
    SchemaError,
    TrainingError,
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
        except ValueError as exc:  # bad UTF-8 or JSON, or an integer of more digits than int() reads
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
    other kind is a Categorical. `rows` derives row tuples of Python cells
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


# Bytes read per chunk; each chunk is cut back to its last line end, so it
# bounds the raw text and field strings held at once.
CHUNK_BYTES = 1 << 16


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


def _floats(cells: list) -> np.ndarray | None:
    """The cells as _number reads them, with one map(float) over the column:
    a blank cell is read as "nan" and, if that pass fails, a "%" that ends a
    cell is cut too. None when it fails again (text that is no number,
    spaces after a "%") or a cell is non-finite text; then _number must
    read the cells one by one."""
    blanks = cells.count("")
    try:
        texts = [c or "nan" for c in cells] if blanks else cells
        values = np.fromiter(map(float, texts), np.float64, len(cells))
    except ValueError:
        blanks += cells.count("%")
        try:
            texts = [c.removesuffix("%") or "nan" for c in cells]
            values = np.fromiter(map(float, texts), np.float64, len(cells))
        except ValueError:
            return None
    return values if np.count_nonzero(~np.isfinite(values)) == blanks else None


def _codes(cells: list, raw: dict, levels: dict) -> np.ndarray:
    """Per cell its code: raw maps each raw text seen to the code that
    levels gives its stripped text (the blank text -1). Both grow by each
    new text, so each distinct raw text is stripped once."""
    try:
        return np.fromiter(map(raw.__getitem__, cells), np.int64, len(cells))
    except KeyError:
        # New codes follow set order; from_codes sorts the levels, so the column does not.
        for text in set(cells).difference(raw):
            raw[text] = levels.setdefault(text.strip(), len(levels) - 1)
        return np.fromiter(map(raw.__getitem__, cells), np.int64, len(cells))


def _open(source):
    """(byte stream, whether load_csv must close it)."""
    if isinstance(source, (str, Path)):
        return open(source, "rb"), True
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(source), True
    if hasattr(source, "read"):
        return source, False
    raise TypeError(f"cannot read CSV from {type(source).__name__}")


def _chunks(stream):
    """The text of each chunk of the byte stream: about CHUNK_BYTES read at
    a time, cut after its last line end and decoded whole. A byte that is
    not UTF-8 is a ParseError, raised once the text of the lines before it
    is yielded."""
    carry, offset = b"", 0  # bytes read past the last line end; stream offset of the next chunk
    while True:
        data = stream.read(CHUNK_BYTES)
        buf = carry + data
        while data and b"\n" not in data:  # a line longer than a chunk
            data = stream.read(CHUNK_BYTES)
            buf += data
        cut = buf.rfind(b"\n") + 1 if data else len(buf)
        chunk, carry = buf[:cut], buf[cut:]
        del buf, data  # no bytes but the carry live on while the text is parsed
        if not chunk:
            return
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            text = chunk[: chunk.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
            if text:
                yield text
            raise ParseError(f"CSV is not UTF-8: invalid byte at offset {offset + exc.start}") from None
        offset += len(chunk)
        del chunk
        yield text
        del text  # freed once the caller is done with it


def _split(text: str, width: int) -> list | None:
    """The fields, concatenated, of a chunk's text if each of its lines is
    one record of `width` fields; else None, and csv.reader must read it.

    The lines must all end in LF, or all in CRLF; csv.reader alone reads
    mixed line ends, a blank line (no fields), NUL (an error before Python
    3.11) and a field past its size limit. One str.split reads each
    quote-free line, and one strict csv.reader pass the lines with a quote,
    each of which must be a whole record. Strict, the reader raises at a
    quote left open at the last such line, which may close in a line it was
    not given.
    """
    if "\r" not in text:
        end = "\n"
    elif text.count("\r") == text.count("\r\n") == text.count("\n"):
        end = "\r\n"
    else:
        return None
    if "\0" in text or len(text) > csv.field_size_limit():
        return None
    lines = text.split(end)
    if lines[-1] == "":
        lines.pop()  # the end of the last line; a last line without one is kept
    if "" in lines:
        return None
    rows = list(map(str.split, lines, itertools.repeat(",")))
    if '"' in text:
        quoted = [i for i, line in enumerate(lines) if '"' in line]
        try:
            records = list(csv.reader([lines[i] for i in quoted], strict=True))
        except csv.Error:
            return None
        if len(records) != len(quoted):
            return None  # a record spans lines
        for i, record in zip(quoted, records):
            rows[i] = record
    del lines  # not held beside the joined fields
    if set(map(len, rows)) != {width}:
        return None
    return list(itertools.chain.from_iterable(rows))


def _records(text: str, chunks, line: int):
    """csv.reader's records from the chunk `text` on, each with the number
    of the line it ends on; `line` lines come before the chunk. The reader
    reads on into later chunks while a record spans them, and stops after
    the first record that ends at a chunk end. ParseError at malformed CSV.
    """
    at_end = False  # whether the line read last ends a chunk

    def feed(text):
        nonlocal at_end
        while text is not None:
            # Each line keeps its end, cut at CR, LF and CRLF, as csv.reader reads.
            lines = io.StringIO(text, newline="").readlines()
            last = len(lines) - 1
            for i, line in enumerate(lines):
                at_end = i == last
                yield line
            text = next(chunks, None)

    reader = csv.reader(feed(text))
    try:
        for record in reader:
            yield record, line + reader.line_num
            if at_end:
                return
    except csv.Error as exc:
        raise ParseError(f"malformed CSV at line {line + reader.line_num}: {exc}") from exc


class _Columns:
    """The parsed spec columns, built from batches of records.

    Each batch comes as one flat list of its records' fields, and each
    column is parsed from its stride slice of that list.
    """

    def __init__(self, specs, positions, width: int):
        self.specs, self.positions, self.width = specs, positions, width
        numeric = [s.kind == "numeric" for s in specs]
        self.raw = [None if n else {} for n in numeric]
        self.levels = [None if n else {"": -1} for n in numeric]
        # Each column grows in place in an array.array, which numpy views at
        # the end: no parsed batch is held beside the joined column.
        self.data = [array.array("d" if n else "q") for n in numeric]

    def add(self, fields: list, lines) -> None:
        """Parse a batch of records given as their fields, concatenated;
        lines[i] is the line that record i ends on. ParseError at the
        batch's first non-finite numeric cell (by row, then by column in
        spec order)."""
        width, fault = self.width, None
        for spec, p, raw, levels, data in zip(
            self.specs, self.positions, self.raw, self.levels, self.data
        ):
            cells = fields[p::width]
            if raw is not None:
                data.frombytes(_codes(cells, raw, levels).view(np.uint8))
                continue
            values = _floats(cells)
            if values is None:
                values = np.fromiter(map(_number, cells), np.float64, len(cells))
                bad = np.flatnonzero(np.isinf(values))
                if bad.size and (fault is None or bad[0] < fault[0]):
                    fault = (int(bad[0]), spec, cells[bad[0]])
            data.frombytes(values.view(np.uint8))
        if fault is not None:
            row, spec, cell = fault
            raise ParseError(
                f"numeric column {spec.name!r} holds the non-finite value "
                f"{cell.strip()!r} at line {lines[row]}"
            )

    def read(self, records, line: int) -> int:
        """Parse _records' records as one batch; the number of the line the
        last of them ends on, `line` if there is none."""
        fields, lines = [], []
        try:
            for record, line in records:
                if len(record) != self.width:
                    raise ParseError(
                        f"malformed CSV at line {line}: "
                        f"expected {self.width} fields, got {len(record)}"
                    )
                fields += record
                lines.append(line)
        except ParseError:
            self.add(fields, lines)  # a fault in an earlier record is raised first
            raise
        self.add(fields, lines)
        return line

    def columns(self) -> tuple:
        """The parsed columns. A categorical's codes are renumbered into a
        new array, so each column's raw codes are freed once it is made."""
        data, self.data = self.data, None
        columns = []
        for levels in self.levels:
            column = np.frombuffer(data.pop(0), np.float64 if levels is None else np.int64)
            columns.append(column if levels is None else Categorical.from_codes(list(levels)[1:], column))
        return tuple(columns)


def load_csv(source, specs, allow_extra: bool = False, skip_dropped: bool = False) -> RawLoanTable:
    """Parse an RFC-4180 UTF-8 CSV with a header row into a RawLoanTable.

    source is a path, the CSV's bytes, or a binary stream, which is left open.

    The header must carry exactly the spec'd column names (any order). With
    allow_extra, header columns absent from the spec are skipped instead of
    raising: their field counts are checked, but they are not parsed and the
    table's schema is the spec. With skip_dropped, so are the spec's
    drop-role columns of a kind other than numeric (a numeric cell can be a
    fault): the header must still name them, and the table leaves them out.
    A numeric cell is stripped and loses a trailing "%"; text that is no
    number is missing, and text that parses to NaN or an infinity is a
    ParseError.

    Of several faults, the one raised is in the first faulty record. Within
    one record, a byte that is not UTF-8 comes first, then malformed CSV or
    a wrong field count, then the first non-finite numeric cell in spec
    order.

    The stream is read about CHUNK_BYTES at a time (_chunks). _split reads
    each chunk whose records each fit on one line. csv.reader reads the
    header and the rest of the first chunk, and any chunk _split refuses,
    record by record: it reads on into later chunks while a record spans
    them, up to the first record that ends at a chunk end.
    """
    specs = validate_schema(specs)
    stream, owned = _open(source)
    try:
        chunks = _chunks(stream)
        records = _records(next(chunks, ""), chunks, 0)
        try:
            header, line = next(records)
        except StopIteration:
            raise ParseError("CSV has no header row") from None
        except ParseError as exc:
            if not isinstance(exc.__cause__, csv.Error):
                raise  # a byte that is not UTF-8
            # The header is reported at its first line, even where it spans lines.
            raise ParseError(f"malformed CSV at line 1: {exc.__cause__}") from exc.__cause__

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

        if skip_dropped:
            specs = tuple(s for s in specs if s.role != "drop" or s.kind == "numeric")
        width = len(header)
        parsed = _Columns(specs, [header.index(s.name) for s in specs], width)
        line = parsed.read(records, line)
        for text in chunks:
            fields = _split(text, width)
            if fields is None:
                line = parsed.read(_records(text, chunks, line), line)
                continue
            del text
            n = len(fields) // width
            parsed.add(fields, range(line + 1, line + 1 + n))
            del fields  # not held while the next chunk is split
            line += n
    finally:
        if owned:
            stream.close()
    return RawLoanTable(schema=specs, columns=parsed.columns())


def filter_terminal(table: RawLoanTable, status_map=None) -> RawLoanTable:
    """Keep only rows whose loan status is a terminal outcome (paid or charged off)."""
    table = replace(table, status_map=dict(STATUS_MAP if status_map is None else status_map))
    keep = table.labels() >= 0
    if not keep.any():
        raise EmptyDatasetError(
            f"no rows with a terminal loan status; expected one of {sorted(table.status_map)}"
        )
    return table.take(keep)


def drop_columns(table: RawLoanTable) -> RawLoanTable:
    """Remove every column with role 'drop'."""
    kept = [(s, c) for s, c in zip(table.schema, table.columns) if s.role != "drop"]
    if not any(s.role == "feature" for s, _ in kept):
        raise SchemaError("dropping the drop-role columns would leave no feature columns")
    schema, columns = zip(*kept)
    return RawLoanTable(schema=schema, columns=columns, status_map=table.status_map)


def midpoint(lo, hi):
    """(lo + hi) / 2.0 elementwise, or lo / 2.0 + hi / 2.0 where the sum
    passes the float range: the midpoint of two finite floats is finite."""
    with np.errstate(over="ignore"):
        total = lo + hi
    return np.where(np.isfinite(total), total / 2.0, lo / 2.0 + hi / 2.0)


def _median(values: np.ndarray):
    """np.median of a NaN-free 1-D array, with the same bits wherever that
    is finite. np.median's own NaN check imports numpy.ma, which costs every
    command time and memory. Like np.median, the sum starts from +0.0, so
    the median of -0.0 is +0.0. Where the two middle values' sum overflows,
    np.median gives inf; this gives the finite midpoint."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, (lo, hi))
    return midpoint(0.0 + part[lo], part[hi])


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


# Cells of one block of dense design-matrix rows, 512 KiB of float64. Every
# command takes the matrix's rows one block at a time (predictions, the
# prepared .npy halves, the scaler, the correlations, the Newton passes), so
# a block is the largest dense array of the matrix that any of them holds.
# That is 1,191 rows of a 55-column matrix: a 20k-row logistic train (a
# bench/gen.py book of 14 purposes and 35 sub_grades) peaked at 42.9 MB
# through bench/launch.py, against 44.4 MB with blocks of 4,096 rows.
BLOCK_CELLS = 1 << 16


def block_rows(n_cols: int) -> int:
    """Rows per block of dense design-matrix rows of n_cols columns."""
    return max(1, BLOCK_CELLS // max(n_cols, 1))


class FrameColumn(NamedTuple):
    """One feature of a design matrix's model frame, a 1-D column.

    With levels 0, values are the float64 numbers of one matrix column.
    Otherwise values are the level codes of a category of that many levels,
    which the matrix holds as levels - 1 dummy columns: level 0 is the
    baseline, and level i is 1.0 in the i-th dummy column.
    """

    values: np.ndarray
    levels: int

    @property
    def width(self) -> int:
        return self.levels - 1 if self.levels else 1


class DesignMatrix:
    """Numeric feature matrix with a binary default target (1 = charged off).

    It holds its model frame, not the matrix: the feature columns and
    category codes of its rows, from which dense(start, stop) builds any
    range of the matrix's rows (Chambers & Hastie 1992, *Statistical Models
    in S*, ch. 2). DesignMatrix(columns, x, y) of a dense 2-D x frames each
    of x's columns as a view. A standardized matrix (see standardized)
    builds every row as (row - mean) / scale.
    """

    def __init__(self, columns, x, y):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DataError("design matrix must be 2-D")
        self._build(columns, tuple(FrameColumn(column, 0) for column in x.T), y, None)

    @classmethod
    def of_frame(cls, columns, frame, y, scaling=None) -> "DesignMatrix":
        """The matrix of a model frame (FrameColumns, in column order) whose
        rows are labelled y; scaling is None or (mean, scale) per column."""
        matrix = cls.__new__(cls)
        matrix._build(columns, tuple(frame), y, scaling)
        return matrix

    def _build(self, columns, frame, y, scaling) -> None:
        columns = tuple(columns)
        width = sum(f.width for f in frame)
        if width != len(columns):
            raise DataError(f"{width} matrix columns vs {len(columns)} names")
        y = np.asarray(y)
        if y.ndim != 1 or any(len(f.values) != y.size for f in frame):
            raise DataError("target length does not match row count")
        kept = []
        for values, levels in frame:
            if values.ndim != 1:
                raise DataError("frame columns must be 1-D")
            if levels == 0 and not np.all(np.isfinite(values)):
                raise DataError("design matrix contains non-finite values")
            if levels and values.size and (values.min() < 0 or values.max() >= levels):
                raise DataError(f"level codes outside [0, {levels})")
            values = values.view()
            values.setflags(write=False)
            kept.append(FrameColumn(values, levels))
        # Checked as values, before the cast, so that 0.5 is no 0.
        if not np.isin(y, (0, 1)).all():
            raise DataError("target vector must be binary")
        y = np.asarray(y, dtype=np.int64)
        y.setflags(write=False)
        self.columns, self.frame, self.y, self.scaling = columns, tuple(kept), y, scaling

    @property
    def n_rows(self) -> int:
        return self.y.size

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    def dense(self, start: int, stop: int, out=None) -> np.ndarray:
        """Rows start:stop (cut at the last row) as float64, bit-equal to
        those rows of the dense matrix. They are written into the first rows
        of out, a C-contiguous float64 array of n_cols columns, when given,
        else into a new array."""
        stop = min(stop, self.n_rows)
        m, k = max(stop - start, 0), self.n_cols
        rows = np.empty((m, k)) if out is None else out[:m]
        if any(f.levels for f in self.frame):
            rows.fill(0.0)
        flat = rows.reshape(-1)
        j = 0
        for values, levels in self.frame:
            if levels:
                # A 1.0 per row whose level is not the baseline, scattered
                # into that level's column.
                codes = values[start:stop]
                hit = codes.nonzero()[0]
                flat.put(hit * k + codes.take(hit) + (j - 1), 1.0)
                j += levels - 1
            else:
                rows[:, j] = values[start:stop]
                j += 1
        if self.scaling is not None:
            rows -= self.scaling[0]
            rows /= self.scaling[1]
        return rows

    @property
    def x(self) -> np.ndarray:
        """The whole dense matrix, read-only and built on every access. For
        library callers: no command builds it."""
        x = self.dense(0, self.n_rows)
        x.setflags(write=False)
        return x

    def take(self, rows) -> "DesignMatrix":
        """The matrix of the rows selected by an index array or a boolean mask."""
        frame = (FrameColumn(f.values[rows], f.levels) for f in self.frame)
        return DesignMatrix.of_frame(self.columns, frame, self.y[rows], self.scaling)

    def standardized(self, mean, scale) -> "DesignMatrix":
        """This matrix with every row built as (row - mean) / scale."""
        if self.scaling is not None:  # scaled twice: from the scaled rows
            return DesignMatrix(self.columns, self.x, self.y).standardized(mean, scale)
        return DesignMatrix.of_frame(self.columns, self.frame, self.y, (mean, scale))


def check_training_data(x, y):
    """x as a 2-D float64 matrix of finite values, and y as its int64 0/1
    labels, one per row. A DesignMatrix stays as it is: its constructor
    checked its values. Labels are checked as values, before the cast, so
    0.5 is no 0. DataError for a shape fault, TrainingError for the rest."""
    array = not isinstance(x, DesignMatrix)
    if array:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DataError("training matrix must be 2-D")
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise DataError("target length does not match row count")
    if x.shape[0] == 0:
        raise TrainingError("cannot fit on an empty matrix")
    if not np.isin(y, (0, 1)).all():
        raise TrainingError("labels must be 0/1")
    if array and not np.isfinite(x).all():
        raise TrainingError("training matrix contains non-finite values")
    return x, np.asarray(y, dtype=np.int64)


def row_blocks(x):
    """(start, rows) of every block of block_rows(n_cols) dense rows of x, a
    DesignMatrix or a 2-D array, in row order. Each block is written over
    the last one's memory, which the caller may change. An array's rows are
    copied there too, so a matrix and its dense array give every consumer
    the same blocks to compute on."""
    n, k = x.shape
    step = block_rows(k)
    buffer = np.empty((min(step, n), k))
    for start in range(0, n, step):
        if isinstance(x, DesignMatrix):
            rows = x.dense(start, start + step, buffer)
        else:
            rows = buffer[: min(step, n - start)]
            rows[...] = x[start : start + step]
        yield start, rows


def encode(table: RawLoanTable) -> tuple[DesignMatrix, EncodeReport]:
    """The design matrix of a clean table's rows, holding the table's own
    feature columns and category codes, not copies.

    Numeric features pass through. Each discrete feature with k distinct
    values becomes k-1 indicator columns named "<col>=<value>"; the
    lexicographically first value is the dropped baseline. Single-valued
    columns are dropped and recorded in the report. A subset of the rows
    (see DesignMatrix.take) keeps the whole table's columns.
    """
    y = table.labels()
    if (y < 0).any():
        i = int(np.argmax(y < 0))
        values, codes = table.distinct(table.target_name)
        status = values[codes[i]] if codes[i] >= 0 else None
        raise DataError(
            f"row {i} has non-terminal status {status!r}; filter_terminal must run first"
        )

    frame: list = []
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
            frame.append(FrameColumn(column, 0))
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
        frame.append(FrameColumn(column.codes, k))
        col_names.extend(names)

    matrix = DesignMatrix.of_frame(col_names, frame, y)
    report = EncodeReport(
        dropped_constant=tuple(dropped), dummies=dummies, numeric=tuple(numeric)
    )
    return matrix, report


@dataclass(frozen=True)
class SplitPair:
    train: DesignMatrix
    test: DesignMatrix


def split_rows(n_rows: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, test rows) of a seeded split of n_rows rows, each in
    ascending order. The test rows are the round(test_fraction * n_rows)
    rows (at least 1, at most n_rows - 1) with the smallest words of the
    stream seeded.words((0, seed), n_rows), ties to the lower row: so a
    given (seed, n_rows) pair always produces the same membership."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if n_rows < 2:
        raise DataError("need at least 2 rows to split")
    if seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    n_test = int(round(test_fraction * n_rows))
    n_test = min(max(n_test, 1), n_rows - 1)
    draw = seeded.words((0, seed), n_rows)
    cut = np.partition(draw, n_test - 1)[n_test - 1]
    test = draw < cut
    test[np.flatnonzero(draw == cut)[: n_test - np.count_nonzero(test)]] = True
    return np.flatnonzero(~test), np.flatnonzero(test)


def split(matrix: DesignMatrix, test_fraction: float, seed: int) -> SplitPair:
    """split_rows of a matrix, each half taken out of it (see DesignMatrix.take)."""
    train, test = split_rows(matrix.n_rows, test_fraction, seed)
    return SplitPair(train=matrix.take(train), test=matrix.take(test))


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
