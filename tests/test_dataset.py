import csv
import io
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_table
from creditworks import (
    ColumnSpec,
    DesignMatrix,
    class_balance,
    default_column_specs,
    drop_columns,
    encode,
    filter_terminal,
    handle_missing,
    load_csv,
    split,
)
from creditworks import dataset
from creditworks.dataset import (
    STATUS_MAP,
    EncodeReport,
    load_column_specs,
    validate_schema,
)
from creditworks.errors import (
    DataError,
    EmptyDatasetError,
    ParseError,
    SchemaError,
    UnresolvableColumnError,
)

THREE_COL = [
    ColumnSpec("loan_amnt", "numeric"),
    ColumnSpec("purpose", "categorical"),
    ColumnSpec("loan_status", "text", "target"),
]


def _csv(text):
    return io.StringIO(text)


def test_load_csv_parses_three_rows():
    table = load_csv(_csv(
        "loan_amnt,purpose,loan_status\n"
        "1000,car,Fully Paid\n"
        "2000,house,Charged Off\n"
        "1500,car,Current\n"
    ), THREE_COL)
    assert table.row_count == 3
    assert table.column("loan_amnt") == [1000.0, 2000.0, 1500.0]
    assert table.column("purpose") == ["car", "house", "car"]


def test_load_csv_header_only():
    table = load_csv(_csv("loan_amnt,purpose,loan_status\n"), THREE_COL)
    assert table.row_count == 0


def test_load_csv_unparseable_numeric_becomes_missing():
    table = load_csv(_csv(
        'loan_amnt,purpose,loan_status\n"12,5x",car,Fully Paid\n'
    ), THREE_COL)
    assert table.row_count == 1
    assert table.column("loan_amnt") == [None]


def test_load_csv_percent_suffix_and_blank():
    specs = [ColumnSpec("int_rate", "numeric"), ColumnSpec("loan_status", "text", "target")]
    table = load_csv(_csv("int_rate,loan_status\n13.56%,Fully Paid\n,Fully Paid\n"), specs)
    assert table.column("int_rate") == [13.56, None]


def test_load_csv_header_mismatch():
    with pytest.raises(SchemaError):
        load_csv(_csv("loan_amnt,loan_status\n1,Fully Paid\n"), THREE_COL)
    with pytest.raises(SchemaError):
        load_csv(_csv("loan_amnt,purpose,loan_status,extra\n1,car,Fully Paid,x\n"), THREE_COL)


def test_load_csv_allow_extra_appends_drop_column():
    table = load_csv(
        _csv("loan_amnt,purpose,loan_status,extra\n1,car,Fully Paid,x\n"),
        THREE_COL,
        allow_extra=True,
    )
    assert table.names == ("loan_amnt", "purpose", "loan_status")
    assert table.column("purpose") == ["car"]


def test_load_csv_ragged_row_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        load_csv(_csv(
            "loan_amnt,purpose,loan_status\n1,car,Fully Paid\n2,house\n"
        ), THREE_COL)


def test_load_csv_duplicate_header():
    with pytest.raises(SchemaError):
        load_csv(_csv("loan_amnt,loan_amnt,purpose,loan_status\n1,2,car,x\n"), THREE_COL)


def test_load_csv_allow_extra_ignores_duplicate_names_outside_the_spec():
    # Trailing commas, as some CSV exports write them: two blank names.
    text = "loan_amnt,purpose,loan_status,,\n1,car,Fully Paid,,\n"
    table = load_csv(_csv(text), THREE_COL, allow_extra=True)
    assert table.names == ("loan_amnt", "purpose", "loan_status")
    assert table.column("purpose") == ["car"]
    with pytest.raises(SchemaError, match="absent from spec"):
        load_csv(_csv(text), THREE_COL)
    with pytest.raises(SchemaError, match="duplicate header columns: \\['purpose'\\]"):
        load_csv(_csv("loan_amnt,purpose,purpose,loan_status\n1,car,car,x\n"), THREE_COL,
                 allow_extra=True)


def test_validate_schema_needs_one_target():
    with pytest.raises(SchemaError):
        validate_schema([ColumnSpec("a", "numeric")])
    with pytest.raises(SchemaError):
        validate_schema([
            ColumnSpec("a", "text", "target"),
            ColumnSpec("b", "text", "target"),
        ])
    with pytest.raises(SchemaError):
        validate_schema([ColumnSpec("a", "numeric"), ColumnSpec("a", "numeric")])


def test_default_specs_cover_modeling_columns():
    names = {s.name for s in default_column_specs()}
    for required in ("int_rate", "dti", "annual_inc", "open_acc", "total_acc",
                     "sub_grade", "purpose", "loan_amnt", "term", "fico",
                     "loan_status", "recoveries"):
        assert required in names
    drops = tuple(s.name for s in default_column_specs() if s.role == "drop")
    assert drops == ("emp_title", "emp_length", "grade", "issue_d", "title")


def test_column_spec_rejects_unknown_kind_and_role():
    with pytest.raises(SchemaError):
        ColumnSpec("a", "blob")
    with pytest.raises(SchemaError):
        ColumnSpec("a", "numeric", "owner")


def test_load_column_specs_roundtrip(tmp_path):
    path = tmp_path / "cols.json"
    path.write_text(
        '[{"name": "x", "kind": "numeric"},'
        ' {"name": "loan_status", "kind": "text", "role": "target"}]'
    )
    specs = load_column_specs(path)
    assert [s.name for s in specs] == ["x", "loan_status"]
    assert specs[0].role == "feature"


def _status_table(statuses):
    return build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(float(i), s) for i, s in enumerate(statuses)],
    )


def test_filter_terminal_keeps_paid_and_charged_off():
    table = filter_terminal(_status_table(["Fully Paid", "Current", "Charged Off"]))
    assert table.row_count == 2
    assert table.column("loan_status") == ["Fully Paid", "Charged Off"]
    assert table.status_map == {"Fully Paid": 0, "Charged Off": 1}


def test_filter_terminal_all_current():
    with pytest.raises(EmptyDatasetError):
        filter_terminal(_status_table(["Current", "Current"]))
    # An empty status map maps no status; it does not fall back to STATUS_MAP.
    with pytest.raises(EmptyDatasetError, match=r"expected one of \[\]"):
        filter_terminal(_status_table(["Fully Paid", "Charged Off"]), {})


def test_filter_terminal_mixed_count_matches_hand_tally():
    statuses = ["Fully Paid", "Current", "Charged Off", "Late (31-120 days)",
                "Fully Paid", "In Grace Period", "Charged Off", "Fully Paid",
                "Default", "Current"]
    expected = sum(1 for s in statuses if s in ("Fully Paid", "Charged Off"))
    table = filter_terminal(_status_table(statuses))
    assert table.row_count == expected == 5


def test_labels_mark_missing_and_in_flight_statuses():
    table = _status_table(["Fully Paid", None, "Current", "Charged Off"])
    assert table.labels().tolist() == [0, -1, -1, 1]
    assert filter_terminal(table).column("loan_status") == ["Fully Paid", "Charged Off"]
    with pytest.raises(DataError, match="row 1 has non-terminal status None"):
        encode(table)
    custom = filter_terminal(table, {"Current": 1, "Fully Paid": 0})
    assert custom.labels().tolist() == [0, 1]


def test_distinct_gives_values_and_codes_for_every_kind():
    table = build_table(
        [("v", "numeric", "feature"), ("p", "text", "target")],
        [(2.5, "b"), (None, None), (-1.0, "a"), (2.5, "b")],
    )
    values, codes = table.distinct("v")
    assert values == [-1.0, 2.5]
    assert codes.tolist() == [1, -1, 0, 1]
    values, codes = table.distinct("p")
    assert values == ["a", "b"]
    assert codes.tolist() == [1, -1, 0, 1]


def test_filter_terminal_idempotent():
    once = filter_terminal(_status_table(["Fully Paid", "Current", "Charged Off"]))
    twice = filter_terminal(once)
    assert twice.rows == once.rows
    assert twice.status_map == once.status_map


SIX_COL = [
    ("loan_amnt", "numeric", "feature"),
    ("emp_title", "text", "drop"),
    ("grade", "categorical", "drop"),
    ("purpose", "categorical", "feature"),
    ("loan_status", "text", "target"),
    ("recoveries", "numeric", "exposure_aux"),
]


def test_drop_columns_named():
    table = build_table(SIX_COL, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    out = drop_columns(table, ["emp_title"])
    assert len(out.schema) == 5
    assert not out.has_column("emp_title")
    assert out.rows == ((1.0, "A", "car", "Fully Paid", 0.0),)


def test_drop_columns_default_uses_drop_roles():
    table = build_table(SIX_COL, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    out = drop_columns(table)
    assert out.names == ("loan_amnt", "purpose", "loan_status", "recoveries")


def test_drop_columns_empty_is_identity():
    table = build_table(SIX_COL, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    out = drop_columns(table, [])
    assert out.schema == table.schema
    assert out.rows == table.rows


def test_drop_columns_unknown_name():
    table = build_table(SIX_COL, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    with pytest.raises(SchemaError):
        drop_columns(table, ["nope"])


def test_drop_columns_cannot_remove_every_feature():
    table = build_table(SIX_COL, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    with pytest.raises(SchemaError):
        drop_columns(table, ["loan_amnt", "purpose"])


def test_handle_missing_drop_row():
    table = build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(1.0, "Fully Paid"), (None, "Fully Paid"), (3.0, "Charged Off")],
    )
    out = handle_missing(table, "drop_row")
    assert out.row_count == 2
    assert out.column("v") == [1.0, 3.0]


def test_handle_missing_fill_median():
    table = build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(1.0, "Fully Paid"), (None, "Fully Paid"), (3.0, "Charged Off")],
    )
    out = handle_missing(table, "fill_median_or_mode")
    assert out.column("v") == [1.0, 2.0, 3.0]


def test_handle_missing_fill_mode():
    table = build_table(
        [("p", "categorical", "feature"), ("loan_status", "text", "target")],
        [("a", "x"), ("a", "x"), ("b", "x"), (None, "x")],
    )
    out = handle_missing(table, "fill_median_or_mode")
    assert out.column("p") == ["a", "a", "b", "a"]


def test_handle_missing_mode_tie_breaks_lexicographically():
    table = build_table(
        [("p", "categorical", "feature"), ("loan_status", "text", "target")],
        [("b", "x"), ("a", "x"), (None, "x")],
    )
    out = handle_missing(table, "fill_median_or_mode")
    assert out.column("p")[2] == "a"


def test_handle_missing_entirely_missing_column():
    table = build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(None, "x"), (None, "x")],
    )
    with pytest.raises(UnresolvableColumnError):
        handle_missing(table, "fill_median_or_mode")


def test_handle_missing_rejects_unknown_policy():
    table = build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(1.0, "x")],
    )
    with pytest.raises(DataError):
        handle_missing(table, "wish_away")


def _encodable(rows, extra_cols=()):
    cols = [("amt", "numeric", "feature"), ("purpose", "categorical", "feature")]
    cols += list(extra_cols)
    cols.append(("loan_status", "text", "target"))
    return build_table(cols, rows, status_map={"Fully Paid": 0, "Charged Off": 1})


def test_encode_two_categories_one_dummy():
    table = _encodable([
        (1.0, "car", "Fully Paid"),
        (2.0, "house", "Charged Off"),
    ])
    matrix, rep = encode(table)
    assert matrix.columns == ("amt", "purpose=house")
    assert matrix.x[:, 1].tolist() == [0.0, 1.0]
    assert matrix.y.tolist() == [0, 1]
    assert rep.dummies["purpose"]["baseline"] == "car"


def test_encode_single_category_dropped_and_reported():
    table = _encodable([
        (1.0, "car", "Fully Paid"),
        (2.0, "car", "Charged Off"),
    ])
    matrix, rep = encode(table)
    assert matrix.columns == ("amt",)
    assert rep.dropped_constant == ("purpose",)


def test_encode_three_categories_hand_pattern():
    table = _encodable([
        (1.0, "car", "Fully Paid"),
        (2.0, "house", "Charged Off"),
        (3.0, "boat", "Fully Paid"),
        (4.0, "house", "Fully Paid"),
    ])
    matrix, _ = encode(table)
    assert matrix.columns == ("amt", "purpose=car", "purpose=house")
    assert matrix.x[:, 1].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert matrix.x[:, 2].tolist() == [0.0, 1.0, 0.0, 1.0]


def test_encode_dummy_row_sums_zero_or_one():
    rng = np.random.default_rng(3)
    levels = ["a", "b", "c", "d"]
    rows = [
        (float(i), levels[rng.integers(0, 4)], "Fully Paid" if i % 3 else "Charged Off")
        for i in range(40)
    ]
    matrix, rep = encode(_encodable(rows))
    dummy_idx = [matrix.columns.index(c) for c in rep.dummies["purpose"]["columns"]]
    sums = matrix.x[:, dummy_idx].sum(axis=1)
    assert set(sums.tolist()) <= {0.0, 1.0}


def test_encode_refuses_missing_cells():
    table = _encodable([(None, "car", "Fully Paid"), (1.0, "car", "Charged Off")])
    with pytest.raises(DataError):
        encode(table)


def test_encode_refuses_nonterminal_status():
    table = _encodable([(1.0, "car", "Current"), (2.0, "house", "Fully Paid")])
    with pytest.raises(DataError):
        encode(table)


def _matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x[:, 0] = np.arange(n)  # row numbers, so a split's membership can be read back
    y = (rng.random(n) < 0.4).astype(np.int64)
    table_cols = tuple(f"c{i}" for i in range(3))
    from creditworks import DesignMatrix

    return DesignMatrix(columns=table_cols, x=x, y=y)


def _rows(part):
    return part.x[:, 0].astype(int).tolist()


def test_split_sizes_and_repeatability():
    matrix = _matrix(10)
    pair = split(matrix, 0.2, seed=7)
    again = split(matrix, 0.2, seed=7)
    assert (pair.train.n_rows, pair.test.n_rows) == (8, 2)
    assert _rows(pair.test) == _rows(again.test)
    assert _rows(pair.train) == _rows(again.train)


def test_split_two_rows_half():
    pair = split(_matrix(2), 0.5, seed=0)
    assert (pair.train.n_rows, pair.test.n_rows) == (1, 1)


def test_split_is_a_partition():
    matrix = _matrix(57)
    pair = split(matrix, 0.3, seed=13)
    merged = sorted(_rows(pair.train) + _rows(pair.test))
    assert merged == list(range(57))


def test_split_seeds_differ():
    matrix = _matrix(100)
    a = split(matrix, 0.2, seed=1)
    b = split(matrix, 0.2, seed=2)
    assert a.test.n_rows == b.test.n_rows == 20
    assert set(_rows(a.test)) != set(_rows(b.test))


@pytest.mark.parametrize("n, fraction, seed", [(2, 0.5, 0), (10, 0.2, 7), (57, 0.3, 13), (1000, 0.25, 11)])
def test_split_rows_gives_the_membership_of_split(n, fraction, seed):
    train, test = dataset.split_rows(n, fraction, seed)
    pair = split(_matrix(n), fraction, seed)
    assert train.tolist() == _rows(pair.train)
    assert test.tolist() == _rows(pair.test)


def _assert_rows_encode(table, rows):
    """encode of the rows alone is the whole table's encoding at those rows."""
    whole, whole_report = encode(table)
    part, report = encode(table, rows)
    assert part.columns == whole.columns and report == whole_report
    assert part.x.shape == (len(rows), whole.n_cols)
    assert part.x.tobytes() == whole.x[rows].tobytes()
    assert part.y.tobytes() == whole.y[rows].tobytes()
    return part


def test_encode_of_rows_equals_the_rows_of_encode():
    rng = random.Random(4)
    levels = ["car", "house", "boat", "medical", "wedding"]
    rows = [
        (rng.uniform(0, 1e5), rng.choice(levels), rng.choice("ABC"), rng.choice(["Fully Paid", "Charged Off"]))
        for _ in range(300)
    ]
    table = _encodable(rows, extra_cols=[("grade", "categorical", "feature")])
    train, test = dataset.split_rows(table.row_count, 0.25, 3)
    for subset in (train, test, np.arange(table.row_count)[::-1], np.array([7])):
        _assert_rows_encode(table, subset)


def test_encode_of_rows_that_lack_a_level_keeps_its_column():
    table = _encodable([
        (1.0, "car", "Fully Paid"),
        (2.0, "house", "Charged Off"),
        (3.0, "boat", "Fully Paid"),
        (4.0, "car", "Charged Off"),
    ])
    part = _assert_rows_encode(table, np.array([3, 2]))
    assert part.columns == ("amt", "purpose=car", "purpose=house")
    assert part.x[:, 2].tolist() == [0.0, 0.0]  # no house among the rows


@pytest.mark.parametrize("features", [[], [("grade", "categorical", "feature")]])
def test_encode_of_rows_without_feature_columns(features):
    # No feature columns at all, or only a constant one that encode drops.
    cols = features + [("loan_status", "text", "target")]
    cells = [("A",) * bool(features) + (s,) for s in ["Fully Paid", "Charged Off", "Fully Paid"]]
    table = build_table(cols, cells)
    part = _assert_rows_encode(table, np.array([2, 0]))
    assert part.x.shape == (2, 0) and part.y.tolist() == [0, 0]


@pytest.mark.parametrize("y", [[0.5, 1.0], [0, 2]])
def test_design_matrix_checks_label_values_before_the_cast(y):
    # Cast first, 0.5 would pass as the label 0.
    with pytest.raises(DataError, match="binary"):
        DesignMatrix(columns=("a",), x=np.zeros((2, 1)), y=np.array(y))


def test_split_validates_inputs():
    with pytest.raises(DataError):
        split(_matrix(10), 0.0, seed=1)
    with pytest.raises(DataError):
        split(_matrix(10), 1.0, seed=1)
    with pytest.raises(DataError):
        split(_matrix(1), 0.5, seed=1)


def test_class_balance_simple():
    assert class_balance([0, 0, 0, 1]) == (3, 1, 0.75, 0.25)


def test_class_balance_degenerate():
    n, n1, w0, w1 = class_balance(np.zeros(8, dtype=int))
    assert (n, n1, w0, w1) == (8, 0, 1.0, 0.0)


def test_class_balance_matches_brute_count():
    rng = np.random.default_rng(10)
    y = (rng.random(1000) < 0.23).astype(np.int64)
    ones = sum(int(v) for v in y)
    count0, count1, w0, w1 = class_balance(y)
    assert (count0, count1) == (1000 - ones, ones)
    assert abs(w0 + w1 - 1.0) < 1e-12


def test_class_balance_empty():
    with pytest.raises(DataError):
        class_balance([])


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", " Infinity ", "1e999", "nan%"])
def test_load_csv_rejects_non_finite_numeric_text(text):
    with pytest.raises(ParseError, match=r"'loan_amnt'.*line 3"):
        load_csv(_csv(
            f'loan_amnt,purpose,loan_status\n1,car,Fully Paid\n"{text}",car,Fully Paid\n'
        ), THREE_COL)


def test_load_csv_non_finite_line_counts_quoted_newlines(monkeypatch):
    monkeypatch.setattr(dataset, "BLOCK_ROWS", 2)
    with pytest.raises(ParseError, match="line 5"):
        load_csv(_csv(
            'loan_amnt,purpose,loan_status\n1,"two\nlines",Fully Paid\n'
            '2,car,Fully Paid\ninf,car,Fully Paid\n'
        ), THREE_COL)


def _non_utf8_book():
    """A valid UTF-8 book with a 2-byte character across offset 65536,
    then one stray 0xe9 byte; returns the bytes and that byte's offset."""
    head = b"loan_amnt,purpose,loan_status\n"
    row = "1,café,Fully Paid\n".encode()
    data = head + row * ((65500 - len(head)) // len(row))
    data += b"1," + b"x" * (65530 - len(data) - 14) + b",Fully Paid\n"
    data += row * 50
    assert data[65535:65537] == "é".encode()
    offset = len(data) + len(b"1,caf")
    return data + b"1,caf\xe9,Fully Paid\n" + row, offset


def test_load_csv_non_utf8_reports_byte_offset(tmp_path):
    data, offset = _non_utf8_book()
    assert 65536 < offset
    path = tmp_path / "book.csv"
    path.write_bytes(data)
    for source in (path, str(path), data, io.BytesIO(data)):
        with pytest.raises(ParseError, match=f"not UTF-8.*offset {offset}$"):
            load_csv(source, THREE_COL)
    good = data[:offset] + b"e" + data[offset + 1:]
    assert load_csv(good, THREE_COL).row_count == good.count(b"\n") - 1


def test_load_csv_truncated_utf8_at_end_of_file():
    data = "loan_amnt,purpose,loan_status\n1,car,café".encode()[:-1]
    with pytest.raises(ParseError, match=f"offset {len(data) - 1}$"):
        load_csv(data, THREE_COL)


def test_load_csv_leaves_a_binary_stream_open():
    stream = io.BytesIO(b"loan_amnt,purpose,loan_status\n1,car,Fully Paid\n")
    load_csv(stream, THREE_COL)
    assert not stream.closed


# --- Reference oracle -----------------------------------------------------
# The row-tuple pipeline the columnar table replaced, kept as the reference:
# every cell a Python float, str or None, every step a loop over row tuples.


def _ref_parse_cell(text, kind):
    value = text.strip()
    if value == "":
        return None
    if kind == "numeric":
        candidate = value[:-1].strip() if value.endswith("%") else value
        try:
            return float(candidate)
        except ValueError:
            return None
    return value


def _ref_load(text, specs):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    names = {s.name for s in specs}
    schema = tuple(specs) + tuple(ColumnSpec(h, "text", "drop") for h in header if h not in names)
    positions = [header.index(s.name) for s in schema]
    rows = [tuple(_ref_parse_cell(r[p], s.kind) for p, s in zip(positions, schema)) for r in reader]
    return schema, rows


def _ref_filter_terminal(schema, rows, mapping):
    j = [s.role for s in schema].index("target")
    return [row for row in rows if row[j] in mapping]


def _ref_drop_columns(schema, rows):
    keep = [i for i, s in enumerate(schema) if s.role != "drop"]
    return tuple(schema[i] for i in keep), [tuple(row[i] for i in keep) for row in rows]


def _ref_handle_missing(schema, rows, policy):
    if policy == "drop_row":
        return [row for row in rows if all(c is not None for c in row)]
    fills = {}
    for j, spec in enumerate(schema):
        cells = [row[j] for row in rows]
        if any(c is None for c in cells):
            observed = [c for c in cells if c is not None]
            if spec.kind == "numeric":
                fills[j] = statistics.median(observed)
            else:
                counts = Counter(observed)
                top = max(counts.values())
                fills[j] = min(v for v, c in counts.items() if c == top)
    return [tuple(fills[j] if c is None else c for j, c in enumerate(row)) for row in rows]


def _ref_encode(schema, rows, mapping):
    j_target = [s.role for s in schema].index("target")
    y = [mapping[row[j_target]] for row in rows]
    arrays, names, dropped, dummies, numeric = [], [], [], {}, []
    for j, spec in enumerate(schema):
        if spec.role != "feature":
            continue
        cells = [row[j] for row in rows]
        if spec.kind == "numeric":
            arrays.append(np.asarray(cells, dtype=np.float64))
            names.append(spec.name)
            numeric.append(spec.name)
            continue
        levels = sorted(set(cells))
        if len(levels) < 2:
            dropped.append(spec.name)
            continue
        cols = [f"{spec.name}={v}" for v in levels[1:]]
        dummies[spec.name] = {"baseline": levels[0], "columns": tuple(cols)}
        for v, name in zip(levels[1:], cols):
            arrays.append(np.asarray([1.0 if c == v else 0.0 for c in cells]))
            names.append(name)
    x = np.column_stack(arrays) if arrays else np.zeros((len(rows), 0))
    matrix = DesignMatrix(columns=tuple(names), x=x, y=np.asarray(y, dtype=np.int64))
    return matrix, EncodeReport(tuple(dropped), dummies, tuple(numeric))


def _assert_views_match(table, schema, rows):
    assert table.schema == schema
    assert table.row_count == len(rows)
    assert table.rows == tuple(rows)
    for j, spec in enumerate(schema):
        assert table.column(spec.name) == [row[j] for row in rows]


def _assert_matches_reference(text, specs, status_map=None, policy="fill_median_or_mode"):
    """Run the columnar and the reference chain on one CSV text; every stage
    must agree on the spec's columns (load_csv keeps no other)."""
    mapping = dict(status_map or STATUS_MAP)
    schema, rows = _ref_load(text, specs)
    schema, rows = schema[: len(specs)], [row[: len(specs)] for row in rows]
    raw = load_csv(_csv(text), specs, allow_extra=True)
    _assert_views_match(raw, schema, rows)

    rows = _ref_filter_terminal(schema, rows, mapping)
    terminal = filter_terminal(raw, status_map)
    _assert_views_match(terminal, schema, rows)

    schema, rows = _ref_drop_columns(schema, rows)
    dropped = drop_columns(terminal)
    _assert_views_match(dropped, schema, rows)

    rows = _ref_handle_missing(schema, rows, policy)
    cleaned = handle_missing(dropped, policy)
    _assert_views_match(cleaned, schema, rows)

    want, want_report = _ref_encode(schema, rows, mapping)
    matrix, report = encode(cleaned)
    assert matrix.columns == want.columns
    assert matrix.x.shape == want.x.shape and matrix.x.tobytes() == want.x.tobytes()
    assert matrix.y.tobytes() == want.y.tobytes()
    assert report == want_report
    return matrix, report


BOOK_SPECS = [
    ColumnSpec("loan_amnt", "numeric"),
    ColumnSpec("term", "categorical"),
    ColumnSpec("int_rate", "numeric"),
    ColumnSpec("emp_title", "text", "drop"),
    ColumnSpec("annual_inc", "numeric"),
    ColumnSpec("purpose", "categorical"),
    ColumnSpec("policy_code", "categorical"),
    ColumnSpec("issue_d", "date", "feature"),
    ColumnSpec("loan_status", "text", "target"),
    ColumnSpec("recoveries", "numeric", "exposure_aux"),
]
BOOK_STATUSES = ["Fully Paid"] * 6 + ["Charged Off"] * 3 + ["Current", "Late (31-120 days)", "Default"]


def _book_text(n=300, seed=0):
    """A loan book in the benchmark generator's style: missing and unparseable
    cells, rates with and without "%", in-flight statuses, a quoted comma, a
    constant column (policy_code) and a column outside the spec (member_id)."""
    rng = random.Random(seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([s.name for s in BOOK_SPECS] + ["member_id"])

    def gap(cell, p=0.08):
        return rng.choice(["", " ", "n/a"]) if rng.random() < p else cell

    for i in range(n):
        rate = round(rng.uniform(5, 26), 2)
        writer.writerow([
            gap(str(rng.choice([4000, 8000, 12000, 20025]))),
            rng.choice([" 36 months", " 60 months", "36 months "]),
            gap(rng.choice([f"{rate}%", f"{rate}", f" {rate} % "])),
            gap(rng.choice(["eng", "Smith, Jones & Co", "nurse"]), 0.2),
            gap(f"{rng.randint(20, 300) * 500 + rng.random():.2f}"),
            gap(rng.choice(["car", "credit_card", "house", "small_business"]), 0.05),
            "1",
            rng.choice(["Jan-2018", "Feb-2018", "Mar-2018"]),
            rng.choice(BOOK_STATUSES),
            f"{rng.uniform(0, 500):.2f}",
            str(100000 + i),
        ])
    return buf.getvalue()


@pytest.mark.parametrize("block_rows", [7, 64, dataset.BLOCK_ROWS])
def test_columnar_chain_matches_reference_on_a_book(monkeypatch, block_rows):
    monkeypatch.setattr(dataset, "BLOCK_ROWS", block_rows)
    matrix, report = _assert_matches_reference(_book_text(), BOOK_SPECS)
    assert report.dropped_constant == ("policy_code",)
    assert "issue_d=Mar-2018" in matrix.columns


def test_columnar_chain_matches_reference_drop_row_and_status_map(monkeypatch):
    monkeypatch.setattr(dataset, "BLOCK_ROWS", 16)
    status_map = {"Fully Paid": 0, "Charged Off": 1, "Default": 1, "Late (31-120 days)": 1}
    _assert_matches_reference(_book_text(200, seed=1), BOOK_SPECS, status_map, "drop_row")
    _assert_matches_reference(_book_text(200, seed=2), BOOK_SPECS, status_map)


def test_columnar_chain_matches_reference_even_median_and_mode_tie():
    text = (
        "loan_amnt,purpose,loan_status\n"
        "0.1,b,Fully Paid\n"
        ",a,Charged Off\n"
        "0.2,,Fully Paid\n"
        "0.7,a,Current\n"
        "0.9,wedding,Late (31-120 days)\n"
        "0.3,b,Charged Off\n"
        "0.05,,Fully Paid\n"
    )
    # Terminal rows observe loan_amnt 0.1, 0.2, 0.3, 0.05: the median is the
    # mean of the middle two. purpose's mode is b among the terminal rows;
    # with the in-flight rows counted, a would win the tie. wedding occurs
    # only in flight, so it is no level of the filtered table.
    matrix, _ = _assert_matches_reference(text, THREE_COL)
    assert matrix.columns == ("loan_amnt", "purpose=b")
    assert matrix.x[1, 0] == (0.1 + 0.2) / 2
    assert matrix.x[[2, 4], 1].tolist() == [1.0, 1.0]  # the two filled cells
    tie = "loan_amnt,purpose,loan_status\n1,b,Fully Paid\n2,a,Charged Off\n3,,Fully Paid\n"
    matrix, _ = _assert_matches_reference(tie, THREE_COL)
    assert matrix.columns == ("loan_amnt", "purpose=b") and matrix.x[2, 1] == 0.0


def test_columnar_header_only_gives_empty_columns():
    text = "loan_amnt,purpose,loan_status\n"
    schema, rows = _ref_load(text, THREE_COL)
    table = load_csv(_csv(text), THREE_COL)
    _assert_views_match(table, schema, rows)
    amounts, purposes, statuses = table.columns
    assert amounts.dtype == np.float64 and amounts.shape == (0,)
    assert purposes.levels == () and len(purposes) == 0 and len(statuses) == 0
    with pytest.raises(EmptyDatasetError):
        filter_terminal(table)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        # A few values drawn over and over (ties), or any finite float.
        st.one_of(st.sampled_from([-1.5, 0.0, 2.0, 7.25]), st.floats(allow_nan=False, allow_infinity=False, width=64)),
        min_size=1,
        max_size=40,
    )
)
def test_median_has_the_bits_of_np_median(values):
    values = np.array(values)
    for part in (values, values[:-1]) if values.size > 1 else (values,):
        # Both sizes, odd and even, from each draw.
        got, want = dataset._median(part.copy()), np.median(part)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (part, got, want)


def test_fill_imports_no_masked_arrays():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from creditworks import dataset\n"
        "dataset._median(np.array([3.0, 1.0, 2.0, 2.0]))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(dataset.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
