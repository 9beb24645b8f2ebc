import csv
import io
import itertools
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LOAN_HEADER, build_table, clean_tables, make_loan_rows, write_loans_csv
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
from creditworks.seeded import words

THREE_COL = [
    ColumnSpec("loan_amnt", "numeric"),
    ColumnSpec("purpose", "categorical"),
    ColumnSpec("loan_status", "text", "target"),
]


def _csv(text):
    return text.encode()


def _column(table, name):
    """A column's cells as Python objects, None where missing."""
    return dataset._cells(table.columns[table.index_of(name)])


def test_load_csv_parses_three_rows():
    table = load_csv(_csv(
        "loan_amnt,purpose,loan_status\n"
        "1000,car,Fully Paid\n"
        "2000,house,Charged Off\n"
        "1500,car,Current\n"
    ), THREE_COL)
    assert table.row_count == 3
    assert _column(table, "loan_amnt") == [1000.0, 2000.0, 1500.0]
    assert _column(table, "purpose") == ["car", "house", "car"]


def test_load_csv_header_only():
    table = load_csv(_csv("loan_amnt,purpose,loan_status\n"), THREE_COL)
    assert table.row_count == 0


def test_load_csv_unparseable_numeric_becomes_missing():
    table = load_csv(_csv(
        'loan_amnt,purpose,loan_status\n"12,5x",car,Fully Paid\n'
    ), THREE_COL)
    assert table.row_count == 1
    assert _column(table, "loan_amnt") == [None]


def test_load_csv_percent_suffix_and_blank():
    specs = [ColumnSpec("int_rate", "numeric"), ColumnSpec("loan_status", "text", "target")]
    table = load_csv(_csv("int_rate,loan_status\n13.56%,Fully Paid\n,Fully Paid\n"), specs)
    assert _column(table, "int_rate") == [13.56, None]


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
    assert _column(table, "purpose") == ["car"]


def test_load_csv_ragged_row_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        load_csv(_csv(
            "loan_amnt,purpose,loan_status\n1,car,Fully Paid\n2,house\n"
        ), THREE_COL)


def test_load_csv_duplicate_header():
    with pytest.raises(SchemaError):
        load_csv(_csv("loan_amnt,loan_amnt,purpose,loan_status\n1,2,car,x\n"), THREE_COL)


def test_load_csv_malformed_header_is_reported_at_line_1():
    # The header spans two lines, and csv.reader fails on the second.
    big = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(ParseError, match="^malformed CSV at line 1: field larger than field limit"):
        load_csv(_csv(f'loan_amnt,"purpose\n{big}",loan_status\n1,car,Fully Paid\n'), THREE_COL)


def test_load_csv_allow_extra_ignores_duplicate_names_outside_the_spec():
    # Trailing commas, as some CSV exports write them: two blank names.
    text = "loan_amnt,purpose,loan_status,,\n1,car,Fully Paid,,\n"
    table = load_csv(_csv(text), THREE_COL, allow_extra=True)
    assert table.names == ("loan_amnt", "purpose", "loan_status")
    assert _column(table, "purpose") == ["car"]
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
    assert _column(table, "loan_status") == ["Fully Paid", "Charged Off"]
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
    assert _column(filter_terminal(table), "loan_status") == ["Fully Paid", "Charged Off"]
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


def test_drop_columns_default_uses_drop_roles():
    table = build_table(SIX_COL, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    out = drop_columns(table)
    assert out.names == ("loan_amnt", "purpose", "loan_status", "recoveries")


def test_drop_columns_empty_is_identity():
    # No column has role drop: nothing goes.
    cols = [c for c in SIX_COL if c[2] != "drop"]
    table = build_table(cols, [(1.0, "car", "Fully Paid", 0.0)])
    out = drop_columns(table)
    assert out.schema == table.schema
    assert out.rows == table.rows


def test_drop_columns_cannot_remove_every_feature():
    # A column spec whose only feature has role drop.
    cols = [(name, kind, "drop" if role == "feature" else role) for name, kind, role in SIX_COL]
    table = build_table(cols, [(1.0, "eng", "A", "car", "Fully Paid", 0.0)])
    with pytest.raises(SchemaError, match="no feature columns"):
        drop_columns(table)


def test_handle_missing_drop_row():
    table = build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(1.0, "Fully Paid"), (None, "Fully Paid"), (3.0, "Charged Off")],
    )
    out = handle_missing(table, "drop_row")
    assert out.row_count == 2
    assert _column(out, "v") == [1.0, 3.0]


def test_handle_missing_fill_median():
    table = build_table(
        [("v", "numeric", "feature"), ("loan_status", "text", "target")],
        [(1.0, "Fully Paid"), (None, "Fully Paid"), (3.0, "Charged Off")],
    )
    out = handle_missing(table, "fill_median_or_mode")
    assert _column(out, "v") == [1.0, 2.0, 3.0]


def test_handle_missing_fill_mode():
    table = build_table(
        [("p", "categorical", "feature"), ("loan_status", "text", "target")],
        [("a", "x"), ("a", "x"), ("b", "x"), (None, "x")],
    )
    out = handle_missing(table, "fill_median_or_mode")
    assert _column(out, "p") == ["a", "a", "b", "a"]


def test_handle_missing_mode_tie_breaks_lexicographically():
    table = build_table(
        [("p", "categorical", "feature"), ("loan_status", "text", "target")],
        [("b", "x"), ("a", "x"), (None, "x")],
    )
    out = handle_missing(table, "fill_median_or_mode")
    assert _column(out, "p")[2] == "a"


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
    """The matrix of the rows alone, taken as the CLI takes a half of the
    split, has the whole table's columns and the reference matrix's rows."""
    whole = encode(table)[0]
    part = whole.take(rows)
    assert part.columns == whole.columns
    assert part.x.shape == (len(rows), whole.n_cols)
    assert part.x.tobytes() == _dense_reference(table)[rows].tobytes()
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


def _dense_reference(table, rows=None):
    """The dense matrix that encode filled before the design matrix held
    the table's columns: each numeric feature, then each dummy block by one
    comparison per level, into one array."""
    rows = slice(None) if rows is None else rows
    blocks = []
    for spec, column in zip(table.schema, table.columns):
        if spec.role != "feature":
            continue
        if not isinstance(column, dataset.Categorical):
            blocks.append(column[rows, None])
        elif len(column.levels) > 1:
            blocks.append(column.codes[rows, None] == np.arange(1, len(column.levels)))
    x = np.empty((len(table.labels()[rows]), sum(b.shape[1] for b in blocks)))
    j = 0
    for block in blocks:
        x[:, j : j + block.shape[1]] = block
        j += block.shape[1]
    return x


def _assert_view_rows(table, rows, rng):
    """encode's view builds the reference matrix's rows, whole, by blocks
    and over random ranges, unscaled, scaled, and scaled twice."""
    matrix = encode(table)[0]
    matrix = matrix if rows is None else matrix.take(rows)
    want = _dense_reference(table, rows)
    assert matrix.shape == want.shape
    assert matrix.x.tobytes() == want.tobytes()
    assert b"".join(block.tobytes() for _, block in dataset.row_blocks(matrix)) == want.tobytes()
    m1, s1 = rng.normal(size=want.shape[1]), rng.uniform(1.0, 2.0, want.shape[1])
    m2, s2 = rng.normal(size=want.shape[1]), rng.uniform(1.0, 2.0, want.shape[1])
    scaled = matrix.standardized(m1, s1)
    twice = scaled.standardized(m2, s2)  # rebuilt from the scaled rows
    out = np.full((want.shape[0] + 3, want.shape[1]), np.nan)
    for _ in range(5):
        start, stop = sorted(rng.integers(0, want.shape[0] + 1, size=2).tolist())
        x = want[start:stop]
        assert matrix.dense(start, stop).tobytes() == x.tobytes()
        assert matrix.dense(start, stop, out).tobytes() == x.tobytes()
        assert scaled.dense(start, stop, out).tobytes() == ((x - m1) / s1).tobytes()
        assert twice.dense(start, stop, out).tobytes() == (((x - m1) / s1 - m2) / s2).tobytes()


@pytest.mark.parametrize("block", [None, 7])
def test_view_rows_equal_the_dense_matrix_of_the_conftest_book(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(dataset, "block_rows", lambda n_cols: block)
    path = write_loans_csv(tmp_path / "loans.csv")
    table = handle_missing(drop_columns(filter_terminal(load_csv(path, default_column_specs()))))
    train, test = dataset.split_rows(table.row_count, 0.25, 11)
    rng = np.random.default_rng(0)
    for rows in (None, train, test, np.array([5])):
        _assert_view_rows(table, rows, rng)


@settings(max_examples=200, deadline=None)
@given(data=clean_tables(), block=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_view_rows_equal_the_dense_matrix_of_any_table(data, block, seed):
    # Constant columns, columns in any order, and subsets that lack levels.
    table, rows = data
    rng = np.random.default_rng(seed)
    with mock.patch.object(dataset, "block_rows", lambda n_cols: block):
        for subset in (None, rows):
            _assert_view_rows(table, subset, rng)


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
    with pytest.raises(DataError, match="seed must be a non-negative integer, got -1"):
        split(_matrix(10), 0.5, seed=-1)


def test_splitmix64_known_answers():
    # SplitMix64's first three outputs from state 0 (the empty key).
    assert words((), 3).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_words_of_array_keys_equal_those_of_int_keys():
    keys = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
    block = words((3, keys), 4)
    assert block.shape == (3, 4) and block.dtype == np.uint64
    for key, row in zip(keys.tolist(), block):
        assert np.array_equal(row, words((3, key), 4))
    # A wide int is folded as its 64-bit limbs, lowest first.
    assert np.array_equal(words((2**70 + 9,), 3), words((9, 64), 3))
    with pytest.raises(ValueError, match="negative"):
        words((-1,), 3)


@pytest.mark.parametrize("n, fraction", [(2, 0.5), (3, 0.01), (3, 0.99), (10, 0.25), (57, 0.3), (1000, 0.25)])
@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**70])
def test_split_rows_gives_disjoint_ascending_halves_of_every_row(n, fraction, seed):
    train, test = dataset.split_rows(n, fraction, seed)
    assert test.size == min(max(int(round(fraction * n)), 1), n - 1)
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
    # The test rows hold the smallest words of the stream.
    draw = words((0, seed), n)
    assert draw[test].max() <= draw[train].min()


def test_split_rows_breaks_ties_of_words_toward_the_lower_row(monkeypatch):
    draw = np.array([5, 3, 3, 9, 1, 3], dtype=np.uint64)
    monkeypatch.setattr(dataset.seeded, "words", lambda key, n: draw.copy())
    train, test = dataset.split_rows(6, 0.5, 0)
    assert (train.tolist(), test.tolist()) == ([0, 3, 5], [1, 2, 4])


def test_split_rows_puts_each_row_in_the_test_half_equally_often():
    n, seeds = 20, 4000
    counts = np.zeros(n)
    for seed in range(seeds):
        counts[dataset.split_rows(n, 0.25, seed)[1]] += 1
    # Chi-square, 19 degrees of freedom: p = 1e-6 at 62.
    expected = seeds * 5 / n
    assert ((counts - expected) ** 2 / expected).sum() < 62, counts


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
    monkeypatch.setattr(dataset, "CHUNK_BYTES", 8)
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
        assert _column(table, spec.name) == [row[j] for row in rows]


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


@pytest.mark.parametrize("chunk_bytes", [7, 64, 256, dataset.CHUNK_BYTES])
def test_columnar_chain_matches_reference_on_a_book(monkeypatch, chunk_bytes):
    monkeypatch.setattr(dataset, "CHUNK_BYTES", chunk_bytes)
    matrix, report = _assert_matches_reference(_book_text(), BOOK_SPECS)
    assert report.dropped_constant == ("policy_code",)
    assert "issue_d=Mar-2018" in matrix.columns


def test_columnar_chain_matches_reference_drop_row_and_status_map(monkeypatch):
    monkeypatch.setattr(dataset, "CHUNK_BYTES", 1000)
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


# --- Chunked ingest against a record-by-record oracle ----------------------

INGEST_SPECS = [
    ColumnSpec("loan_amnt", "numeric"),
    ColumnSpec("purpose", "categorical"),
    ColumnSpec("emp_title", "text", "drop"),
    ColumnSpec("int_rate", "numeric", "drop"),
    ColumnSpec("loan_status", "text", "target"),
]
# member_id is outside the spec, read with allow_extra.
INGEST_HEADER = "loan_amnt,purpose,member_id,emp_title,int_rate,loan_status"


def _ref_outcome(data: bytes, specs, skip_dropped=False):
    """What load_csv must make of CSV bytes with at most one fault, read the
    way the record-by-record parser read them: the whole text decoded, then
    csv.reader one record at a time. ("ok", schema, rows), or the exception
    type and message."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError, f"CSV is not UTF-8: invalid byte at offset {exc.start}"
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        return ParseError, "CSV has no header row"
    missing = [s.name for s in specs if s.name not in header]
    if missing:
        return SchemaError, f"spec columns absent from header: {missing}"
    kept = tuple(s for s in specs if not (skip_dropped and s.role == "drop" and s.kind != "numeric"))
    rows = []
    try:
        for record in reader:
            line = reader.line_num
            if len(record) != len(header):
                return ParseError, (
                    f"malformed CSV at line {line}: expected {len(header)} fields, got {len(record)}"
                )
            row = tuple(_ref_parse_cell(record[header.index(s.name)], s.kind) for s in kept)
            for spec, cell in zip(kept, row):
                if isinstance(cell, float) and not np.isfinite(cell):
                    text = record[header.index(spec.name)].strip()
                    return ParseError, (
                        f"numeric column {spec.name!r} holds the non-finite value {text!r} at line {line}"
                    )
            rows.append(row)
    except csv.Error as exc:
        return ParseError, f"malformed CSV at line {reader.line_num}: {exc}"
    return "ok", kept, rows


def _assert_loads_as_oracle(source, want, skip_dropped=False):
    if want[0] == "ok":
        table = load_csv(source, INGEST_SPECS, allow_extra=True, skip_dropped=skip_dropped)
        _assert_views_match(table, want[1], want[2])
        return
    with pytest.raises(want[0]) as info:
        load_csv(source, INGEST_SPECS, allow_extra=True, skip_dropped=skip_dropped)
    assert str(info.value) == want[1]


_NUMBERS = st.sampled_from([
    "1000", " 12.5 ", "13.56%", " 7 % ", "7% ", "%", "5%%", "", " ", "\xa0", "n/a", "12,5x",
    "1_000", "１２", "\xa012\xa0", "-0", "1e5", ".5", "two\nlines",
]) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
_TEXTS = st.sampled_from([
    "car", " car ", "", "  ", "Nurse, RN", 'say "hi"', '""', "two\nlines", "cr\r\nlf",
    "bare\rcr", "nul\x00", "caf\xe9", "\xa0", "x",
])
_STATUSES = st.sampled_from(["Fully Paid", "Charged Off", "Current", " Fully Paid ", "", "in\nflight"])
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", " Infinity ", "1e999", "nan%"])
_FAULTS = [None, "ragged", "blank", "non_finite", "bad_utf8", "open_quote", "bom"]


@st.composite
def _books(draw):
    """CSV bytes in the ingest layout with quoted commas, doubled quotes,
    quoted line ends, CRLF and bare-CR line ends, NUL, "%", blank and
    whitespace-only cells, and at most one fault."""
    cells = st.tuples(_NUMBERS, _TEXTS, st.integers(0, 99).map(str), _TEXTS, _NUMBERS, _STATUSES)
    rows = [list(row) for row in draw(st.lists(cells, max_size=8))]
    fault = draw(st.sampled_from(_FAULTS))
    if fault in ("ragged", "non_finite") and not rows:
        fault = None
    if fault == "ragged":
        row = draw(st.sampled_from(rows))
        row.append("x") if draw(st.booleans()) else row.pop()
    elif fault == "non_finite":
        draw(st.sampled_from(rows))[draw(st.sampled_from([0, 4]))] = draw(_NON_FINITE)

    def field(cell):
        if draw(st.booleans()) or any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    lines = [INGEST_HEADER] + [",".join(map(field, row)) for row in rows]
    if fault == "open_quote":
        lines.append('1,"car,7,x,1,Fully Paid')
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):
        ends[-1] = ""  # no end after the last line
    if fault == "blank":
        at = draw(st.integers(0, len(lines) - 1))
        ends[at] += draw(st.sampled_from(["\n", "\r\n"]))
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if fault == "bad_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    elif fault == "bom":
        data = b"\xef\xbb\xbf" + data
    return data


@settings(max_examples=300, deadline=None)
@given(data=_books(), chunk_bytes=st.integers(1, 48), skip_dropped=st.booleans())
# A quote left open to the end of the file, after one-line records.
@example(
    data=(INGEST_HEADER + "\n" + "1,car,7,eng,5%,Fully Paid\n" * 2 + '1,"car,7,x,1,Fully Paid\n').encode(),
    chunk_bytes=1, skip_dropped=False,
)
# A byte that is not UTF-8 in a record that spans a chunk cut.
@example(
    data=(INGEST_HEADER + "\n" + '1,"two\nlines",7,eng,5%,Fully Paid\n').encode() + b'1,"ca\nf\xff",7,x,1,Current\n',
    chunk_bytes=8, skip_dropped=False,
)
# A CRLF file whose last line has no line end.
@example(
    data=(INGEST_HEADER + "\r\n" + "1,car,7,eng,5%,Fully Paid\r\n" * 3 + '2,"Nurse, RN",8,x,,Current').encode(),
    chunk_bytes=40, skip_dropped=True,
)
def test_chunked_ingest_equals_the_record_oracle(data, chunk_bytes, skip_dropped):
    # Chunks of a few bytes cut inside quoted records that span lines.
    want = _ref_outcome(data, INGEST_SPECS, skip_dropped)
    with mock.patch.object(dataset, "CHUNK_BYTES", chunk_bytes):
        _assert_loads_as_oracle(data, want, skip_dropped)


_HEAD = INGEST_HEADER + "\n"
_ROW = "1,car,7,eng,5%,Fully Paid\n"


@pytest.mark.parametrize("chunk_bytes", [1, 5, 64, dataset.CHUNK_BYTES])
@pytest.mark.parametrize(
    "data, message",
    [
        # The first faulty record wins, whatever its fault.
        (_HEAD + _ROW + "1,car,7\n" + "1,car,7,eng,inf,Current\n",
         "malformed CSV at line 3: expected 6 fields, got 3"),
        (_HEAD + "1,car,7,eng,inf,Current\n" + "1,car,7\n",
         "numeric column 'int_rate' holds the non-finite value 'inf' at line 2"),
        (_HEAD + _ROW + "1,caf\udcff,7,eng,5,x\n" + "nan,car,7,eng,5,Current\n",
         f"CSV is not UTF-8: invalid byte at offset {len(_HEAD + _ROW + '1,caf')}"),
        (_HEAD + _ROW + '"a\nb",car,7,eng,5,x\n' + "nan,car,7,eng,5,Current\n",
         "numeric column 'loan_amnt' holds the non-finite value 'nan' at line 5"),
        # Within one record: a byte that is no UTF-8, then the field count,
        # then the first non-finite cell in spec order.
        (_HEAD + "1,caf\udcff,7\n", f"CSV is not UTF-8: invalid byte at offset {len(_HEAD + '1,caf')}"),
        (_HEAD + _ROW + "inf,car,7,eng,nan,Current,x\n", "malformed CSV at line 3: expected 6 fields, got 7"),
        (_HEAD + _ROW + "1e999,car,7,eng,nan,Current\n",
         "numeric column 'loan_amnt' holds the non-finite value '1e999' at line 3"),
    ],
    ids=["ragged-first", "non-finite-first", "utf8-first", "non-finite-after-quoted-lines",
         "utf8-before-field-count", "field-count-before-non-finite", "spec-order"],
)
def test_the_first_faulty_record_decides_the_error(data, message, chunk_bytes):
    data = data.encode("utf-8", "surrogateescape")
    with mock.patch.object(dataset, "CHUNK_BYTES", chunk_bytes):
        with pytest.raises(ParseError) as info:
            load_csv(data, INGEST_SPECS, allow_extra=True)
    assert str(info.value) == message


def _recorded_parse(monkeypatch, data, chunk_bytes, specs, **options):
    """load_csv of data in chunks of about chunk_bytes: (its outcome, every
    chunk's text, and (text, whether _split read it) per _split call)."""
    chunks, splits = [], []
    real_chunks, real_split = dataset._chunks, dataset._split

    def split(text, width):
        fields = real_split(text, width)
        splits.append((text, fields is not None))
        return fields

    monkeypatch.setattr(dataset, "_chunks", lambda stream: (chunks.append(t) or t for t in real_chunks(stream)))
    monkeypatch.setattr(dataset, "_split", split)
    monkeypatch.setattr(dataset, "CHUNK_BYTES", chunk_bytes)
    try:
        outcome = load_csv(data, specs, **options)
    except ParseError as exc:
        outcome = exc
    return outcome, chunks, splits


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_bench_shaped_books_stay_on_the_splitter(monkeypatch, end):
    # The book shape bench/gen.py writes: quoted "Nurse, RN" cells on one
    # line, rates as "13.5%" and blank cells. The oracle compares outputs
    # only, so a parse that left every chunk to csv.reader would pass it.
    rng = random.Random(2)
    rows = make_loan_rows(300, seed=2)
    for row in rows:
        row[2] = f"{row[2]}%" if rng.random() < 0.5 else row[2]
        row[4] = rng.choice(["teacher", "Nurse, RN", "pilot", ""])
        row[10] = "" if rng.random() < 0.1 else row[10]
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerows([LOAN_HEADER, *rows])
    table, chunks, splits = _recorded_parse(monkeypatch, out.getvalue().encode(), 512, default_column_specs())
    assert table.row_count == len(rows)
    assert len(chunks) > 50
    assert splits == [(text, True) for text in chunks[1:]]


def test_the_splitter_reads_on_after_a_record_that_spans_chunks(monkeypatch):
    # csv.reader reads the record whose quoted cell spans chunks, and on
    # up to the first chunk end on which a record ends; _split reads every
    # chunk after it. A non-finite cell there is reported at its line.
    spanning = '1,"' + "line\n" * 8 + '",7,eng,5%,Fully Paid\n'
    data = _HEAD + _ROW * 3 + spanning + _ROW * 12 + "inf,car,7,eng,5%,Current\n" + _ROW * 3
    outcome, chunks, splits = _recorded_parse(monkeypatch, data.encode(), 16, INGEST_SPECS, allow_extra=True)
    assert str(outcome) == _ref_outcome(data.encode(), INGEST_SPECS)[1]
    assert str(outcome).endswith("at line 26")
    ends = list(itertools.accumulate(map(len, chunks)))
    begin = len(_HEAD + _ROW * 3)
    first = next(i for i, e in enumerate(ends) if e > begin)  # the spanning record starts in it
    last = next(i for i, e in enumerate(ends) if e >= begin + len(spanning))  # a record ends at its end
    assert last - first >= 2
    assert splits == [(text, i != first) for i, text in enumerate(chunks) if 0 < i <= first or i > last]


def test_blank_line_in_a_one_column_book_has_no_fields():
    # str.split would read the blank line as one blank field.
    with pytest.raises(ParseError, match="line 3: expected 1 fields, got 0"):
        load_csv(b"loan_status\nFully Paid\n\nCharged Off\n", [ColumnSpec("loan_status", "text", "target")])


def test_skipped_columns_are_header_checked_but_never_parsed(monkeypatch):
    text = _HEAD + "1,car,7,eng,5%,Fully Paid\n" + '2,house,8,"Smith, Jones",,Current\n'
    table = load_csv(_csv(text), INGEST_SPECS, allow_extra=True, skip_dropped=True)
    # The numeric drop column stays: a numeric cell can be a fault.
    assert table.names == ("loan_amnt", "purpose", "int_rate", "loan_status")
    assert _column(table, "int_rate") == [5.0, None]
    with pytest.raises(ParseError, match="'int_rate' holds the non-finite value 'inf'"):
        load_csv(_csv(_HEAD + "1,car,7,eng,inf,Fully Paid\n"), INGEST_SPECS, allow_extra=True,
                 skip_dropped=True)
    with pytest.raises(SchemaError, match=r"absent from header: \['emp_title'\]"):
        load_csv(_csv(text.replace("emp_title", "job")), INGEST_SPECS, allow_extra=True,
                 skip_dropped=True)
    coded = []
    monkeypatch.setattr(dataset, "_codes", lambda cells, *_: coded.append(cells) or np.full(len(cells), -1))
    load_csv(_csv(text), INGEST_SPECS, allow_extra=True, skip_dropped=True)
    assert coded == [["car", "house"], ["Fully Paid", "Current"]]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        # A few values drawn over and over (ties), or any finite float.
        st.one_of(st.sampled_from([-1.5, 0.0, 2.0, 7.25]), st.floats(allow_nan=False, allow_infinity=False, width=64)),
        min_size=1,
        max_size=40,
    )
)
@example([-0.0])  # np.median's sum starts from +0.0
@example([8.988465674311579e+307, 8.98846567431158e+307])  # the middle pair's sum overflows
def test_median_has_the_bits_of_np_median(values):
    values = np.array(values)
    for part in (values, values[:-1]) if values.size > 1 else (values,):
        # Both sizes, odd and even, from each draw.
        got = dataset._median(part.copy())
        with np.errstate(over="ignore"):
            want = np.median(part)
        if np.isfinite(want):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (part, got, want)
        else:
            middle = np.sort(part)[part.size // 2 - 1 : part.size // 2 + 1]
            assert np.isfinite(got) and middle[0] <= got <= middle[1], (part, got)


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
