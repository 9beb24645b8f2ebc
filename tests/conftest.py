"""Shared synthetic-data builders for the test suite."""

import csv
import json
import random

import numpy as np
from hypothesis import strategies as st

from creditworks import ColumnSpec, RawLoanTable
from creditworks.dataset import Categorical

LOAN_HEADER = [
    "loan_amnt", "term", "int_rate", "sub_grade", "emp_title", "emp_length",
    "grade", "issue_d", "title", "annual_inc", "dti", "open_acc", "total_acc",
    "purpose", "fico", "loan_status", "recoveries", "total_rec_prncp",
]


def make_blobs(n_per_class=1000, seed=0, centers=((0.0, 0.0), (4.0, 4.0)), scale=1.0):
    """Two Gaussian clouds; returns (x, y) with y=1 on the second center."""
    rng = np.random.default_rng(seed)
    c0, c1 = np.asarray(centers[0]), np.asarray(centers[1])
    x0 = rng.normal(loc=c0, scale=scale, size=(n_per_class, c0.size))
    x1 = rng.normal(loc=c1, scale=scale, size=(n_per_class, c1.size))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                        np.ones(n_per_class, dtype=np.int64)])
    return x, y


def make_noisy_xor(n=2000, seed=0, flip=0.1):
    """Uniform points on the unit square, XOR-quadrant labels, some flipped."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5)).astype(np.int64)
    flips = rng.random(n) < flip
    y = np.where(flips, 1 - y, y)
    return x, y


def make_loan_rows(n=120, seed=5, include_nonterminal=True, all_status=None):
    """Synthetic accepted-loans rows matching LOAN_HEADER."""
    rng = random.Random(seed)
    purposes = ["car", "credit_card", "small_business"]
    rows = []
    for _ in range(n):
        default = rng.random() < 0.35
        fico = rng.randint(580, 680) if default else rng.randint(680, 820)
        rate = round(rng.uniform(14, 26), 2) if default else round(rng.uniform(6, 14), 2)
        amnt = rng.choice([4000, 8000, 12000, 20000])
        status = all_status or ("Charged Off" if default else "Fully Paid")
        prncp = round(amnt * rng.uniform(0.05, 0.6), 2) if default else float(amnt)
        rec = round(amnt * rng.uniform(0.01, 0.08), 2) if default else 0.0
        rows.append([
            amnt, rng.choice([" 36 months", " 60 months"]), rate, "C1", "eng",
            "5 years", "C", "Jan-2018", "personal", rng.randint(30000, 150000),
            round(rng.uniform(5, 30), 1), rng.randint(3, 20), rng.randint(8, 40),
            rng.choice(purposes), fico, status, rec, prncp,
        ])
    if include_nonterminal and all_status is None:
        rows.append([9000, " 36 months", 11.2, "B2", "eng", "5 years", "B",
                     "Feb-2018", "t", 52000, 11.0, 7, 19, "car", 700,
                     "Current", 0.0, 1500.0])
    return rows


def write_loans_csv(path, rows=None, header=None):
    header = header or LOAN_HEADER
    rows = make_loan_rows() if rows is None else rows
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_config(path, **overrides):
    cfg = {
        "input": "loans.csv",
        "seed": 11,
        "test_fraction": 0.25,
        "model": {"kind": "logreg", "learning_rate": 0.1, "max_iters": 300},
        "risk_free_rate": 0.03,
        "out_dir": "out",
    }
    cfg.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def build_column(kind, cells):
    """One RawLoanTable column from Python cells (None = missing)."""
    if kind == "numeric":
        return np.array([np.nan if c is None else c for c in cells], dtype=np.float64)
    index = {}
    codes = [-1 if c is None else index.setdefault(c, len(index)) for c in cells]
    return Categorical.from_codes(list(index), np.array(codes, dtype=np.intp))


def build_table(columns, rows, status_map=None):
    """RawLoanTable straight from (name, kind, role) triples and cell rows."""
    schema = tuple(ColumnSpec(name, kind, role) for name, kind, role in columns)
    cells = list(zip(*rows)) if rows else [()] * len(schema)
    return RawLoanTable(schema=schema,
                        columns=tuple(build_column(s.kind, c) for s, c in zip(schema, cells)),
                        status_map=status_map)


@st.composite
def clean_tables(draw):
    """(table, rows): a clean table of terminal loans whose numeric and
    categorical features come in any order, one categorical constant, and
    an index array of its rows (repeats allowed) that may lack levels."""
    n = draw(st.integers(2, 25))
    numbers = st.floats(allow_nan=False, allow_infinity=False)
    features = [(f"n{i}", "numeric", st.lists(numbers, min_size=n, max_size=n)) for i in range(draw(st.integers(0, 3)))]
    for i, k in enumerate([1] + draw(st.lists(st.integers(2, 6), max_size=3))):
        features.append((f"c{i}", "categorical", st.lists(st.sampled_from("abcdef"[:k]), min_size=n, max_size=n)))
    features = draw(st.permutations(features))
    statuses = st.lists(st.sampled_from(["Fully Paid", "Charged Off"]), min_size=n, max_size=n)
    columns = [(name, kind, "feature") for name, kind, _ in features] + [("loan_status", "text", "target")]
    cells = [draw(cells) for _, _, cells in features] + [draw(statuses)]
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)), dtype=np.intp)
    return build_table(columns, list(zip(*cells))), rows
