"""Seeded synthetic loan books in the accepted-loans CSV layout.

One numpy draw per column, so a 100k-row book takes well under a second.
Every book exercises the ingest paths the CLI has to handle: missing
cells, rates written both as "13.5" and "13.5%", in-flight statuses that
filter_terminal drops, a quoted text cell holding a comma, a constant
categorical feature (dropped by encode), an extra column outside the
schema (kept only with allow_extra_columns) and a few overpaid loans whose
EAD clamps to 0.

The same seed gives the same bytes. The first rows of every book
cycle through all purpose and sub_grade levels as complete, terminal
loans, so two books with the same level counts encode to the same columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PURPOSES = (
    "car", "credit_card", "debt_consolidation", "educational",
    "home_improvement", "house", "major_purchase", "medical", "moving",
    "other", "renewable_energy", "small_business", "vacation", "wedding",
)
SUB_GRADES = tuple(f"{g}{i}" for g in "ABCDEFG" for i in range(1, 6))
IN_FLIGHT = ("Current", "In Grace Period", "Late (31-120 days)")
EMP_TITLES = ("teacher", "engineer", '"Nurse, RN"', "pilot", "manager", "owner")
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# Share of cells left empty, per column. Filled by the CLI's median/mode.
MISSING = {
    "annual_inc": 0.02,
    "dti": 0.03,
    "open_acc": 0.01,
    "total_acc": 0.01,
    "purpose": 0.01,
    "emp_title": 0.06,
    "emp_length": 0.05,
}
IN_FLIGHT_SHARE = 0.10
PERCENT_SIGN_SHARE = 0.5
OVERPAID_SHARE = 0.01

HEADER = (
    "member_id", "loan_amnt", "term", "int_rate", "sub_grade", "emp_title",
    "emp_length", "grade", "issue_d", "title", "annual_inc", "dti",
    "open_acc", "total_acc", "purpose", "fico", "loan_status", "recoveries",
    "total_rec_prncp", "application_type",
)

# The default schema plus the constant categorical feature; member_id stays
# outside the schema and reaches the CLI as an extra column.
COLUMN_SPEC = [
    {"name": "loan_amnt", "kind": "numeric", "role": "feature"},
    {"name": "term", "kind": "categorical", "role": "feature"},
    {"name": "int_rate", "kind": "numeric", "role": "feature"},
    {"name": "sub_grade", "kind": "categorical", "role": "feature"},
    {"name": "emp_title", "kind": "text", "role": "drop"},
    {"name": "emp_length", "kind": "categorical", "role": "drop"},
    {"name": "grade", "kind": "categorical", "role": "drop"},
    {"name": "issue_d", "kind": "date", "role": "drop"},
    {"name": "title", "kind": "text", "role": "drop"},
    {"name": "annual_inc", "kind": "numeric", "role": "feature"},
    {"name": "dti", "kind": "numeric", "role": "feature"},
    {"name": "open_acc", "kind": "numeric", "role": "feature"},
    {"name": "total_acc", "kind": "numeric", "role": "feature"},
    {"name": "purpose", "kind": "categorical", "role": "feature"},
    {"name": "fico", "kind": "numeric", "role": "feature"},
    {"name": "loan_status", "kind": "text", "role": "target"},
    {"name": "recoveries", "kind": "numeric", "role": "exposure_aux"},
    {"name": "total_rec_prncp", "kind": "numeric", "role": "exposure_aux"},
    {"name": "application_type", "kind": "categorical", "role": "feature"},
]


@dataclass(frozen=True)
class Book:
    """What the generator wrote, tallied independently of the CLI."""

    path: Path
    rows: int
    labels: np.ndarray  # 0/1 default label of each terminal row, in file order

    @property
    def terminal(self) -> int:
        return int(self.labels.size)


def _fmt(spec: str, values) -> list[str]:
    return [spec % v for v in values.tolist()]


def _blank(rng, column: str, cells: list[str], keep: int) -> list[str]:
    """Empty a MISSING share of cells, sparing the first `keep` rows."""
    holes = rng.random(len(cells)) < MISSING[column]
    holes[:keep] = False
    for i in np.flatnonzero(holes).tolist():
        cells[i] = ""
    return cells


def generate(n_rows: int, n_purposes: int, n_sub_grades: int, seed: int):
    """Draw a book; returns (csv text, labels of the terminal rows)."""
    if not 1 <= n_purposes <= len(PURPOSES) or not 2 <= n_sub_grades <= len(SUB_GRADES):
        raise ValueError("level counts out of range")
    keep = max(n_purposes, n_sub_grades)
    if n_rows < keep:
        raise ValueError(f"a book needs at least {keep} rows to hold every level")
    rng = np.random.default_rng(seed)
    n = n_rows
    idx = np.arange(n)

    purpose = rng.integers(0, n_purposes, n)
    purpose[:keep] = idx[:keep] % n_purposes
    grade = rng.integers(0, n_sub_grades, n)
    grade[:keep] = idx[:keep] % n_sub_grades
    g = grade / (n_sub_grades - 1)

    term60 = rng.random(n) < 0.3
    amount = rng.integers(40, 1601, n) * 25
    rate = np.clip(6.0 + 20.0 * g + rng.normal(0.0, 1.0, n), 5.31, 30.99)
    fico = np.clip(np.rint(815.0 - 170.0 * g + rng.normal(0.0, 20.0, n)), 600, 850)
    dti = rng.uniform(2.0, 35.0, n)
    income = np.rint(np.exp(rng.normal(11.0, 0.45, n)))
    open_acc = rng.integers(2, 30, n)
    total_acc = open_acc + rng.integers(0, 40, n)

    purpose_effect = np.linspace(-0.5, 0.5, n_purposes)[purpose]
    z = (
        -2.7
        + 2.6 * g
        + 0.04 * (dti - 18.0)
        + purpose_effect
        + 0.4 * term60
        - 0.5 * (np.log(income) - 11.0)
        + 0.8 * ((g > 0.5) & (dti > 25.0))
    )
    default = rng.random(n) < 1.0 / (1.0 + np.exp(-z))
    in_flight = rng.random(n) < IN_FLIGHT_SHARE
    in_flight[:keep] = False
    status = np.where(default, "Charged Off", "Fully Paid").astype(object)
    status[in_flight] = np.asarray(IN_FLIGHT, dtype=object)[rng.integers(0, 3, n)][in_flight]

    paid_share = np.where(default, rng.uniform(0.05, 0.6, n), 1.0)
    paid_share = np.where(in_flight, rng.uniform(0.0, 0.9, n), paid_share)
    principal = np.round(amount * paid_share, 2)
    overpaid = (rng.random(n) < OVERPAID_SHARE) & ~default & ~in_flight
    principal[overpaid] += np.round(rng.uniform(0.01, 5.0, int(overpaid.sum())), 2)
    recoveries = np.where(default & ~in_flight, np.round(amount * rng.uniform(0.01, 0.1, n), 2), 0.0)

    rate_cells = _fmt("%.2f", rate)
    for i in np.flatnonzero(rng.random(n) < PERCENT_SIGN_SHARE).tolist():
        rate_cells[i] += "%"
    sub_grade_names = np.asarray(SUB_GRADES[:n_sub_grades], dtype=object)[grade]
    purpose_names = np.asarray(PURPOSES[:n_purposes], dtype=object)[purpose]
    months = np.asarray(MONTHS, dtype=object)[rng.integers(0, 12, n)]

    columns = {
        "member_id": _fmt("%d", 1_000_000 + idx),
        "loan_amnt": _fmt("%d", amount),
        "term": np.where(term60, " 60 months", " 36 months").tolist(),
        "int_rate": rate_cells,
        "sub_grade": sub_grade_names.tolist(),
        "emp_title": _blank(rng, "emp_title", np.asarray(EMP_TITLES, dtype=object)[rng.integers(0, len(EMP_TITLES), n)].tolist(), keep),
        "emp_length": _blank(rng, "emp_length", [f"{k} years" for k in rng.integers(1, 11, n).tolist()], keep),
        "grade": [s[0] for s in sub_grade_names.tolist()],
        "issue_d": [f"{m}-{y}" for m, y in zip(months.tolist(), rng.integers(2012, 2019, n).tolist())],
        "title": purpose_names.tolist(),
        "annual_inc": _blank(rng, "annual_inc", _fmt("%.0f", income), keep),
        "dti": _blank(rng, "dti", _fmt("%.2f", dti), keep),
        "open_acc": _blank(rng, "open_acc", _fmt("%d", open_acc), keep),
        "total_acc": _blank(rng, "total_acc", _fmt("%d", total_acc), keep),
        "purpose": _blank(rng, "purpose", purpose_names.tolist(), keep),
        "fico": _fmt("%d", fico),
        "loan_status": status.tolist(),
        "recoveries": _fmt("%.2f", recoveries),
        "total_rec_prncp": _fmt("%.2f", principal),
        "application_type": ["Individual"] * n,
    }
    lines = [",".join(HEADER)]
    lines.extend(",".join(row) for row in zip(*(columns[h] for h in HEADER)))
    labels = default[~in_flight].astype(np.int64)
    return "\n".join(lines) + "\n", labels


def write_book(path, n_rows: int, n_purposes: int, n_sub_grades: int, seed: int) -> Book:
    text, labels = generate(n_rows, n_purposes, n_sub_grades, seed)
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return Book(path=path, rows=n_rows, labels=labels)


def write_column_spec(path) -> None:
    Path(path).write_text(json.dumps(COLUMN_SPEC, indent=2) + "\n", encoding="utf-8")
