"""Peak memory of CLI commands, in multiples of the book's design matrix.

tracemalloc sees numpy's array buffers as well as Python objects, so the
peak it records while a command runs is the command's own working set,
whatever the process held before. Each bound of
test_peak_memory_is_bounded_by_the_matrix sat, when the commands still
held the dense matrix, between their peak and the peak of the copy it
guards against:
- logistic `train` (1.35 matrices): the scaler's standard deviation over
  the whole matrix at once rather than by column blocks (1.63), the Newton
  Hessian's weighted copy of the whole matrix rather than of a row block
  (1.69), or the parsed table kept alive while encoding (1.84);
- forest `train`: building the whole model text before writing it (1.54
  against 2.41 matrices for three unlimited-depth trees on random labels);
- logistic `evaluate` (0.57): scaling the whole test half at once rather
  than one prediction block at a time (0.78), or the parsed table kept
  alive while encoding (0.99);
- logistic `price` (1.51): scaling the whole matrix at once (3.29), or the
  parsed table kept alive while encoding (1.75);
- `prepare` (1.38): copying the training half out of the matrix (1.79),
  the scaler's whole-matrix standard deviation (1.54), or the parsed table
  kept alive while encoding (1.73);
- forest `train` at the benchmark's shape (30 trees at depth 10, grown in
  lockstep): keeping every column's rank array while the rank codes are
  made (1.69 against 1.96 matrices).

The design matrix is a view of the cleaned table (its columns and
category codes), and every command takes its dense rows a block at a
time, so no logistic command holds the matrix at all. The bounds of
test_logistic_commands_hold_no_dense_matrix sit between these peaks and
those of two variants that do build it (in brackets): every consumer
taking all its rows as one block, and `encode` filling the dense rows
while the table is alive, as it did before the view:
- `train` 0.49 (1.01 and 1.21);
- `evaluate` 0.50: its peak is the parse (0.50 and 0.59);
- `price` 0.49 (1.37 and 1.33);
- `prepare` 0.49 (1.17 and 1.33);
- `explore` 0.67, which parses every column (1.44 and 1.42).

`load_csv` is bounded in multiples of the column bytes it keeps: it holds
one chunk's text and fields at a time and grows each column in place (1.28
kept bytes; 9.65 when the whole file is one chunk, 2.10 when every batch
is kept until the columns are joined, 1.49 when the last chunk's fields
live on while the next chunk is split).
"""

import random
import tracemalloc

import numpy as np
import pytest

from conftest import make_loan_rows, write_config, write_loans_csv
from creditworks import cli, dataset

SUB_GRADES = [f"{g}{i}" for g in "ABCDEFG" for i in range(1, 6)]
PURPOSES = [f"purpose{i:02d}" for i in range(14)]


@pytest.fixture(scope="module")
def book(tmp_path_factory):
    """A 20k-row book encoding to 55 columns, with random default labels so
    that forest trees grow large."""
    path = tmp_path_factory.mktemp("memory")
    rows = make_loan_rows(20_000, seed=3, include_nonterminal=False)
    rng = random.Random(8)
    for row in rows:
        row[3], row[13] = rng.choice(SUB_GRADES), rng.choice(PURPOSES)
        row[15] = rng.choice(["Fully Paid", "Charged Off"])
    write_loans_csv(path / "loans.csv", rows)
    return path


def _traced_peak(argv) -> int:
    """Bytes the command traces at its peak above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "command, model, bound",
    [
        ("train", {"kind": "logreg"}, 1.5),
        ("train", {"kind": "forest", "n_trees": 3, "max_depth": None}, 1.9),
        ("price", {"kind": "logreg"}, 1.65),
        ("train", {"kind": "forest", "n_trees": 30, "max_depth": 10}, 1.8),
        ("evaluate", {"kind": "logreg"}, 0.7),
        ("prepare", {"kind": "logreg"}, 1.45),
    ],
)
def test_peak_memory_is_bounded_by_the_matrix(book, monkeypatch, command, model, bound):
    monkeypatch.setenv("CREDITWORKS_CANONICAL", "1")
    config = write_config(book / "config.json", model=model)
    cfg, base = cli._read_config(str(config))
    matrix_bytes = cli._load(cfg, base)[0].x.nbytes
    argv = ["--config", str(config), "--out", str(book / "out")]
    if command in ("evaluate", "price"):
        assert cli.main(["train", *argv]) == 0
    peak = _traced_peak([command, *argv])
    assert peak <= bound * matrix_bytes, f"{peak / matrix_bytes:.2f} matrices"


@pytest.mark.parametrize(
    "command, bound",
    [("train", 0.75), ("evaluate", 0.54), ("price", 0.75), ("prepare", 0.75), ("explore", 1.0)],
)
def test_logistic_commands_hold_no_dense_matrix(book, monkeypatch, command, bound):
    monkeypatch.setenv("CREDITWORKS_CANONICAL", "1")
    config = write_config(book / "config.json", model={"kind": "logreg"})
    cfg, base = cli._read_config(str(config))
    matrix_bytes = cli._load(cfg, base)[0].x.nbytes
    argv = ["--config", str(config), "--out", str(book / "out")]
    if command in ("evaluate", "price"):
        assert cli.main(["train", *argv]) == 0
    peak = _traced_peak([command, *argv])
    assert peak <= bound * matrix_bytes, f"{peak / matrix_bytes:.2f} matrices"


def test_ingest_peak_is_bounded_by_the_kept_columns(book):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = dataset.load_csv(book / "loans.csv", dataset.default_column_specs())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = sum(c.nbytes if isinstance(c, np.ndarray) else c.codes.nbytes for c in table.columns)
    assert table.row_count == 20_000
    assert peak <= 1.5 * kept, f"{peak / kept:.2f} kept bytes"
