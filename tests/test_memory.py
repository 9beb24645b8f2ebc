"""Peak memory of `train` and `price`, in multiples of the book's design matrix.

tracemalloc sees numpy's array buffers as well as Python objects, so the
peak it records while a command runs is the command's own working set,
whatever the process held before. Each bound sits between today's peak and
the peak of the copy it guards against:
- logistic `train`: encoding every row and copying the training rows out of
  that matrix (1.67 against 2.17 matrices);
- forest `train`: building the whole model text before writing it (1.53
  against 2.41 matrices for three unlimited-depth trees on random labels);
- logistic `price`: scaling the whole matrix at once rather than one
  prediction block at a time (1.86 against 2.35 matrices).
- forest `train` at the benchmark's shape (30 trees at depth 10, grown in
  lockstep): keeping every column's rank array while the rank codes are
  made (1.69 against 1.96 matrices).
"""

import random
import tracemalloc

import pytest

from conftest import make_loan_rows, write_config, write_loans_csv
from creditworks import cli

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
        ("train", {"kind": "logreg"}, 1.9),
        ("train", {"kind": "forest", "n_trees": 3, "max_depth": None}, 1.9),
        ("price", {"kind": "logreg"}, 2.1),
        ("train", {"kind": "forest", "n_trees": 30, "max_depth": 10}, 1.8),
    ],
)
def test_peak_memory_is_bounded_by_the_matrix(book, monkeypatch, command, model, bound):
    monkeypatch.setenv("CREDITWORKS_CANONICAL", "1")
    config = write_config(book / "config.json", model=model)
    cfg, base = cli._read_config(str(config))
    matrix_bytes = cli._load(cfg, base)[2].x.nbytes
    argv = ["--config", str(config), "--out", str(book / "out")]
    if command != "train":
        assert cli.main(["train", *argv]) == 0
    peak = _traced_peak([command, *argv])
    assert peak <= bound * matrix_bytes, f"{peak / matrix_bytes:.2f} matrices"
