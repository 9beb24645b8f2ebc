"""One BLAS thread per process, and the same bits at any thread count.

Importing creditworks sets OPENBLAS_NUM_THREADS to 1 unless the caller set
it. The logistic and correlation code must give the same bytes whatever
the caller chose, so these tests run the same work in subprocesses with
one and with two OpenBLAS threads and compare the results byte for byte.
"""

import csv
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import LOAN_HEADER, write_config

SRC = Path(__file__).resolve().parents[1] / "src"
PURPOSES = (
    "car", "credit_card", "debt_consolidation", "educational", "home_improvement", "house",
    "major_purchase", "medical", "moving", "other", "renewable_energy", "small_business",
    "vacation", "wedding",
)

# Prints one digest per matrix size of every number that the two logistic
# fits, their PDs and the correlations of each column with y give.
KERNELS = """
import hashlib, sys
import numpy as np
from creditworks import DesignMatrix, LogregConfig, correlation_report, fit_logreg

for n in map(int, sys.argv[1:]):
    rng = np.random.default_rng(n)
    x = np.hstack([rng.normal(size=(n, 7)), rng.random((n, 48)) < 0.05])
    y = (rng.random(n) < 1 / (1 + np.exp(2 - x[:, :3].sum(axis=1)))).astype(np.int64)
    digest = hashlib.sha256()
    for config in (LogregConfig(newton=True), LogregConfig(max_iters=20)):
        model = fit_logreg(x, y, config)
        for values in (model.weights, [model.bias], [v for _, v in model.history],
                       model.predict_proba(x)):
            digest.update(np.asarray(values, dtype=np.float64).tobytes())
    report = correlation_report(DesignMatrix(tuple(map(str, range(x.shape[1]))), x, y))
    digest.update(np.array([r for _, r, _ in report]).tobytes())
    print(n, digest.hexdigest())
"""

SIX_COMMANDS = """
import sys
from creditworks.cli import main

for command in ("explore", "prepare", "train", "evaluate", "score", "price"):
    assert main([command, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0, command
"""


def _python(code, *args, threads=None):
    """stdout of `python -c code args` on the package under src/, with
    OPENBLAS_NUM_THREADS unset, or set to threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(SRC), CREDITWORKS_CANONICAL="1")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


PROBE = "import os, creditworks; print(os.environ['OPENBLAS_NUM_THREADS'])"
# The package itself loads numpy only when a name is first used, so the
# thread count is taken after importing a submodule that loads it.
TASKS = "import os, creditworks.dataset; print(len(os.listdir('/proc/self/task')))"


def test_import_sets_one_blas_thread():
    assert _python(PROBE).split() == ["1"]


@pytest.mark.parametrize("value", ["2", "4"])
def test_import_keeps_the_callers_thread_count(value):
    assert _python(PROBE, threads=value).split() == [value]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc task list")
def test_import_leaves_one_thread_in_the_process():
    assert _python(TASKS).split() == ["1"]


@pytest.fixture(scope="module")
def two_threads():
    """Skips where OpenBLAS runs one thread at OPENBLAS_NUM_THREADS=2 (one
    CPU), or where that cannot be told: there is nothing to compare."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc task list to count OpenBLAS threads")
    if _python(TASKS, threads=2).split() == ["1"]:
        pytest.skip("OpenBLAS runs one thread on this host whatever the setting")


def test_fits_pds_and_correlations_are_the_same_bytes_at_one_and_two_threads(two_threads):
    sizes = (13_477, 20_001, 100_003)
    one = _python(KERNELS, *sizes, threads=1).splitlines()
    assert [line.split()[0] for line in one] == [str(n) for n in sizes]
    assert _python(KERNELS, *sizes, threads=2).splitlines() == one


def _write_wide_book(path, n, seed):
    """n terminal loans over 35 sub-grades and 14 purposes; the default rate
    rises with the sub-grade and falls with fico, with overlap everywhere."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOAN_HEADER)
        for _ in range(n):
            grade = rng.randrange(35)
            fico = rng.randint(600, 820)
            default = rng.random() < 0.05 + 0.01 * grade + (720 - fico) / 1000
            amnt = rng.choice([4000, 8000, 12000, 20000])
            writer.writerow([
                amnt, rng.choice([" 36 months", " 60 months"]), round(rng.uniform(6, 26), 2),
                f"{'ABCDEFG'[grade // 5]}{grade % 5 + 1}", "eng", "5 years", "C", "Jan-2018",
                "personal", rng.randint(30000, 150000), round(rng.uniform(5, 30), 1),
                rng.randint(3, 20), rng.randint(8, 40), rng.choice(PURPOSES), fico,
                "Charged Off" if default else "Fully Paid",
                round(amnt * rng.uniform(0.01, 0.08), 2) if default else 0.0,
                round(amnt * rng.uniform(0.05, 0.6), 2) if default else float(amnt),
            ])


def _digests(out):
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_six_commands_write_the_same_bytes_at_one_and_two_threads(tmp_path, two_threads):
    # 17,477 training rows: OpenBLAS's threaded x @ w sums such a matrix
    # differently from its serial one; some even row counts (18,000 of 24,000
    # rows) happen to give the same bits and would hide a BLAS product.
    _write_wide_book(tmp_path / "loans.csv", 23_303, seed=12)
    config = write_config(tmp_path / "config.json")
    _python(SIX_COMMANDS, config, tmp_path / "one", threads=1)
    _python(SIX_COMMANDS, config, tmp_path / "two", threads=2)
    one = _digests(tmp_path / "one")
    assert {"correlation.csv", "model.json", "scores.csv", "pricing.csv"} <= set(one)
    assert _digests(tmp_path / "two") == one
