import numpy as np
import pytest

from conftest import build_table, make_blobs
from creditworks import (
    DesignMatrix,
    Scaler,
    apply_scaler,
    correlation_report,
    fit_logreg,
    fit_scaler,
    threshold_counts,
)
from creditworks.errors import DataError
from creditworks.features import DEFAULT_THRESHOLD_RULES
from creditworks.logreg import LogregConfig


def _pearson(x, y):
    """(r, defined) that correlation_report gives the one column x against
    the labels y."""
    ((_, r, defined),) = correlation_report(DesignMatrix(("x",), np.c_[x], y))
    return r, defined


def test_pearson_identity():
    y = np.array([0, 1, 0, 1, 1])
    r, defined = _pearson(y.astype(float), y)
    assert defined
    assert r == pytest.approx(1.0, abs=1e-12)


def test_pearson_anti_identity():
    y = np.array([0, 1, 0, 1, 1])
    r, _ = _pearson(1.0 - y, y)
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    r, defined = _pearson([1, 2, 3, 4], [0, 0, 1, 1])
    assert defined
    assert r == pytest.approx(0.8944271909999159, abs=1e-15)


def test_pearson_zero_variance_flagged():
    r, defined = _pearson([2.0, 2.0, 2.0], [0, 1, 0])
    assert (r, defined) == (0.0, False)


def test_pearson_validates():
    with pytest.raises(DataError, match="at least 2 rows"):
        _pearson([1.0], [0])
    with pytest.raises(DataError):
        _pearson([1.0, 2.0], [0, 1, 1])


def test_pearson_symmetric_and_affine_invariant():
    # Symmetric where both vectors are 0/1, as the labels must be.
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.normal(size=12)
        y = (rng.random(12) < 0.5).astype(float)
        if y.std() == 0:
            continue
        r_xy = _pearson(x, y)[0]
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.normal())
        assert abs(_pearson(a * x + b, y)[0] - r_xy) < 1e-12
        flags = (x > 0).astype(float)
        if flags.std() > 0:
            assert abs(_pearson(flags, y)[0] - _pearson(y, flags)[0]) < 1e-12


def test_correlation_report_ranks_target_copy_first():
    rng = np.random.default_rng(1)
    y = (rng.random(30) < 0.5).astype(np.int64)
    x = np.column_stack([y.astype(float), rng.normal(size=30), np.full(30, 7.0)])
    matrix = DesignMatrix(columns=("copy", "noise", "flat"), x=x, y=y)
    entries = correlation_report(matrix)
    assert entries[0][0] == "copy"
    assert entries[0][1] == pytest.approx(1.0, abs=1e-12)
    flat = next(e for e in entries if e[0] == "flat")
    assert flat[1] == 0.0 and flat[2] is False


def test_correlation_report_matches_oracle_order():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 5))
    y = (rng.random(60) < 0.4).astype(np.int64)
    matrix = DesignMatrix(columns=tuple(f"c{i}" for i in range(5)), x=x, y=y)
    entries = correlation_report(matrix)
    oracle = {
        f"c{i}": float(np.corrcoef(x[:, i], y)[0, 1]) for i in range(5)
    }
    for name, r, defined in entries:
        assert defined
        assert r == pytest.approx(oracle[name], abs=1e-12)
    rs = [r for _, r, _ in entries]
    assert rs == sorted(rs, reverse=True)


def test_scaler_symmetric_pair_population_stddev():
    matrix = DesignMatrix(columns=("v",), x=np.array([[2.0], [4.0]]), y=np.array([0, 1]))
    scaler = fit_scaler(matrix)
    scaled = scaler.transform(matrix.x)
    assert scaled[:, 0].tolist() == [-1.0, 1.0]


def test_scaler_constant_column_passes_through():
    matrix = DesignMatrix(
        columns=("v", "flat"),
        x=np.array([[1.0, 3.0], [5.0, 3.0]]),
        y=np.array([0, 1]),
    )
    scaler = fit_scaler(matrix)
    out = apply_scaler(scaler, matrix)
    assert out.x[:, 1].tolist() == [0.0, 0.0]
    assert scaler.scale[1] == 1.0


def test_scaler_train_mean_zero_std_one():
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
    matrix = DesignMatrix(columns=tuple("abcd"), x=x, y=(rng.random(200) < 0.5).astype(int))
    out = apply_scaler(fit_scaler(matrix), matrix)
    assert np.all(np.abs(out.x.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.x.std(axis=0) - 1.0) < 1e-9)


def test_scaler_foreign_rows_not_centered():
    rng = np.random.default_rng(6)
    train = DesignMatrix(
        columns=("v",), x=rng.normal(0.0, 1.0, size=(50, 1)), y=(rng.random(50) < 0.5).astype(int)
    )
    test = DesignMatrix(
        columns=("v",), x=rng.normal(4.0, 1.0, size=(50, 1)), y=(rng.random(50) < 0.5).astype(int)
    )
    out = apply_scaler(fit_scaler(train), test)
    assert abs(out.x.mean()) > 1.0


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 10, 17])
def test_blocked_scaler_has_the_bits_of_whole_matrix_mean_and_std(width):
    # Columns of very different offsets and spreads, plus 0/1 dummies, over a
    # row count that pairwise summation would split unevenly.
    rng = np.random.default_rng(width)
    x = rng.normal(size=(20_001, width)) * rng.uniform(0.1, 1e4, width) + rng.uniform(-1e6, 1e6, width)
    x[:, ::3] = rng.random((20_001, len(range(0, width, 3)))) < 0.07
    matrix = DesignMatrix(columns=tuple(map(str, range(width))), x=x, y=np.zeros(20_001, dtype=int))
    scaler = fit_scaler(matrix)
    assert scaler.mean.tobytes() == x.mean(axis=0).tobytes()
    assert scaler.scale.tobytes() == x.std(axis=0).tobytes()


def test_scaler_json_roundtrip():
    matrix = DesignMatrix(columns=("v",), x=np.array([[2.0], [4.0]]), y=np.array([0, 1]))
    scaler = fit_scaler(matrix)
    back = Scaler.from_json_dict(scaler.to_json_dict())
    assert back.columns == scaler.columns
    assert np.array_equal(back.mean, scaler.mean)
    assert np.array_equal(back.scale, scaler.scale)


def test_scaler_rejects_wrong_width():
    matrix = DesignMatrix(columns=("v",), x=np.array([[2.0], [4.0]]), y=np.array([0, 1]))
    scaler = fit_scaler(matrix)
    with pytest.raises(DataError):
        scaler.transform(np.zeros((3, 2)))


def test_scaling_preserves_separable_classification():
    x, y = make_blobs(n_per_class=100, seed=21)
    raw = DesignMatrix(columns=("a", "b"), x=x, y=y)
    scaled = apply_scaler(fit_scaler(raw), raw)
    cfg = LogregConfig(learning_rate=0.5, max_iters=2000)
    model_raw = fit_logreg(raw.x, raw.y, cfg)
    model_scaled = fit_logreg(scaled.x, scaled.y, cfg)
    pred_raw = model_raw.classify(raw.x)
    pred_scaled = model_scaled.classify(scaled.x)
    assert np.array_equal(pred_raw, pred_scaled)


def test_threshold_counts_hand_tally():
    table = build_table(
        [
            ("annual_inc", "numeric", "feature"),
            ("open_acc", "numeric", "feature"),
            ("total_acc", "numeric", "feature"),
            ("loan_status", "text", "target"),
        ],
        [
            (2_000_000.0, 50.0, 81.0, "Fully Paid"),
            (900_000.0, 41.0, None, "Fully Paid"),
            (1_000_001.0, 12.0, 30.0, "Charged Off"),
        ],
    )
    counts = threshold_counts(table)
    assert counts == (
        ("annual_inc", "> 1000000", 2),
        ("open_acc", "> 40", 2),
        ("total_acc", "> 80", 1),
    )


def test_threshold_counts_skips_absent_columns():
    table = build_table(
        [("annual_inc", "numeric", "feature"), ("loan_status", "text", "target")],
        [(10.0, "x")],
    )
    counts = threshold_counts(table, DEFAULT_THRESHOLD_RULES)
    assert [c[0] for c in counts] == ["annual_inc"]
