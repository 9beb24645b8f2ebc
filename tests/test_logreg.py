import math

import numpy as np
import pytest

from conftest import make_blobs, write_loans_csv
from creditworks import (
    LogregConfig,
    LogregModel,
    bce_loss,
    fit_logreg,
    loss_and_gradient,
    sigmoid,
)
from creditworks import dataset, features, logreg
from creditworks.errors import DataError, TrainingError


def test_sigmoid_center():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_hand_value():
    assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-16)


def test_sigmoid_saturates_without_overflow():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)


def _masked_sigmoid(z):
    """The boolean-mask form sigmoid had before, kept as the bit reference."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_equal_masked_form():
    nan_payloads = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF800000000ABCD],
        dtype=np.uint64,
    ).view(np.float64)
    special = np.concatenate([
        [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 5e-324, -5e-324, 709.8, -745.2],
        nan_payloads,
    ])
    random_z = np.random.default_rng(3).normal(0.0, 12.0, 100_000)
    for z in (special, random_z, random_z.reshape(500, 200)):
        got = sigmoid(z)
        assert got.shape == z.shape
        assert got.tobytes() == _masked_sigmoid(z).tobytes()
    for z in special:
        got = sigmoid(np.float64(z))
        assert type(got) is float
        assert np.float64(got).tobytes() == _masked_sigmoid(z).tobytes()


def test_sigmoid_array_and_symmetry():
    z = np.linspace(-30, 30, 61)
    p = sigmoid(z)
    assert np.all(np.abs(p + sigmoid(-z) - 1.0) < 1e-15)
    assert np.all(np.diff(p) > 0)


def test_zero_model_predicts_half():
    model = LogregModel(
        weights=np.zeros(3), bias=0.0, config=LogregConfig(), columns=("a", "b", "c"),
        history=(),
    )
    p = model.predict_proba(np.ones((4, 3)))
    assert np.all(p == 0.5)


def test_predict_proba_hand_value():
    model = LogregModel(
        weights=np.array([2.0, -1.0]), bias=0.5, config=LogregConfig(), columns=("a", "b"),
        history=(),
    )
    p = model.predict_proba(np.array([[1.0, 1.0]]))
    assert p[0] == pytest.approx(sigmoid(1.5), abs=1e-16)
    assert p[0] == pytest.approx(0.8175744761936437, abs=1e-15)


def test_predict_proba_rejects_wrong_width():
    model = LogregModel(weights=np.zeros(2), bias=0.0, config=LogregConfig(), columns=("a", "b"),
                        history=())
    with pytest.raises(DataError):
        model.predict_proba(np.zeros((2, 3)))


def test_bce_near_zero_when_confidently_right():
    p = np.array([1.0 - 1e-15, 1e-15])
    y = np.array([1, 0])
    assert bce_loss(p, y) < 1e-12


def test_bce_uninformative_is_log_two():
    p = np.full(6, 0.5)
    y = np.array([0, 1, 0, 1, 1, 0])
    assert bce_loss(p, y) == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_hand_fixture():
    x = np.array([[0.5], [-1.0], [2.0]])
    y = np.array([1, 0, 1])
    loss, _, _ = loss_and_gradient(x, y, np.array([1.0]), 0.0, l2=0.0)
    # mean of [ln(1+e^-0.5), ln(1+e^-1), ln(1+e^-2)]
    assert loss == pytest.approx(0.3047555609137674, abs=1e-15)


def test_gradient_single_row_exact():
    _, grad_w, grad_b = loss_and_gradient(np.array([[1.0]]), np.array([1]), np.array([0.0]), 0.0)
    assert grad_w[0] == -0.5
    assert grad_b == -0.5


def test_gradient_vanishes_at_perfect_fit():
    x = np.array([[50.0], [-50.0]])
    y = np.array([1, 0])
    _, grad_w, grad_b = loss_and_gradient(x, y, np.array([5.0]), 0.0)
    assert abs(grad_w[0]) < 1e-12
    assert abs(grad_b) < 1e-12


def test_l2_adds_weight_penalty_only():
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    y = np.array([0, 1])
    w = np.array([0.7, -0.4])
    base_loss, base_gw, base_gb = loss_and_gradient(x, y, w, 0.2, l2=0.0)
    reg_loss, reg_gw, reg_gb = loss_and_gradient(x, y, w, 0.2, l2=0.5)
    assert reg_loss == pytest.approx(base_loss + 0.25 * float(w @ w), abs=1e-15)
    assert np.allclose(reg_gw - base_gw, 0.5 * w, atol=1e-15)
    assert reg_gb == base_gb


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    h = 1e-6
    for trial in range(20):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = rng.normal(scale=0.5, size=d)
        b = float(rng.normal(scale=0.5))
        l2 = float(rng.choice([0.0, 0.1]))
        _, grad_w, grad_b = loss_and_gradient(x, y, w, b, l2=l2)

        def loss_at(wv, bv):
            return loss_and_gradient(x, y, wv, bv, l2=l2)[0]

        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (loss_at(w + e, b) - loss_at(w - e, b)) / (2 * h)
            assert abs(fd - grad_w[j]) / max(abs(fd), abs(grad_w[j]), 1e-8) < 1e-4
        fd_b = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
        assert abs(fd_b - grad_b) / max(abs(fd_b), abs(grad_b), 1e-8) < 1e-4


def test_fit_separates_well_spread_blobs():
    x, y = make_blobs(n_per_class=150, seed=3, centers=((0.0, 0.0), (8.0, 8.0)))
    model = fit_logreg(x, y, LogregConfig(learning_rate=0.5, max_iters=2000))
    assert np.array_equal(model.classify(x), y)


def test_fit_zero_iterations_returns_zero_model():
    x, y = make_blobs(n_per_class=20, seed=4)
    for newton in (False, True):
        model = fit_logreg(x, y, LogregConfig(max_iters=0, newton=newton))
        assert np.all(model.weights == 0.0)
        assert model.bias == 0.0
        assert np.all(model.predict_proba(x) == 0.5)
        assert len(model.history) == 1


def test_fit_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(TrainingError):
        fit_logreg(x, np.zeros(10, dtype=np.int64), LogregConfig())


def test_loss_history_monotone_on_standardized_data():
    x, y = make_blobs(n_per_class=100, seed=8)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    model = fit_logreg(x, y, LogregConfig(learning_rate=0.01, max_iters=400))
    losses = [loss for _, loss in model.history]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_fit_is_deterministic_and_order_insensitive():
    x, y = make_blobs(n_per_class=60, seed=12)
    cfg = LogregConfig(learning_rate=0.2, max_iters=300)
    first = fit_logreg(x, y, cfg)
    again = fit_logreg(x, y, cfg)
    assert np.array_equal(first.weights, again.weights)
    assert first.bias == again.bias
    assert first.history == again.history

    perm = np.random.default_rng(99).permutation(len(y))
    shuffled = fit_logreg(x[perm], y[perm], cfg)
    # Row order changes float summation order, so allow tiny drift.
    assert np.allclose(shuffled.weights, first.weights, atol=1e-9)
    assert abs(shuffled.bias - first.bias) < 1e-9
    assert np.array_equal(shuffled.classify(x), first.classify(x))


def test_early_stop_on_tolerance():
    x, y = make_blobs(n_per_class=50, seed=14)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    model = fit_logreg(x, y, LogregConfig(learning_rate=0.1, max_iters=100_000, tol=1e-8))
    assert model.n_iters < 100_000


def test_classify_threshold_boundary_inclusive():
    model = LogregModel(weights=np.zeros(1), bias=0.0, config=LogregConfig(), columns=("a",),
                        history=())
    # p is exactly 0.5 everywhere and the default threshold is 0.5
    assert model.classify(np.array([[3.0]])).tolist() == [1]


def test_custom_threshold_moves_boundary():
    x, y = make_blobs(n_per_class=80, seed=15)
    strict = fit_logreg(x, y, LogregConfig(learning_rate=0.5, max_iters=1000, threshold=0.9))
    p = strict.predict_proba(x)
    labels = strict.classify(x)
    assert np.array_equal(labels, (p >= 0.9).astype(np.int64))


def test_serialization_roundtrip():
    x, y = make_blobs(n_per_class=30, seed=16)
    model = fit_logreg(x, y, LogregConfig(learning_rate=0.3, max_iters=50, threshold=0.4),
                       columns=("a", "b"))
    payload = model.to_json_dict()
    assert payload["kind"] == "logreg"
    assert payload["threshold"] == 0.4
    back = LogregModel.from_json_dict(payload)
    assert back.columns == model.columns
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.config.threshold == 0.4
    assert np.array_equal(back.classify(x), model.classify(x))


def test_from_json_ignores_extra_keys():
    model = LogregModel(weights=np.zeros(1), bias=0.0, config=LogregConfig(), columns=("a",),
                        history=())
    payload = model.to_json_dict()
    payload["scaler"] = {"columns": ["a"], "mean": [0.0], "scale": [1.0]}
    back = LogregModel.from_json_dict(payload)
    assert back.columns == ("a",)


def test_config_validation():
    with pytest.raises(TrainingError):
        LogregConfig(learning_rate=0.0)
    with pytest.raises(TrainingError):
        LogregConfig(max_iters=-1)
    with pytest.raises(TrainingError):
        LogregConfig(threshold=1.5)
    with pytest.raises(TrainingError):
        LogregConfig(l2=-0.1)
    with pytest.raises(TrainingError, match="newton"):
        LogregConfig(newton=1)
    assert LogregConfig().newton is False


def _book_train_matrix(tmp_path):
    """The scaled training split of the conftest loan book, as the CLI's
    train builds it (the book is perfectly separable on fico)."""
    path = write_loans_csv(tmp_path / "loans.csv")
    table = dataset.filter_terminal(dataset.load_csv(path, dataset.default_column_specs()))
    matrix, _ = dataset.encode(dataset.handle_missing(dataset.drop_columns(table)))
    train = dataset.split(matrix, 0.25, 11).train
    return features.apply_scaler(features.fit_scaler(train), train)


def _overlapping_blobs():
    x, y = make_blobs(n_per_class=300, seed=21, centers=((0.0, 0.0), (1.5, 1.0)))
    return (x - x.mean(axis=0)) / x.std(axis=0), y


@pytest.mark.parametrize("data", ["book", "overlapping-blobs"])
def test_newton_loss_not_above_gradient_descent(tmp_path, data):
    if data == "book":
        matrix = _book_train_matrix(tmp_path)
        x, y = matrix.x, matrix.y
    else:
        x, y = _overlapping_blobs()
    gd = fit_logreg(x, y, LogregConfig(learning_rate=0.1, max_iters=300))
    newton = fit_logreg(x, y, LogregConfig(max_iters=300, newton=True))
    assert newton.final_loss <= gd.final_loss
    assert newton.n_iters < 300


def test_newton_stops_at_the_optimum_in_a_few_steps():
    x, y = _overlapping_blobs()
    for l2 in (0.0, 0.05):
        model = fit_logreg(x, y, LogregConfig(l2=l2, newton=True))
        assert model.n_iters <= 10
        _, grad_w, grad_b = loss_and_gradient(x, y, model.weights, model.bias, l2=l2)
        assert np.max(np.abs(grad_w)) < 1e-8 and abs(grad_b) < 1e-8
        losses = [loss for _, loss in model.history]
        assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_newton_halves_a_step_that_would_raise_the_loss():
    x = np.array([[0.37, 0.48], [0.85, 0.88], [-6.38, 3.53], [-2.93, 1.34],
                  [-43.86, -1.37], [5.52, -0.33]])
    y = np.array([1, 0, 1, 1, 1, 0])
    four = fit_logreg(x, y, LogregConfig(max_iters=4, newton=True))
    # The full Newton step from there, derived here from the textbook Hessian.
    xa = np.hstack([x, np.ones((6, 1))])
    p = four.predict_proba(x)
    hessian = xa.T @ (xa * (p * (1 - p))[:, None]) / 6
    _, grad_w, grad_b = loss_and_gradient(x, y, four.weights, four.bias)
    step = np.linalg.solve(hessian, np.append(grad_w, grad_b))
    full = loss_and_gradient(x, y, four.weights - step[:2], four.bias - step[2])[0]
    assert full > four.final_loss + 0.01

    model = fit_logreg(x, y, LogregConfig(newton=True))
    assert model.history[:5] == four.history
    losses = [loss for _, loss in model.history]
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert losses[5] < four.final_loss


@pytest.mark.parametrize("n", [1, 5, logreg.HESSIAN_ROWS - 1, logreg.HESSIAN_ROWS])
def test_hessian_of_one_block_has_the_bits_of_the_unblocked_product(n):
    rng = np.random.default_rng(n)
    x = np.hstack([rng.normal(size=(n, 6)), rng.random((n, 20)) < 0.1])
    p = rng.random(n)
    h = logreg._hessian(x, p)
    d = p * (1.0 - p)
    root = x * np.sqrt(d)[:, None]
    assert h[:-1, :-1].tobytes() == (root.T @ root / n).tobytes()
    assert h[:-1, -1].tobytes() == h[-1, :-1].tobytes() == (x.T @ d / n).tobytes()
    assert h[-1, -1] == d.sum() / n


def test_blocked_hessian_over_several_blocks_matches_the_unblocked_one():
    n = 3 * logreg.HESSIAN_ROWS + 123
    rng = np.random.default_rng(4)
    x = np.hstack([rng.normal(size=(n, 6)) * 40.0 + 5.0, rng.random((n, 20)) < 0.1])
    p = rng.random(n)
    root = np.hstack([x, np.ones((n, 1))]) * np.sqrt(p * (1.0 - p))[:, None]
    h, want = logreg._hessian(x, p), root.T @ root / n
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("l2", [0.0, 0.1])
def test_newton_leaves_an_all_zero_column_at_weight_zero(l2):
    # A level seen only outside the training split scales to an all-zero
    # column: with l2 = 0 the Hessian is singular there.
    x, y = _overlapping_blobs()
    x = np.insert(x, 1, 0.0, axis=1)
    model = fit_logreg(x, y, LogregConfig(l2=l2, newton=True))
    reference = fit_logreg(np.delete(x, 1, axis=1), y, LogregConfig(l2=l2, newton=True))
    assert model.weights[1] == 0.0
    assert np.allclose(np.delete(model.weights, 1), reference.weights, atol=1e-9)
    assert model.final_loss == pytest.approx(reference.final_loss, abs=1e-12)


def test_newton_on_separable_data_ends_with_finite_weights():
    # Without l2 the optimum lies at infinity. The loss clips at EPS, so the
    # improvement falls below tol and the fit stops with large finite weights.
    x, y = make_blobs(n_per_class=50, seed=3, centers=((0.0, 0.0), (10.0, 10.0)))
    model = fit_logreg(x, y, LogregConfig(newton=True))
    assert np.all(np.isfinite(model.weights)) and math.isfinite(model.bias)
    assert model.n_iters < 1000
    assert model.final_loss < 1e-9
    assert np.array_equal(model.classify(x), y)


@pytest.mark.parametrize("newton", [True, False])
def test_zero_tol_stops_once_the_loss_stops_moving(newton):
    # Newton on separable blobs flattens at the clipped loss floor; descent
    # at a large rate on a centred, overlapping pair converges to its last bit.
    if newton:
        x, y = make_blobs(n_per_class=50, seed=3, centers=((0.0, 0.0), (10.0, 10.0)))
    else:
        x, y = make_blobs(n_per_class=200, seed=1, centers=((0.0, 0.0), (1.0, 1.0)), scale=2.0)
        x = x - x.mean(axis=0)
    config = LogregConfig(learning_rate=1.0, max_iters=10_000, tol=0.0, newton=newton)
    model = fit_logreg(x, y, config)
    assert model.n_iters < 100
    assert model.history[-1][1] == model.history[-2][1]


def test_newton_beyond_the_float_range_is_training_error():
    # Features of 1e200 square past the float range in the Hessian; the
    # least-squares solve must not be reached.
    x = np.array([[1e200, 1.0], [-1e200, 2.0], [3e200, 0.5], [-2e200, 1.0]])
    with pytest.raises(TrainingError, match="float range"):
        fit_logreg(x, np.array([1, 0, 0, 1]), LogregConfig(newton=True))
