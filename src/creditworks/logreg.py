"""Logistic regression on cross-entropy, fitted by Newton's method or by
full-batch gradient descent."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import check_training_data, row_blocks
from .errors import DataError, TrainingError, check_setting

# Probabilities are clipped away from {0, 1} before the log so a saturated
# sigmoid cannot produce an infinite loss.
EPS = 1e-12

# A Newton step is halved at most this often looking for a loss that does
# not rise; 2**-40 of a step moves no weight of a sane fit.
MAX_HALVINGS = 40


def sigmoid(z):
    """Numerically stable logistic function, elementwise on arrays."""
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) never overflows: it is exp(-z) where z >= 0 and exp(z) below.
    # minimum(z, -z) rather than -abs(z) so that a NaN keeps its sign bit.
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def bce_loss(p, y) -> float:
    """Mean binary cross-entropy of predicted probabilities against 0/1 labels."""
    p = np.clip(np.asarray(p, dtype=np.float64), EPS, 1.0 - EPS)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise DataError(f"shape mismatch: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise DataError("loss of an empty batch is undefined")
    # y * log(p) + (1 - y) * log(1 - p), in two arrays rather than five.
    q = 1.0 - p
    np.log(p, out=p)
    np.log(q, out=q)
    p *= y
    q *= 1.0 - y
    p += q
    return float(-np.mean(p))


def loss_and_gradient(x, y, weights, bias, l2=0.0):
    """Loss plus its exact gradient in (weights, bias).

    The L2 term penalizes weights only, never the bias, and is averaged the
    same way the data term is not: penalty = l2/2 * ||w||^2 added to the mean
    loss, so d/dw = mean-gradient + l2 * w.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.shape[0] == 0:
        raise DataError("gradient of an empty batch is undefined")
    return _objective(x, y, w, bias, l2)[:3]


def _rows_dot(x, w):
    """x @ w for a 2-D x, summed by numpy's own loop rather than BLAS, so the
    bits do not depend on how many threads the BLAS library runs."""
    return np.einsum("ij,j->i", x, w)


def _objective(x, y, w, bias, l2, hessian=False):
    """(loss, grad_w, grad_b, h) at (w, bias), in one pass over the dense
    row blocks of x, a 2-D array or a DesignMatrix (see
    dataset.row_blocks), which give the same bits. x has at least one row.

    h, when asked for, is the Hessian of the mean cross-entropy in
    (weights, bias) without the L2 term: [[XᵀDX, XᵀD1], [1ᵀDX, ΣD]] / n
    with D = p(1-p). Otherwise it is None. The products of x are summed
    block after block, in row order.
    """
    n, k = x.shape
    p = np.empty(n)
    grad_w = np.zeros(k)
    if hessian:
        h = np.zeros((k + 1, k + 1))
    for start, rows in row_blocks(x):
        p_rows = p[start : start + len(rows)]
        p_rows[:] = sigmoid(_rows_dot(rows, w) + bias)
        grad_w += rows.T @ (p_rows - y[start : start + len(rows)])
        if hessian:
            with np.errstate(over="ignore", invalid="ignore"):
                d = p_rows * (1.0 - p_rows)
                h[:k, k] += rows.T @ d
                # The block is this pass's own copy: weighted in place.
                rows *= np.sqrt(d)[:, None]
                h[:k, :k] += rows.T @ rows
    loss = bce_loss(p, y)
    if l2:
        loss += 0.5 * l2 * float(np.dot(w, w))
    grad_w /= n
    if l2:
        grad_w = grad_w + l2 * w
    grad_b = float((p - y).mean())
    if not hessian:
        return loss, grad_w, grad_b, None
    h[k, :k] = h[:k, k]
    h[k, k] = (p * (1.0 - p)).sum()
    h /= n
    return loss, grad_w, grad_b, h


@dataclass(frozen=True)
class LogregConfig:
    """Fit settings. newton=True fits by Newton's method, as the CLI always
    does; the default False fits by gradient descent at learning_rate, which
    Newton ignores (see the README)."""

    learning_rate: float = 0.1
    max_iters: int = 1000
    tol: float = 1e-10
    l2: float = 0.0
    threshold: float = 0.5
    # Accepted for interface symmetry with the forest; either fit starts
    # from the zero vector and is deterministic, so the value changes nothing.
    seed: int = 0
    newton: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "tol", "l2", "threshold"):
            check_setting(name, getattr(self, name), float)
        for name in ("max_iters", "seed"):
            check_setting(name, getattr(self, name), int)
        check_setting("newton", self.newton, bool)
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_iters < 0:
            raise TrainingError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tol < 0:
            raise TrainingError(f"tol must be >= 0, got {self.tol}")
        if self.l2 < 0:
            raise TrainingError(f"l2 must be >= 0, got {self.l2}")
        if not 0.0 < self.threshold < 1.0:
            raise TrainingError(f"threshold must lie in (0, 1), got {self.threshold}")


@dataclass(frozen=True)
class LogregModel:
    """Fitted coefficients plus the loss trace that produced them."""

    weights: np.ndarray
    bias: float
    config: LogregConfig
    history: tuple[tuple[int, float], ...]
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_iters(self) -> int:
        return self.history[-1][0]

    @property
    def final_loss(self) -> float:
        return self.history[-1][1]

    def decision_function(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.weights.shape[0]:
            raise DataError(
                f"model has {self.weights.shape[0]} coefficients, input has {x.shape[1]} columns"
            )
        return _rows_dot(x, self.weights) + self.bias

    def predict_proba(self, x) -> np.ndarray:
        return sigmoid(self.decision_function(x))

    def classify(self, x, threshold: float | None = None) -> np.ndarray:
        t = self.config.threshold if threshold is None else threshold
        return (self.predict_proba(x) >= t).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {
            "kind": "logreg",
            "weights": [float(v) for v in self.weights],
            "bias": float(self.bias),
            "threshold": float(self.config.threshold),
            "columns": list(self.columns),
            # Every setting but newton, which model files do not record.
            "config": {k: v for k, v in asdict(self.config).items() if k != "newton"},
            "history": [[int(i), float(v)] for i, v in self.history],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LogregModel":
        if payload.get("kind") != "logreg":
            raise DataError(f"payload kind {payload.get('kind')!r} is not a logistic model")
        cfg = LogregConfig(**payload["config"])
        history = tuple((int(i), float(v)) for i, v in payload["history"])
        weights = np.asarray(payload["weights"], dtype=np.float64)
        bias = float(payload["bias"])
        if not (np.isfinite(weights).all() and np.isfinite(bias)):
            raise DataError("model weights and bias must be finite numbers")
        return cls(
            weights=weights,
            bias=bias,
            config=cfg,
            history=history,
            columns=tuple(payload.get("columns", ())),
        )


def fit_logreg(x, y, config: LogregConfig = LogregConfig(), columns=()) -> LogregModel:
    """Fit from the zero vector by Newton's method if config.newton, else
    by full-batch gradient descent. x is a 2-D array or a DesignMatrix;
    either way each pass takes its rows a block at a time (see _objective).

    history[0] is (0, loss before any step); each subsequent entry is the
    loss after that iteration's update. Either fit stops early once the
    loss moves by no more than tol between consecutive iterations, so
    tol = 0 still stops once the loss stops changing.
    """
    x, y = check_training_data(x, y)
    if y.min() == y.max():
        raise TrainingError("training data contains a single class")

    fit = _fit_newton if config.newton else _fit_gd
    w, b, history = fit(x, y.astype(np.float64), config)
    return LogregModel(
        weights=w, bias=b, config=config, history=tuple(history), columns=tuple(columns)
    )


def _fit_gd(x, y, config):
    """Full-batch gradient descent at config.learning_rate."""
    w = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b, _ = _objective(x, y, w, b, config.l2)
    history = [(0, loss)]
    prev = loss
    for it in range(1, config.max_iters + 1):
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
        loss, grad_w, grad_b, _ = _objective(x, y, w, b, config.l2)
        history.append((it, loss))
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss diverged at iteration {it}; lower the learning rate"
            )
        if abs(prev - loss) <= config.tol:
            break
        prev = loss
    return w, b, history


def _fit_newton(x, y, config):
    """Newton's method on (weights, bias), each step halved until the loss
    does not rise.

    The step solves H s = g by least squares, so a singular Hessian (say,
    two equal columns with l2 = 0) takes the minimum-norm step.
    """
    k = x.shape[1]
    diag = np.arange(k)
    w = np.zeros(k, dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b, h = _objective(x, y, w, b, config.l2, hessian=True)
    history = [(0, loss)]
    for it in range(1, config.max_iters + 1):
        if it == 1:
            # An all-zero column (a level absent from the training rows) has a
            # zero row and column in h and a zero gradient. It stays out of
            # the solve, so its weight stays exactly 0, as under descent.
            keep = np.flatnonzero(np.diagonal(h) > 0)
        h[diag, diag] += config.l2
        g = np.append(grad_w, grad_b)
        # LAPACK's least squares may never return on a non-finite matrix.
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
            raise TrainingError(
                f"Newton iteration {it}: the Hessian is beyond the float range; rescale the features"
            )
        step = np.zeros(k + 1)
        try:
            step[keep] = np.linalg.lstsq(h[np.ix_(keep, keep)], g[keep], rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise TrainingError(f"Newton step failed at iteration {it}: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise TrainingError(
                f"Newton iteration {it} gives non-finite weights; rescale the features or set l2 > 0"
            )
        t = 1.0
        for _ in range(MAX_HALVINGS):
            w_t, b_t = w - t * step[:k], b - t * float(step[k])
            # The pass that gives the trial's loss also gives its Hessian,
            # which the next iteration needs if the step is taken.
            trial = _objective(x, y, w_t, b_t, config.l2, hessian=True)
            if trial[0] <= loss:
                break
            t *= 0.5
        else:
            break  # no step lowers the loss: the fit is at its optimum
        prev = loss
        w, b = w_t, b_t
        loss, grad_w, grad_b, h = trial
        history.append((it, loss))
        if prev - loss <= config.tol:
            break
    return w, b, history

