"""Logistic regression trained by full-batch gradient descent on cross-entropy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingError, check_setting

# Probabilities are clipped away from {0, 1} before the log so a saturated
# sigmoid cannot produce an infinite loss.
EPS = 1e-12


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
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def loss_and_gradient(x, y, weights, bias, l2=0.0):
    """Loss plus its exact gradient in (weights, bias).

    The L2 term penalizes weights only, never the bias, and is averaged the
    same way the data term is not: penalty = l2/2 * ||w||^2 added to the mean
    loss, so d/dw = mean-gradient + l2 * w.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise DataError("gradient of an empty batch is undefined")
    p = sigmoid(x @ w + bias)
    loss = bce_loss(p, y)
    if l2:
        loss += 0.5 * l2 * float(np.dot(w, w))
    resid = p - y
    grad_w = x.T @ resid / n
    if l2:
        grad_w = grad_w + l2 * w
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


@dataclass(frozen=True)
class LogregConfig:
    learning_rate: float = 0.1
    max_iters: int = 1000
    tol: float = 1e-10
    l2: float = 0.0
    threshold: float = 0.5
    # Accepted for interface symmetry with the forest; descent from the zero
    # vector is deterministic so the value changes nothing.
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "tol", "l2", "threshold"):
            check_setting(name, getattr(self, name), float)
        for name in ("max_iters", "seed"):
            check_setting(name, getattr(self, name), int)
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
        return x @ self.weights + self.bias

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
            "config": {
                "learning_rate": self.config.learning_rate,
                "max_iters": self.config.max_iters,
                "tol": self.config.tol,
                "l2": self.config.l2,
                "threshold": self.config.threshold,
                "seed": self.config.seed,
            },
            "history": [[int(i), float(v)] for i, v in self.history],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LogregModel":
        if payload.get("kind") != "logreg":
            raise DataError(f"payload kind {payload.get('kind')!r} is not a logistic model")
        cfg = LogregConfig(**payload["config"])
        history = tuple((int(i), float(v)) for i, v in payload["history"])
        return cls(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            bias=float(payload["bias"]),
            config=cfg,
            history=history,
            columns=tuple(payload.get("columns", ())),
        )


def fit_logreg(x, y, config: LogregConfig = LogregConfig(), columns=()) -> LogregModel:
    """Full-batch gradient descent from the zero vector.

    history[0] is (0, loss before any step); each subsequent entry is the
    loss after that iteration's update. Descent stops early once the loss
    improves by less than tol between consecutive iterations.
    """
    x = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise DataError("training matrix must be 2-D")
    if y_arr.shape != (x.shape[0],):
        raise DataError("target length does not match row count")
    if x.shape[0] == 0:
        raise TrainingError("cannot fit on an empty matrix")
    uniq = np.unique(y_arr)
    if not np.isin(uniq, (0.0, 1.0)).all():
        raise TrainingError("labels must be 0/1")
    if uniq.size < 2:
        raise TrainingError("training data contains a single class")
    if not np.all(np.isfinite(x)):
        raise TrainingError("training matrix contains non-finite values")

    w = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_w, grad_b = loss_and_gradient(x, y_arr, w, b, config.l2)
    history = [(0, loss)]
    prev = loss
    for it in range(1, config.max_iters + 1):
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
        loss, grad_w, grad_b = loss_and_gradient(x, y_arr, w, b, config.l2)
        history.append((it, loss))
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss diverged at iteration {it}; lower the learning rate"
            )
        if abs(prev - loss) < config.tol:
            break
        prev = loss
    return LogregModel(
        weights=w, bias=b, config=config, history=tuple(history), columns=tuple(columns)
    )
