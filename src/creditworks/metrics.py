"""Binary classification metrics: confusion counts, per-class scores with
macro and weighted averages, ROC points and AUC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError


def _ratio(num: int, den: int) -> float:
    """num / den, or 0.0 for an undefined 0/0 cell (see ClassScores.degenerate)."""
    return num / den if den else 0.0


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with class 1 (default) as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def swapped(self) -> "ConfusionMatrix":
        """The same outcomes viewed with class 0 as positive."""
        return ConfusionMatrix(tp=self.tn, tn=self.tp, fp=self.fn, fn=self.fp)

    def to_json_dict(self) -> dict:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


def _check_binary(v, name):
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise DataError(f"{name} must be a non-empty 1-D vector")
    if not np.isin(v, (0, 1)).all():
        raise DataError(f"{name} must contain only 0 and 1")
    return v.astype(np.int64)


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = _check_binary(y_true, "y_true")
    y_pred = _check_binary(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise DataError(f"length mismatch: {y_true.size} vs {y_pred.size}")
    tp = int(np.count_nonzero((y_true == 1) & (y_pred == 1)))
    tn = int(np.count_nonzero((y_true == 0) & (y_pred == 0)))
    fp = int(np.count_nonzero((y_true == 0) & (y_pred == 1)))
    fn = int(np.count_nonzero((y_true == 1) & (y_pred == 0)))
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def precision(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp, cm.tp + cm.fp)


def recall(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp, cm.tp + cm.fn)


def f1_from_precision_recall(p: float, r: float) -> float:
    """Harmonic mean 2PR/(P+R); 0.0 (undefined) when both inputs are zero."""
    if p < 0 or r < 0:
        raise DataError("precision and recall must be >= 0")
    return 2.0 * p * r / (p + r) if p + r else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp + cm.tn, cm.total)


class ScoreTriple(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassScores:
    """One class's scores, with that class taken as the positive one.

    degenerate names, sorted, the scores whose denominator was zero:
    precision with no positive predictions, recall with no positive rows,
    f1 with precision + recall = 0. Those read 0.0 so averages and tables
    stay total; the names keep a true zero apart from an undefined one.
    """

    precision: float
    recall: float
    f1: float
    support: int
    degenerate: tuple[str, ...]

    @classmethod
    def of(cls, cm: ConfusionMatrix) -> "ClassScores":
        p, r = precision(cm), recall(cm)
        denominators = (cm.tp + cm.fp, cm.tp + cm.fn, p + r)
        flags = sorted(name for name, den in zip(ScoreTriple._fields, denominators) if den == 0)
        return cls(p, r, f1_from_precision_recall(p, r), cm.tp + cm.fn, tuple(flags))

    def to_json_dict(self) -> dict:
        scores = {name: getattr(self, name) for name in ScoreTriple._fields}
        return {**scores, "support": self.support, "degenerate": list(self.degenerate)}


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class scores plus the accuracy / macro / weighted summary."""

    confusion: ConfusionMatrix
    class0: ClassScores
    class1: ClassScores
    accuracy: float
    macro: ScoreTriple
    weighted: ScoreTriple

    def to_json_dict(self) -> dict:
        return {
            "confusion": self.confusion.to_json_dict(),
            "class0": self.class0.to_json_dict(),
            "class1": self.class1.to_json_dict(),
            "accuracy": self.accuracy,
            "macro": self.macro._asdict(),
            "weighted": self.weighted._asdict(),
        }


def report(y_true, y_pred) -> ClassificationReport:
    cm = confusion(y_true, y_pred)
    c0, c1 = ClassScores.of(cm.swapped()), ClassScores.of(cm)
    w0 = c0.support / cm.total
    w1 = c1.support / cm.total
    pairs = [(getattr(c0, name), getattr(c1, name)) for name in ScoreTriple._fields]
    return ClassificationReport(
        confusion=cm,
        class0=c0,
        class1=c1,
        accuracy=accuracy(cm),
        macro=ScoreTriple(*((v0 + v1) / 2.0 for v0, v1 in pairs)),
        weighted=ScoreTriple(*(w0 * v0 + w1 * v1 for v0, v1 in pairs)),
    )


def render_report(rep: ClassificationReport) -> str:
    """Plain-text table, 2-decimal cells.

    Columns: class 0, class 1, accuracy, macro average, weighted average;
    rows: precision, recall, f1-score. The accuracy column repeats the
    single accuracy value on every row.
    """
    header = ["", "0.0", "1.0", "Accuracy", "Macro Average", "Weighted Average"]
    rows = [header] + [
        [label]
        + [f"{getattr(s, name):.2f}" for s in (rep.class0, rep.class1)]
        + [f"{rep.accuracy:.2f}"]
        + [f"{getattr(s, name):.2f}" for s in (rep.macro, rep.weighted)]
        for name, label in zip(ScoreTriple._fields, ("Precision", "Recall", "f1-score"))
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [
            r[i].rjust(widths[i]) for i in range(1, len(header))
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]
    auc: float

    def __post_init__(self):
        if self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise DataError("ROC must run from (0,0) to (1,1)")


def roc(y_true, scores) -> RocCurve:
    """ROC points over descending score thresholds and the exact trapezoid AUC.

    One threshold per distinct score value plus a sentinel above the maximum;
    a below-minimum sentinel would repeat the final (1,1) point and is
    omitted. Tied scores move between points together. The trapezoid area is
    accumulated over integer counts and divided once at the end, which makes
    it exactly the tie-corrected rank statistic.
    """
    y = _check_binary(y_true, "y_true")
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise DataError(f"length mismatch: {y.size} labels vs {s.size} scores")
    if not ((s >= 0.0) & (s <= 1.0)).all():
        raise DataError("scores must lie in [0, 1]")
    n1 = int(np.count_nonzero(y == 1))
    n0 = int(y.size - n1)
    if n0 == 0 or n1 == 0:
        raise DataError("AUC is undefined when only one class is present")

    order = np.argsort(-s, kind="stable")
    sy = y[order]
    ss = s[order]
    # Indices closing each group of tied scores.
    ends = np.nonzero(np.append(ss[:-1] > ss[1:], True))[0]
    cum_tp = np.concatenate(([0], np.cumsum(sy)[ends]))
    cum_fp = np.concatenate(([0], ends + 1 - np.cumsum(sy)[ends]))

    area2 = int(np.sum(np.diff(cum_fp) * (cum_tp[:-1] + cum_tp[1:])))
    auc = area2 / (2 * n0 * n1)
    points = tuple(
        (int(fp) / n0, int(tp) / n1) for fp, tp in zip(cum_fp, cum_tp)
    )
    return RocCurve(points=points, auc=auc)
