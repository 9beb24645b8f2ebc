import numpy as np
import pytest

from creditworks import (
    confusion,
    f1,
    f1_from_precision_recall,
    precision,
    recall,
    render_report,
    report,
    roc,
)
from creditworks.errors import DataError
from creditworks.metrics import ClassScores, accuracy, specificity


def test_confusion_minimal():
    cm = confusion([1, 0], [1, 0])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)


def test_confusion_one_of_each_cell():
    cm = confusion(y_true=[1, 1, 0, 0], y_pred=[1, 0, 1, 0])
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
    assert cm.total == 4


def test_confusion_matches_brute_tally():
    rng = np.random.default_rng(3)
    y_true = (rng.random(100) < 0.4).astype(int)
    y_pred = (rng.random(100) < 0.5).astype(int)
    cm = confusion(y_true, y_pred)
    tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tally["tp"] += 1
        elif t == 0 and p == 0:
            tally["tn"] += 1
        elif t == 0 and p == 1:
            tally["fp"] += 1
        else:
            tally["fn"] += 1
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (
        tally["tp"],
        tally["tn"],
        tally["fp"],
        tally["fn"],
    )


def test_confusion_validates_input():
    with pytest.raises(DataError):
        confusion([1, 0], [1])
    with pytest.raises(DataError):
        confusion([1, 2], [1, 0])
    with pytest.raises(DataError):
        confusion([], [])


def test_swapped_view_flips_classes():
    cm = confusion([1, 1, 0, 0, 0], [1, 0, 1, 0, 0])
    flipped = cm.swapped()
    assert (flipped.tp, flipped.tn) == (cm.tn, cm.tp)
    assert (flipped.fp, flipped.fn) == (cm.fn, cm.fp)


def test_precision_recall_values_and_flags():
    cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
    assert precision(cm) == 0.5
    assert recall(cm) == 0.5
    empty_pred = confusion([1, 1, 1, 1, 1, 0], [0, 0, 0, 0, 0, 0])
    assert precision(empty_pred) == 0.0
    assert recall(empty_pred) == 0.0
    assert type(precision(empty_pred)) is float and type(f1(empty_pred)) is float
    scores = ClassScores.of(empty_pred)
    assert "precision" in scores.degenerate
    assert "recall" not in scores.degenerate


def test_specificity_values():
    assert specificity(confusion([0, 0, 1], [0, 0, 1])) == 1.0
    assert specificity(confusion([0, 0, 1], [1, 1, 1])) == 0.0
    cm = confusion([0, 0, 0, 0, 1], [0, 0, 0, 1, 1])
    assert specificity(cm) == 0.75
    all_pos = confusion([1, 1], [1, 0])
    assert specificity(all_pos) == 0.0
    # Specificity is class 0's recall: no class-0 rows makes it undefined.
    assert "recall" in ClassScores.of(all_pos.swapped()).degenerate


def test_f1_from_precision_recall_hand_value():
    value = f1_from_precision_recall(0.65, 0.95)
    assert value == pytest.approx(0.7718749999999999, abs=1e-15)
    assert round(value, 2) == 0.77


def test_f1_degenerate_when_both_zero():
    assert f1_from_precision_recall(0.0, 0.0) == 0.0
    # Neither prediction is positive and no row is: p = r = 0, so f1 is 0/0.
    scores = ClassScores.of(confusion([0, 0], [0, 0]))
    assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)
    assert scores.degenerate == ("f1", "precision", "recall")
    # p = r = 0 from defined ratios still leaves f1 undefined.
    scores = ClassScores.of(confusion([1, 0], [0, 1]))
    assert scores.degenerate == ("f1",)


def test_f1_properties():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = float(rng.uniform(0.01, 1.0))
        r = float(rng.uniform(0.01, 1.0))
        value = f1_from_precision_recall(p, r)
        assert value == pytest.approx(2 * p * r / (p + r), abs=1e-15)
        assert min(p, r) - 1e-12 <= value <= max(p, r) + 1e-12


def test_f1_from_confusion_matches_definition():
    cm = confusion([1, 1, 1, 0, 0], [1, 1, 0, 1, 0])
    assert f1(cm) == pytest.approx(
        f1_from_precision_recall(float(precision(cm)), float(recall(cm))), abs=1e-15
    )


def test_accuracy_simple():
    assert accuracy(confusion([1, 0, 1, 0], [1, 0, 0, 0])) == 0.75


def test_report_perfect_predictions():
    y = [0, 1, 0, 1, 1, 0]
    rep = report(y, y)
    assert float(rep.accuracy) == 1.0
    for scores in (rep.class0, rep.class1, rep.macro, rep.weighted):
        assert float(scores.precision) == 1.0
        assert float(scores.recall) == 1.0
        assert float(scores.f1) == 1.0
    text = render_report(rep)
    body = text.splitlines()[1:]
    tokens = [t for line in body for t in line.split() if t.replace(".", "").isdigit()]
    assert tokens and all(t == "1.00" for t in tokens)


def test_report_single_class_predictions_flag_degenerate():
    rep = report([0, 1, 0, 1], [0, 0, 0, 0])
    flags = rep.to_json_dict()
    assert flags["class1"]["degenerate"] == ["f1", "precision"]
    assert flags["class0"]["degenerate"] == []
    assert float(rep.class1.recall) == 0.0
    assert float(rep.class0.recall) == 1.0


def test_report_weighted_uses_supports():
    # 8 true zeros, 2 true ones; recall 1.0 on zeros, 0.5 on ones.
    y_true = [0] * 8 + [1, 1]
    y_pred = [0] * 8 + [1, 0]
    rep = report(y_true, y_pred)
    assert float(rep.class0.recall) == 1.0
    assert float(rep.class1.recall) == 0.5
    assert float(rep.weighted.recall) == pytest.approx(0.9, abs=1e-15)
    assert float(rep.macro.recall) == pytest.approx(0.75, abs=1e-15)


def test_accuracy_equals_weighted_recall():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(4, 60))
        y_true = (rng.random(n) < 0.5).astype(int)
        if y_true.min() == y_true.max():
            y_true[0] = 1 - y_true[0]
        y_pred = (rng.random(n) < 0.5).astype(int)
        rep = report(y_true, y_pred)
        assert float(rep.accuracy) == pytest.approx(float(rep.weighted.recall), abs=1e-12)


def test_render_report_layout():
    rep = report([0, 1, 0, 1], [0, 1, 1, 0])
    text = render_report(rep)
    lines = text.splitlines()
    header = lines[0].split()
    assert header[:2] == ["0.0", "1.0"]
    assert "Accuracy" in lines[0]
    labels = [line.split()[0] for line in lines[1:]]
    assert labels == ["Precision", "Recall", "f1-score"]
    assert text.endswith("\n")


def test_report_json_shape():
    rep = report([0, 1, 1], [0, 1, 0])
    payload = rep.to_json_dict()
    assert set(payload) >= {"accuracy", "class0", "class1", "macro", "weighted", "confusion"}
    assert payload["confusion"]["tp"] == 1


def test_roc_perfect_separation():
    curve = roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    assert curve.auc == 1.0


def test_roc_reversed_scores():
    curve = roc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1])
    assert curve.auc == 0.0


def test_roc_constant_scores_give_half():
    curve = roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
    assert curve.auc == 0.5
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)


def test_roc_matches_pairwise_oracle():
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
    s = np.array([0.2, 0.7, 0.4, 0.4, 0.9, 0.1, 0.3, 0.3, 0.6, 0.8])
    curve = roc(y, s)
    pos = s[y == 1]
    neg = s[y == 0]
    conc = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    mw = (conc + 0.5 * ties) / (len(pos) * len(neg))
    assert curve.auc == pytest.approx(mw, abs=1e-12)


def test_roc_label_reversal_complements_auc():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(4, 80))
        y = (rng.random(n) < 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.integers(0, 10, size=n) / 10.0
        a = roc(y, s).auc
        b = roc(1 - y, s).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)


def test_roc_points_monotone():
    rng = np.random.default_rng(19)
    y = (rng.random(50) < 0.5).astype(int)
    y[0], y[1] = 0, 1
    s = rng.integers(0, 5, size=50) / 5.0
    curve = roc(y, s)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)


def test_roc_tie_heavy_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(4, 200))
        y = (rng.random(n) < 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.integers(0, 4, size=n) / 4.0
        curve = roc(y, s)
        pos = s[y == 1]
        neg = s[y == 0]
        conc = float((pos[:, None] > neg[None, :]).sum())
        ties = float((pos[:, None] == neg[None, :]).sum())
        mw = (conc + 0.5 * ties) / (len(pos) * len(neg))
        assert curve.auc == pytest.approx(mw, abs=1e-12)


def test_roc_validates_input():
    with pytest.raises(DataError):
        roc([1, 1], [0.5, 0.6])
    with pytest.raises(DataError):
        roc([0, 1], [0.5, 1.5])
    with pytest.raises(DataError):
        roc([0, 1], [0.5])
    with pytest.raises(DataError, match=r"scores must lie in \[0, 1\]"):
        roc([0, 1, 0, 1], [0.1, float("nan"), 0.3, 0.9])
