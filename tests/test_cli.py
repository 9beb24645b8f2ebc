import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import LOAN_HEADER, make_loan_rows, write_config, write_loans_csv
from creditworks import cli, dataset, features, forest, logreg
from creditworks.cli import COMMANDS, main
from creditworks.errors import ModelDataMismatchError


@pytest.fixture(autouse=True)
def canonical_output(monkeypatch):
    monkeypatch.setenv("CREDITWORKS_CANONICAL", "1")


@pytest.fixture
def workdir(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json")
    return tmp_path


def run(workdir, *argv):
    return main([argv[0], "--config", str(workdir / "config.json"), *argv[1:]])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_explore_writes_summary_and_correlations(workdir):
    assert run(workdir, "explore") == 0
    out = workdir / "out"
    summary = read_json(out / "summary.json")
    assert summary["rows_terminal"] == 120
    balance = summary["class_balance"]
    assert balance["count0"] + balance["count1"] == 120
    assert balance["w0"] + balance["w1"] == pytest.approx(1.0, abs=1e-12)
    assert {e["column"] for e in summary["threshold_counts"]} == {
        "annual_inc",
        "open_acc",
        "total_acc",
    }
    assert "generated_at" not in summary
    header, rows = read_csv(out / "correlation.csv")
    assert header == ["feature", "r"]
    values = [float(r) for _, r in rows]
    assert values == sorted(values, reverse=True)


def test_explore_timestamp_appears_without_canonical_env(workdir, monkeypatch):
    monkeypatch.delenv("CREDITWORKS_CANONICAL")
    assert run(workdir, "explore") == 0
    summary = read_json(workdir / "out" / "summary.json")
    assert "generated_at" in summary


def test_explore_with_no_terminal_rows_is_a_data_error(tmp_path):
    write_loans_csv(tmp_path / "loans.csv", make_loan_rows(n=10, all_status="Current"))
    write_config(tmp_path / "config.json")
    assert run(tmp_path, "explore") == 2


def test_prepare_writes_loadable_matrices(workdir):
    assert run(workdir, "prepare") == 0
    prep = workdir / "out" / "prepared"
    x_train = np.load(prep / "x_train.npy")
    y_train = np.load(prep / "y_train.npy")
    x_test = np.load(prep / "x_test.npy")
    y_test = np.load(prep / "y_test.npy")
    assert x_train.shape[0] == y_train.shape[0] == 90
    assert x_test.shape[0] == y_test.shape[0] == 30
    assert x_train.shape[1] == x_test.shape[1]
    meta = read_json(prep / "columns.json")
    assert meta["train_rows"] == 90
    assert meta["test_rows"] == 30
    assert len(meta["columns"]) == x_train.shape[1]
    scaler = read_json(prep / "scaler.json")
    assert scaler["columns"] == meta["columns"]


def test_train_logreg_writes_model_and_log(workdir):
    assert run(workdir, "train") == 0
    model = read_json(workdir / "out" / "model.json")
    assert model["kind"] == "logreg"
    assert all(np.isfinite(model["weights"]))
    assert "scaler" in model and "threshold" in model
    log = read_json(workdir / "out" / "training_log.json")
    assert log["kind"] == "logreg"
    assert log["iterations"] == len(log["history"]) - 1
    assert log["history"][0][0] == 0


def test_train_is_byte_deterministic(workdir):
    assert run(workdir, "train") == 0
    first_model = (workdir / "out" / "model.json").read_bytes()
    first_log = (workdir / "out" / "training_log.json").read_bytes()
    assert run(workdir, "train") == 0
    assert (workdir / "out" / "model.json").read_bytes() == first_model
    assert (workdir / "out" / "training_log.json").read_bytes() == first_log


def test_train_forest_deterministic_and_logged(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(
        tmp_path / "config.json",
        model={"kind": "forest", "n_trees": 5, "max_depth": 4},
    )
    assert run(tmp_path, "train") == 0
    model_bytes = (tmp_path / "out" / "model.json").read_bytes()
    model = json.loads(model_bytes)
    assert model["kind"] == "forest"
    assert len(model["trees"]) == 5
    log = read_json(tmp_path / "out" / "training_log.json")
    assert log["n_trees"] == 5
    assert all(t["depth"] <= 4 for t in log["trees"])
    assert run(tmp_path, "train") == 0
    assert (tmp_path / "out" / "model.json").read_bytes() == model_bytes


def test_model_flag_redirects_output(workdir):
    target = workdir / "custom.json"
    assert run(workdir, "train", "--model", str(target)) == 0
    assert target.exists()
    assert not (workdir / "out" / "model.json").exists()


def test_unknown_model_kind_is_usage_error(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", model={"kind": "svm"})
    assert run(tmp_path, "train") == 64


def test_bad_model_option_is_usage_error(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", model={"kind": "logreg", "bogus": 1})
    assert run(tmp_path, "train") == 64


def test_missing_config_flag_is_usage_error():
    assert main(["train"]) == 64


def test_unknown_command_is_usage_error():
    assert main(["frobnicate", "--config", "x.json"]) == 64


def test_unreadable_config_is_usage_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 64


def test_config_without_seed_is_usage_error(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", seed=None)
    assert run(tmp_path, "train") == 64


def test_missing_input_csv_is_data_error(tmp_path):
    write_config(tmp_path / "config.json", input="absent.csv")
    assert run(tmp_path, "train") == 2


def test_single_class_training_is_degenerate(tmp_path):
    write_loans_csv(tmp_path / "loans.csv", make_loan_rows(n=30, all_status="Fully Paid"))
    write_config(tmp_path / "config.json")
    assert run(tmp_path, "train") == 3


def test_evaluate_writes_reports_and_comparison(workdir):
    assert run(workdir, "train") == 0
    assert run(workdir, "evaluate") == 0
    out = workdir / "out"
    report_text = (out / "report.txt").read_text(encoding="utf-8")
    assert report_text.splitlines()[0].split()[:2] == ["0.0", "1.0"]
    report = read_json(out / "report.json")
    assert report["model"] == "logreg"
    assert 0.0 <= report["auc"] <= 1.0
    header, points = read_csv(out / "roc.csv")
    assert header == ["fpr", "tpr"]
    assert [float(v) for v in points[0]] == [0.0, 0.0]
    assert [float(v) for v in points[-1]] == [1.0, 1.0]
    comparison = read_json(out / "comparison.json")
    assert set(comparison) == {"logreg"}


def test_comparison_accumulates_both_model_kinds(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json")
    lr_model = tmp_path / "lr.json"
    assert run(tmp_path, "train", "--model", str(lr_model)) == 0
    assert run(tmp_path, "evaluate", "--model", str(lr_model)) == 0

    write_config(
        tmp_path / "config.json",
        model={"kind": "forest", "n_trees": 5, "max_depth": 4},
    )
    rf_model = tmp_path / "rf.json"
    assert run(tmp_path, "train", "--model", str(rf_model)) == 0
    assert run(tmp_path, "evaluate", "--model", str(rf_model)) == 0

    comparison = read_json(tmp_path / "out" / "comparison.json")
    assert set(comparison) == {"logreg", "forest"}


def test_evaluate_against_mismatched_data_exits_4(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json")
    assert run(tmp_path, "train") == 0

    # Same schema, but one purpose level never occurs, so the encoded
    # feature columns no longer line up with the trained model.
    narrow = [r for r in make_loan_rows(n=80, seed=9) if r[13] != "small_business"]
    write_loans_csv(tmp_path / "narrow.csv", narrow)
    write_config(tmp_path / "config.json", input="narrow.csv")
    assert run(tmp_path, "evaluate") == 4


@pytest.mark.parametrize(
    "relabel, expected",
    [
        pytest.param(lambda i, p: "wedding" if p == "small_business" else p,
                     "missing purpose=small_business; extra purpose=wedding", id="one-level"),
        pytest.param(lambda i, p: f"p{i % 8}",
                     "missing purpose=credit_card, purpose=small_business; "
                     "extra purpose=p1, purpose=p2, purpose=p3 (+4 more)", id="many-levels"),
        pytest.param(lambda i, p: "z" * 60 + p, "extra purpose=zzz", id="long-names"),
    ],
)
def test_score_column_mismatch_is_one_short_line(workdir, capsys, relabel, expected):
    assert run(workdir, "train") == 0
    column = LOAN_HEADER.index("purpose")
    rows = make_loan_rows()
    for i, row in enumerate(rows):
        row[column] = relabel(i, row[column])
    write_loans_csv(workdir / "loans.csv", rows)
    capsys.readouterr()
    assert run(workdir, "score") == 4
    err = capsys.readouterr().err
    model_path = f"model {workdir / 'out' / 'model.json'}: "
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    # The path is named in full; the rest of the line stays short.
    assert model_path in err and len(err) - len(model_path) < 180, err
    assert expected in err, err


def test_column_order_mismatch_says_so():
    matrix = dataset.DesignMatrix(columns=("b", "a"), x=np.zeros((1, 2)), y=np.zeros(1))
    with pytest.raises(ModelDataMismatchError, match="same columns, other order$"):
        cli._check_columns(("a", "b"), matrix, Path("model.json"))


def test_evaluate_without_model_file_is_data_error(workdir):
    assert run(workdir, "evaluate") == 2


def test_score_labels_match_threshold(workdir):
    assert run(workdir, "train") == 0
    assert run(workdir, "score") == 0
    header, rows = read_csv(workdir / "out" / "scores.csv")
    assert header == ["id", "pd", "label"]
    assert len(rows) == 120
    for _, pd_value, label in rows:
        assert label == ("1" if float(pd_value) >= 0.5 else "0")


def test_price_writes_consistent_quotes(workdir):
    assert run(workdir, "train") == 0
    assert run(workdir, "price") == 0
    header, rows = read_csv(workdir / "out" / "pricing.csv")
    assert header == ["id", "pd", "ead", "recovery_rate", "lgd", "el", "spread_bps"]
    assert len(rows) == 120
    saw_zero_ead = saw_positive = False
    for _, pd_value, ead, rate, lgd, el, spread in rows:
        pd_value, ead, rate = float(pd_value), float(ead), float(rate)
        lgd, el, spread = float(lgd), float(el), float(spread)
        assert lgd == pytest.approx(ead * (1 - rate), abs=1e-6)
        assert el == pytest.approx(pd_value * lgd, abs=1e-6)
        if ead == 0.0:
            saw_zero_ead = True
            assert spread == 0.0 and el == 0.0
        else:
            saw_positive = True
            assert spread > 0.0
    assert saw_zero_ead and saw_positive
    recovery = read_json(workdir / "out" / "recovery.json")
    assert set(recovery["rates"]) <= {"car", "credit_card", "small_business"}
    assert 0.0 <= recovery["overall_rate"] <= 1.0


def test_price_without_recovery_column_exits_5(tmp_path):
    header = [c for c in LOAN_HEADER if c != "recoveries"]
    rows = [[c for i, c in enumerate(r) if LOAN_HEADER[i] != "recoveries"]
            for r in make_loan_rows()]
    write_loans_csv(tmp_path / "loans.csv", rows, header=header)

    kinds = {"term": "text", "sub_grade": "text", "emp_title": "text",
             "emp_length": "text", "grade": "text", "issue_d": "text",
             "title": "text", "purpose": "text", "loan_status": "text"}
    roles = {"loan_status": "target", "emp_title": "drop", "emp_length": "drop",
             "grade": "drop", "issue_d": "drop", "title": "drop",
             "total_rec_prncp": "exposure_aux"}
    spec = [
        {"name": name, "kind": kinds.get(name, "numeric"), "role": roles.get(name, "feature")}
        for name in header
    ]
    (tmp_path / "columns.json").write_text(json.dumps(spec), encoding="utf-8")
    write_config(tmp_path / "config.json", column_spec="columns.json")

    assert run(tmp_path, "train") == 0
    assert run(tmp_path, "price") == 5


def test_out_flag_overrides_config_dir(workdir):
    elsewhere = workdir / "elsewhere"
    assert main([
        "explore", "--config", str(workdir / "config.json"), "--out", str(elsewhere)
    ]) == 0
    assert (elsewhere / "summary.json").exists()
    assert not (workdir / "out").exists()


def _set(name, index, value):
    """Edit a forest model: trees[0][name][index] = value, value a function of the model."""

    def edit(model):
        model["trees"][0][name][index] = value(model)
        return model

    return edit


def _without(*keys):
    return lambda model: {k: v for k, v in model.items() if k not in keys}


def _drop_last_threshold(model):
    model["trees"][0]["threshold"].pop()
    return model


def _empty_first_leaf(model):
    tree = model["trees"][0]
    leaf = tree["feature"].index(-1)
    tree["count0"][leaf] = tree["count1"][leaf] = 0
    return model


def _child_before_parent(model):
    # A well-formed tree, except that node 3 is the parent of nodes 1 and 2.
    model["trees"][0] = {
        "feature": [0, -1, -1, 0, -1],
        "threshold": [0.5, 0.0, 0.0, 0.25, 0.0],
        "left": [3, -1, -1, 1, -1],
        "right": [4, -1, -1, 2, -1],
        "count0": [2, 1, 0, 1, 1],
        "count1": [1, 0, 1, 1, 0],
    }
    return model


NESTED_TREE = {
    "feature": 0,
    "threshold": 0.5,
    "left": {"count0": 1, "count1": 0, "probability": 0.0},
    "right": {"count0": 0, "count1": 1, "probability": 1.0},
}

# Each maps a trained forest's model.json to a defective one, and names a
# fragment of the message that must report it.
FOREST_MODEL_DEFECTS = {
    "json_list": (lambda model: [model], "must hold a JSON object"),
    "kind_only": (lambda model: {"kind": "forest"}, "retrain"),
    "missing_params": (_without("params"), "lacks the field 'params'"),
    "missing_format": (_without("format"), "retrain"),
    "unknown_format": (lambda model: {**model, "format": "cart-arrays-0"}, "retrain"),
    "nested_layout": (
        lambda model: {**_without("format")(model), "trees": [NESTED_TREE]},
        "retrain",
    ),
    "unequal_lengths": (_drop_last_threshold, "equal length"),
    "child_before_parent": (_child_before_parent, "exceed its parent"),
    "child_outside_arrays": (
        _set("right", 0, lambda m: len(m["trees"][0]["feature"])),
        "inside the arrays",
    ),
    "two_parents": (_set("right", 0, lambda m: m["trees"][0]["left"][0]), "exactly one node"),
    "feature_too_large": (_set("feature", 0, lambda m: m["n_features"]), "feature index outside"),
    "feature_below_leaf_mark": (_set("feature", 0, lambda m: -2), "feature index outside"),
    "fractional_feature": (_set("feature", 0, lambda m: 0.5), "list of integers"),
    "negative_count": (_set("count0", 0, lambda m: -1), "non-negative"),
    "empty_leaf": (_empty_first_leaf, "at least one training sample"),
    "fractional_max_depth": (
        lambda model: {**model, "params": {**model["params"], "max_depth": 2.5}},
        "max_depth must be an integer",
    ),
}


@pytest.mark.parametrize("defect", sorted(FOREST_MODEL_DEFECTS))
def test_score_rejects_defective_forest_model(tmp_path, capsys, defect):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", model={"kind": "forest", "n_trees": 2, "max_depth": 3})
    assert run(tmp_path, "train") == 0
    path = tmp_path / "out" / "model.json"
    model = read_json(path)
    assert model["trees"][0]["feature"][0] >= 0  # the edits need an inner root
    edit, fragment = FOREST_MODEL_DEFECTS[defect]
    path.write_text(json.dumps(edit(model)), encoding="utf-8")
    capsys.readouterr()
    assert run(tmp_path, "score") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert fragment in err, err


def test_evaluate_with_corrupt_comparison_is_data_error(workdir, capsys):
    assert run(workdir, "train") == 0
    (workdir / "out" / "comparison.json").write_text("{not json", encoding="utf-8")
    capsys.readouterr()
    assert run(workdir, "evaluate") == 2
    assert capsys.readouterr().err.startswith("creditworks: ")
    assert not (workdir / "out" / "report.txt").exists()


def test_boolean_seed_is_usage_error(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", seed=True)
    assert run(tmp_path, "train") == 64


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("train", {"test_fraction": "abc"}, "test_fraction"),
        ("price", {"risk_free_rate": "x"}, "risk_free_rate"),
        ("explore", {"thresholds": [{"column": "dti", "op": ">", "value": "abc"}]}, "threshold"),
        # A threshold value is read as test_fraction and risk_free_rate are.
        ("explore", {"thresholds": [{"column": "dti", "op": ">", "value": math.nan}]}, "threshold"),
        ("explore", {"thresholds": [{"column": "dti", "op": ">", "value": math.inf}]}, "threshold"),
        ("explore", {"thresholds": [{"column": "dti", "op": ">", "value": True}]}, "threshold"),
    ],
)
def test_non_numeric_config_value_is_usage_error(workdir, capsys, command, overrides, key):
    if command == "price":
        assert run(workdir, "train") == 0
    write_config(workdir / "config.json", **overrides)
    capsys.readouterr()
    assert run(workdir, command) == 64
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert key in err, err


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        pytest.param("explore", {"thresholds": 5}, "'thresholds'", id="thresholds-number"),
        pytest.param("explore", {"thresholds": [{"column": 1, "op": ">", "value": 1}]}, "threshold",
                     id="threshold-column-number"),
        pytest.param("explore", {"thresholds": [{"column": "dti", "op": [">"], "value": 1}]},
                     "threshold op", id="threshold-op-list"),
        pytest.param("train", {"exposure_columns": [1]}, "'exposure_columns'", id="exposure-columns-list"),
        pytest.param("train", {"exposure_columns": "abc"}, "'exposure_columns'",
                     id="exposure-columns-string"),
        pytest.param("train", {"exposure_columns": {"funded": 5}}, "'exposure_columns'",
                     id="exposure-column-number"),
        # Only an absent key or null selects the default columns or status map.
        pytest.param("train", {"exposure_columns": False}, "'exposure_columns'",
                     id="exposure-columns-false"),
        pytest.param("train", {"exposure_columns": 0}, "'exposure_columns'", id="exposure-columns-zero"),
        pytest.param("train", {"exposure_columns": []}, "'exposure_columns'",
                     id="exposure-columns-empty-list"),
        pytest.param("train", {"status_map": {}}, "'status_map'", id="status-map-empty"),
        pytest.param("train", {"rate_scale": "basis points"}, "rate_scale", id="rate-scale-unknown"),
        # rate_scale is a top-level key only.
        pytest.param("train", {"rate_scale": "percent", "exposure_columns": {"rate_scale": "fraction"}},
                     "'rate_scale' is a top-level key", id="rate-scale-in-exposure-columns"),
        pytest.param("train", {"column_spec": 5}, "'column_spec'", id="column-spec-number"),
        pytest.param("train", {"input": 5}, "'input'", id="input-number"),
        pytest.param("train", {"out_dir": 5}, "'out_dir'", id="out-dir-number"),
        pytest.param("train", {"allow_extra_columns": "no"}, "'allow_extra_columns'",
                     id="allow-extra-columns-string"),
        pytest.param("train", {"model": {"kind": "logreg", "max_iters": 1.5}}, "max_iters",
                     id="max-iters-fraction"),
        pytest.param("train", {"model": {"kind": "logreg", "l2": True}}, "l2", id="l2-boolean"),
        # The CLI always fits by Newton's method: "newton" is no config key.
        pytest.param("train", {"model": {"kind": "logreg", "newton": False}}, "newton",
                     id="newton-not-a-key"),
        pytest.param("train", {"model": {"kind": "forest", "n_trees": 2.5}}, "n_trees",
                     id="n-trees-fraction"),
        pytest.param("train", {"model": {"kind": "forest", "n_trees": True}}, "n_trees",
                     id="n-trees-boolean"),
        pytest.param("train", {"model": {"kind": "forest", "bootstrap": "no"}}, "bootstrap",
                     id="bootstrap-string"),
        pytest.param("train", {"model": {"kind": "forest", "feature_subsample": True}},
                     "feature_subsample", id="feature-subsample-boolean"),
        pytest.param("train", {"model": {"kind": "forest", "max_depth": 2.5}}, "max_depth",
                     id="max-depth-fraction"),
    ],
)
def test_wrongly_typed_config_value_is_usage_error(workdir, capsys, command, overrides, key):
    write_config(workdir / "config.json", **overrides)
    assert run(workdir, command) == 64
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert key in err, err
    assert not (workdir / "out" / "model.json").exists()


def test_non_finite_newton_step_is_training_error(workdir, capsys, monkeypatch):
    def nan_solution(a, b, rcond=None):
        return np.full(b.shape, np.nan), None, 0, None

    monkeypatch.setattr(np.linalg, "lstsq", nan_solution)
    assert run(workdir, "train") == 3
    err = capsys.readouterr().err
    assert err.startswith("creditworks: Newton iteration 1 gives non-finite weights"), err
    assert err.count("\n") == 1, err
    assert not (workdir / "out" / "model.json").exists()


def test_threshold_rule_on_non_numeric_column_is_data_error(workdir, capsys):
    write_config(workdir / "config.json", thresholds=[{"column": "purpose", "op": ">", "value": 1}])
    assert run(workdir, "explore") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "'purpose'" in err, err
    assert not (workdir / "out" / "summary.json").exists()


def test_price_with_term_beyond_float_range_is_data_error(workdir, capsys):
    rows = make_loan_rows()
    huge = " 1" + "0" * 400 + " months"
    rows[3][LOAN_HEADER.index("term")] = huge
    write_loans_csv(workdir / "loans.csv", rows)
    assert run(workdir, "train") == 0
    capsys.readouterr()
    assert run(workdir, "price") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert f"cannot read a term in months from {huge.strip()!r}" in err, err
    assert not (workdir / "out" / "pricing.csv").exists()


@pytest.mark.parametrize("risk_free_rate", [0.03, -0.03])
def test_price_with_term_beyond_discounting_range_is_data_error(workdir, capsys, risk_free_rate):
    # The month count is a finite float, but its discount factor underflows
    # to 0 (or overflows), so no spread is defined.
    rows = make_loan_rows()
    index = next(i for i, r in enumerate(rows) if r[LOAN_HEADER.index("loan_status")] == "Charged Off")
    rows[index][LOAN_HEADER.index("term")] = " 1" + "0" * 300 + " months"
    write_loans_csv(workdir / "loans.csv", rows)
    assert run(workdir, "train") == 0
    write_config(workdir / "config.json", risk_free_rate=risk_free_rate)
    capsys.readouterr()
    assert run(workdir, "price") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "float range" in err or "premium annuity" in err, err
    assert not (workdir / "out" / "pricing.csv").exists()
    assert not (workdir / "out" / "recovery.json").exists()


def _write_unrepaid_long_loan(workdir, status: str) -> int:
    """Rewrite the first loan of the status with nothing repaid and a
    23,600-year term; returns its id."""
    rows = make_loan_rows()
    index = next(i for i, r in enumerate(rows) if r[LOAN_HEADER.index("loan_status")] == status)
    rows[index][LOAN_HEADER.index("term")] = " 283200 months"
    rows[index][LOAN_HEADER.index("total_rec_prncp")] = 0.0
    write_loans_csv(workdir / "loans.csv", rows)
    return index


def test_price_with_annuity_beyond_float_range_is_data_error(workdir, capsys):
    # Nothing repaid, so the CDS maturity is the whole 23,600-year term: its
    # discount factor at -3% is finite, the annuity it weights is not. The
    # book separates on fico, so a repaid loan's PD is near 0 and the
    # survival branch (1 - pd) * T * D(r, T) carries the annuity past the
    # float range. A charged-off loan's PD is near 1 (next test).
    _write_unrepaid_long_loan(workdir, "Fully Paid")
    assert run(workdir, "train") == 0
    write_config(workdir / "config.json", risk_free_rate=-0.03)
    capsys.readouterr()
    assert run(workdir, "price") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "premium annuity" in err, err
    assert not (workdir / "out" / "pricing.csv").exists()


def test_price_of_a_near_certain_default_is_finite(workdir):
    # A charged-off loan with the same terms: 1 - pd is about 1e-11, so the
    # survival branch of the annuity is finite.
    index = _write_unrepaid_long_loan(workdir, "Charged Off")
    assert run(workdir, "train") == 0
    write_config(workdir / "config.json", risk_free_rate=-0.03)
    assert run(workdir, "price") == 0
    header, rows = read_csv(workdir / "out" / "pricing.csv")
    loan = dict(zip(header, rows[index]))
    assert loan["id"] == str(index) and float(loan["pd"]) > 1.0 - 1e-9
    assert np.isfinite(float(loan["spread_bps"])) and float(loan["spread_bps"]) > 0


def test_non_utf8_csv_is_data_error(workdir, capsys):
    data = (workdir / "loans.csv").read_bytes()
    offset = data.index(b"eng")  # an emp_title cell
    (workdir / "loans.csv").write_bytes(data[:offset] + b"\xe9" + data[offset + 1:])
    assert run(workdir, "train") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert f"offset {offset}" in err, err


def test_non_finite_exposure_cell_is_data_error(workdir, capsys):
    rows = make_loan_rows()
    rows[4][LOAN_HEADER.index("recoveries")] = "inf"
    write_loans_csv(workdir / "loans.csv", rows)
    assert run(workdir, "train") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "'recoveries'" in err and "line 6" in err, err


@pytest.mark.parametrize(
    "cells",
    [
        pytest.param({"term": "0 months"}, id="term-0"),
        pytest.param({"loan_amnt": 0, "total_rec_prncp": -250.0}, id="unfunded-negative-received"),
    ],
)
def test_price_with_zero_remaining_term_is_data_error(workdir, capsys, cells):
    rows = make_loan_rows()
    index = next(i for i, r in enumerate(rows) if r[LOAN_HEADER.index("loan_status")] == "Charged Off")
    for name, value in cells.items():
        rows[index][LOAN_HEADER.index(name)] = value
    write_loans_csv(workdir / "loans.csv", rows)
    assert run(workdir, "train") == 0
    capsys.readouterr()
    assert run(workdir, "price") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: 1 loan(s)") and err.count("\n") == 1, err
    assert err.rstrip().endswith(f"first id {index}"), err
    assert not (workdir / "out" / "pricing.csv").exists()
    assert not (workdir / "out" / "recovery.json").exists()


def _write_bytes(name, data):
    def write(path):
        (path / name).write_bytes(data)
    return write


@pytest.mark.parametrize(
    "setup, overrides, code, fragment",
    [
        pytest.param(_write_bytes("columns.json", b"{not json"), {"column_spec": "columns.json"},
                     2, "not valid UTF-8 JSON", id="spec-not-json"),
        pytest.param(_write_bytes("columns.json", b'[{"name": "caf\xe9"}]'),
                     {"column_spec": "columns.json"}, 2, "not valid UTF-8 JSON", id="spec-not-utf8"),
        pytest.param(None, {"status_map": {"Fully Paid": "x", "Charged Off": 1}}, 64, "'status_map'",
                     id="status-map-string-label"),
        pytest.param(None, {"status_map": ["Fully Paid"]}, 64, "'status_map'", id="status-map-list"),
        pytest.param(None, {"status_map": {"Fully Paid": False, "Charged Off": True}}, 64,
                     "'status_map'", id="status-map-boolean-labels"),
        pytest.param(None, {"status_map": {"Fully Paid": 0, "Charged Off": 2}}, 64, "'status_map'",
                     id="status-map-label-2"),
        pytest.param(None, {"model": [1]}, 64, "'model'", id="model-list"),
        pytest.param(None, {"model": "logreg"}, 64, "'model'", id="model-string"),
    ],
)
def test_malformed_config_values_exit_with_one_line(workdir, capsys, setup, overrides, code, fragment):
    if setup is not None:
        setup(workdir)
    write_config(workdir / "config.json", **overrides)
    assert run(workdir, "train") == code
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert fragment in err, err


def test_non_utf8_config_is_usage_error(workdir, capsys):
    path = workdir / "config.json"
    path.write_bytes(path.read_bytes().replace(b'"out"', b'"\xe9"'))
    assert run(workdir, "train") == 64
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "not UTF-8" in err, err


def test_logreg_model_with_fractional_iteration_count_is_data_error(workdir, capsys):
    assert run(workdir, "train") == 0
    path = workdir / "out" / "model.json"
    model = read_json(path)
    model["config"]["max_iters"] = 1.5
    path.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert run(workdir, "score") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "max_iters must be an integer" in err, err


@pytest.mark.parametrize(
    "edit, fragment",
    [
        pytest.param(lambda model: model.pop("scaler"), "lacks the field 'scaler'", id="no-scaler"),
        pytest.param(lambda model: model["scaler"]["columns"].reverse(), "other columns than the model",
                     id="scaler-columns-differ"),
        # Scored, these would give NaN PDs or every PD 0.0.
        pytest.param(lambda model: model["weights"].__setitem__(0, math.nan), "weights and bias must be finite",
                     id="nan-weight"),
        pytest.param(lambda model: model.__setitem__("bias", math.inf), "weights and bias must be finite",
                     id="infinite-bias"),
        pytest.param(lambda model: model["scaler"]["mean"].__setitem__(0, math.inf), "means must be finite",
                     id="infinite-mean"),
        pytest.param(lambda model: model["scaler"]["scale"].__setitem__(0, 0.0), "scales positive",
                     id="zero-scale"),
        pytest.param(lambda model: model["scaler"]["scale"].__setitem__(0, math.nan), "scales positive",
                     id="nan-scale"),
    ],
)
def test_logreg_model_needs_a_scaler_on_its_columns(workdir, capsys, edit, fragment):
    assert run(workdir, "train") == 0
    path = workdir / "out" / "model.json"
    model = read_json(path)
    edit(model)
    path.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert run(workdir, "score") == 2
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert fragment in err, err
    assert not (workdir / "out" / "scores.csv").exists()


@pytest.mark.parametrize("spec", [False, "", 0, []])
def test_falsy_column_spec_is_usage_error(workdir, capsys, spec):
    write_config(workdir / "config.json", column_spec=spec)
    assert run(workdir, "explore") == 64
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "'column_spec'" in err, err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_is_checked_before_the_input_is_read(tmp_path, capsys, command):
    write_config(tmp_path / "config.json", input="absent.csv", model={"kind": "svm"})
    assert run(tmp_path, command) == 64
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert "'svm'" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "score"])
@pytest.mark.parametrize(
    "overrides, key",
    [({"missing_policy": 5}, "'missing_policy'"), ({"test_fraction": 1.5}, "'test_fraction'")],
)
def test_out_of_range_config_value_is_usage_error(workdir, capsys, command, overrides, key):
    write_config(workdir / "config.json", **overrides)
    assert run(workdir, command) == 64
    err = capsys.readouterr().err
    assert err.startswith("creditworks: ") and err.count("\n") == 1, err
    assert key in err, err
    assert not (workdir / "out").exists()


def _forbid(monkeypatch, *names):
    """Make the named stages fail the test if a command calls them."""
    modules = {"split": dataset, "split_rows": dataset, "fit_scaler": features}
    for name in names:
        monkeypatch.setattr(modules[name], name, lambda *args, name=name: pytest.fail(f"{name} called"))


@pytest.mark.parametrize("command", ["explore", "score", "price"])
def test_commands_on_the_whole_book_neither_split_nor_scale(workdir, monkeypatch, command):
    assert run(workdir, "train") == 0
    _forbid(monkeypatch, "split", "split_rows", "fit_scaler")
    assert run(workdir, command) == 0


@pytest.mark.parametrize("command", ["prepare", "train", "evaluate"])
def test_split_commands_encode_rows_without_copying_both_halves(workdir, monkeypatch, command):
    assert run(workdir, "train") == 0
    _forbid(monkeypatch, "split")
    assert run(workdir, command) == 0


def _block_model(tmp_path, kind):
    """A model file of the given kind fitted on random data, and its columns."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(400, 4)) * [1.0, 50.0, 1e4, 0.1] + [0.0, 10.0, 5e4, 3.0]
    y = (x[:, 0] + rng.normal(size=400) > 0).astype(np.int64)
    columns = ("a", "b", "c", "d")
    if kind == "logreg":
        scaler = features.fit_scaler(dataset.DesignMatrix(columns, x, y))
        model = logreg.fit_logreg(scaler.transform(x), y, logreg.LogregConfig(newton=True), columns=columns)
        payload = {**model.to_json_dict(), "scaler": scaler.to_json_dict()}
    else:
        config = forest.ForestConfig(n_trees=4, seed=2, params=forest.CartParams(max_depth=6))
        payload = forest.forest_to_json_dict(forest.fit_forest(x, y, config, columns=columns))
    cli._write_json(tmp_path / "model.json", payload)
    return tmp_path / "model.json", columns


@pytest.mark.parametrize("kind", ["logreg", "forest"])
def test_block_predictions_equal_one_shot_predictions(tmp_path, kind):
    # Three whole blocks and a remainder, so that blocks and their edges both count.
    path, columns = _block_model(tmp_path, kind)
    n = 3 * cli.PREDICT_ROWS + 123
    rng = np.random.default_rng(4)
    x = rng.normal(size=(n, 4)) * [1.5, 60.0, 2e4, 0.2] + [0.0, 10.0, 5e4, 3.0]
    matrix = dataset.DesignMatrix(columns, x, np.zeros(n, dtype=np.int64))
    _, model, scaler = cli._load_model(path)
    want = model.predict_proba(matrix.x if scaler is None else scaler.transform(matrix.x))
    got_kind, pd_scores, labels = cli._predictions(path, matrix)
    assert got_kind == kind
    assert pd_scores.tobytes() == want.tobytes()
    threshold = model.config.threshold if kind == "logreg" else 0.5
    assert labels.tobytes() == (want >= threshold).astype(np.int64).tobytes()


@pytest.mark.parametrize("model", [None, {"kind": "forest", "n_trees": 3, "max_depth": 3}])
def test_evaluate_and_forest_train_fit_no_scaler(workdir, monkeypatch, model):
    if model is not None:
        write_config(workdir / "config.json", model=model)
    assert run(workdir, "train") == 0
    _forbid(monkeypatch, "fit_scaler")
    assert run(workdir, "evaluate") == 0
    if model is not None:
        assert run(workdir, "train") == 0


def test_forest_train_in_a_subprocess_prints_each_line_once(tmp_path):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", model={"kind": "forest", "n_trees": 4, "max_depth": 3})
    # Three workers, whatever this machine's CPU count: two forked children.
    script = (
        "import sys; from creditworks import cli, forest; "
        "forest._workers = lambda x, params: 3; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    src = Path(forest.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script, "train", "--config", str(tmp_path / "config.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    out = tmp_path / "out"
    assert done.stdout.splitlines() == [f"wrote {out / 'model.json'}", f"wrote {out / 'training_log.json'}"]


def test_failed_forest_worker_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    write_loans_csv(tmp_path / "loans.csv")
    write_config(tmp_path / "config.json", model={"kind": "forest", "n_trees": 4, "max_depth": 3})
    parent, real_grow = os.getpid(), forest._grow

    def grow_failing_in_children(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError
        return real_grow(*args, **kwargs)

    monkeypatch.setattr(forest, "_workers", lambda x, params: 2)
    monkeypatch.setattr(forest, "_grow", grow_failing_in_children)
    assert run(tmp_path, "train") == 3
    err = capsys.readouterr().err
    assert err == "creditworks: forest worker 1 failed with exit status 1\n", err
    assert not (tmp_path / "out" / "model.json").exists()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.tuples(
            st.integers(0, 10**7),
            st.floats(width=64),
            st.floats(allow_nan=False, min_value=-1e-300, max_value=1e-300),
            st.integers(0, 1),
        ),
        max_size=30,
    )
)
def test_number_writer_writes_the_bytes_of_csv_writer(tmp_path, rows):
    header = ["id", "pd", "tiny", "label"]
    cli._write_csv(tmp_path / "want.csv", header, rows)
    cli._write_numbers(tmp_path / "got.csv", header, "%d,%r,%r,%d\n", rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
