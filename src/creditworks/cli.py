"""Command-line pipeline driver.

    creditworks <explore|prepare|train|evaluate|score|price>
                --config <path> [--model <path>] [--out <dir>]

The config is JSON; paths inside it resolve relative to the config file.
All randomness flows from the config's mandatory seed. Setting
CREDITWORKS_CANONICAL=1 drops timestamps from reports so that reruns with
one config produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import dataset, exposure, features, forest, logreg, metrics
from .cds import fair_spreads
from .errors import (
    CreditworksError,
    DataError,
    ModelDataMismatchError,
    TrainingError,
    UsageError,
)

DEFAULT_MODEL_FILE = "model.json"


def _canonical() -> bool:
    return os.environ.get("CREDITWORKS_CANONICAL") == "1"


def _stamp() -> dict:
    if _canonical():
        return {}
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_config(path: str) -> tuple[dict, Path]:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg, p.parent


def _config_float(cfg: dict, key: str, default: float) -> float:
    value = cfg.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise UsageError(f"config {key!r} must be a finite number, got {value!r}")
    return number


def _config_value(cfg: dict, key: str, default, kind: type, what: str):
    """cfg[key], or default when absent, which must be of type kind."""
    value = cfg.get(key, default)
    if type(value) is not kind:
        raise UsageError(f"config {key!r} must be {what}, got {value!r}")
    return value


def _status_map(cfg: dict) -> dict | None:
    mapping = cfg.get("status_map")
    if mapping is not None and not (
        isinstance(mapping, dict)
        and all(type(label) is int and label in (0, 1) for label in mapping.values())
    ):
        raise UsageError(f"config 'status_map' must map loan statuses to 0 or 1, got {mapping!r}")
    return mapping


def _resolve(base: Path, p: str) -> Path:
    path = Path(p)
    return path if path.is_absolute() else base / path


@dataclass
class _Pipeline:
    """Everything the commands share, computed once per invocation."""

    terminal: dataset.RawLoanTable
    table: dataset.RawLoanTable
    matrix: dataset.DesignMatrix
    encode_report: dataset.EncodeReport
    pair: dataset.SplitPair
    scaler: features.Scaler
    exposure_columns: exposure.ExposureColumns
    seed: int


def _exposure_columns(cfg: dict) -> exposure.ExposureColumns:
    overrides = cfg.get("exposure_columns") or {}
    if not (isinstance(overrides, dict) and all(isinstance(v, str) for v in overrides.values())):
        raise UsageError(f"config 'exposure_columns' must map names to strings, got {overrides!r}")
    overrides = {"rate_scale": cfg.get("rate_scale", "percent"), **overrides}
    try:
        return exposure.ExposureColumns(**overrides)
    except (TypeError, DataError) as exc:
        raise UsageError(f"bad exposure_columns in config: {exc}") from exc


def _run_pipeline(cfg: dict, base: Path) -> _Pipeline:
    if "input" not in cfg:
        raise UsageError("config must name an input CSV under the 'input' key")
    seed = cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError("config must pin an integer 'seed'; runs may not self-seed")

    if cfg.get("column_spec"):
        spec_path = _config_value(cfg, "column_spec", None, str, "a path")
        specs = dataset.load_column_specs(_resolve(base, spec_path))
    else:
        specs = dataset.default_column_specs()

    input_path = _resolve(base, _config_value(cfg, "input", None, str, "a path"))
    allow_extra = _config_value(cfg, "allow_extra_columns", False, bool, "true or false")
    try:
        raw = dataset.load_csv(input_path, specs, allow_extra=allow_extra)
    except FileNotFoundError as exc:
        raise DataError(f"input CSV not found: {input_path}") from exc

    terminal = dataset.filter_terminal(raw, _status_map(cfg))
    cleaned = dataset.handle_missing(
        dataset.drop_columns(terminal),
        cfg.get("missing_policy", "fill_median_or_mode"),
    )
    matrix, encode_report = dataset.encode(cleaned)
    pair = dataset.split(matrix, _config_float(cfg, "test_fraction", 0.2), seed)
    return _Pipeline(
        terminal=terminal,
        table=cleaned,
        matrix=matrix,
        encode_report=encode_report,
        pair=pair,
        scaler=features.fit_scaler(pair.train),
        exposure_columns=_exposure_columns(cfg),
        seed=seed,
    )


def _model_config(cfg: dict, seed: int):
    spec = cfg.get("model")
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise UsageError(f"config 'model' must be a JSON object, got {spec!r}")
    spec = dict(spec)
    kind = spec.pop("kind", "logreg")
    try:
        if kind == "logreg":
            return kind, logreg.LogregConfig(seed=seed, **spec)
        if kind == "forest":
            params = forest.CartParams(
                criterion=spec.pop("criterion", "gini"),
                max_depth=spec.pop("max_depth", None),
                min_samples_split=spec.pop("min_samples_split", 2),
                feature_subsample=spec.pop("feature_subsample", "auto"),
            )
            return kind, forest.ForestConfig(seed=seed, params=params, **spec)
    except (TypeError, TrainingError) as exc:
        raise UsageError(f"bad model settings: {exc}") from exc
    raise UsageError(f"unknown model kind {kind!r}; expected logreg or forest")


def _load_model(path: Path):
    """Read a model file; returns (kind, model, scaler or None)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"model {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"model {path} must hold a JSON object, not a {type(payload).__name__}")
    kind = payload.get("kind")
    try:
        if kind == "logreg":
            model = logreg.LogregModel.from_json_dict(payload)
            scaler = (
                features.Scaler.from_json_dict(payload["scaler"])
                if "scaler" in payload
                else None
            )
            return kind, model, scaler
        if kind == "forest":
            return kind, forest.forest_from_json_dict(payload), None
    except KeyError as exc:
        raise DataError(f"model {path} lacks the field {exc}") from exc
    except (TypeError, ValueError, DataError, TrainingError) as exc:
        raise DataError(f"model {path} is unusable: {exc}") from exc
    raise DataError(f"model {path} has unknown kind {kind!r}")


def _check_columns(model_columns, matrix: dataset.DesignMatrix, path: Path) -> None:
    if tuple(model_columns) != tuple(matrix.columns):
        raise ModelDataMismatchError(
            f"model {path} was trained on columns {list(model_columns)}, "
            f"data encodes to {list(matrix.columns)}"
        )


def _predict_pd(kind, model, scaler, matrix: dataset.DesignMatrix) -> np.ndarray:
    if kind == "logreg":
        x = scaler.transform(matrix.x) if scaler is not None else matrix.x
        return model.predict_proba(x)
    return model.predict_proba(matrix.x)


def _threshold_rules(cfg: dict):
    raw = cfg.get("thresholds")
    if raw is None:
        return features.DEFAULT_THRESHOLD_RULES
    if not isinstance(raw, list):
        raise UsageError(f"config 'thresholds' must be a list of rules, got {raw!r}")
    ops = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
    rules = []
    for entry in raw:
        try:
            column, op, value = entry["column"], entry["op"], float(entry["value"])
        except (TypeError, KeyError, ValueError) as exc:
            raise UsageError(f"bad threshold rule {entry!r}") from exc
        if not isinstance(column, str):
            raise UsageError(f"bad threshold rule {entry!r}")
        if not isinstance(op, str) or op not in ops:
            raise UsageError(f"unknown threshold op {op!r}")
        rules.append((column, f"{op} {value:g}", lambda v, f=ops[op], t=value: f(v, t)))
    return tuple(rules)


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_explore(cfg: dict, base: Path, out: Path) -> int:
    pipe = _run_pipeline(cfg, base)
    counts = features.threshold_counts(pipe.terminal, _threshold_rules(cfg))
    balance = dataset.class_balance(pipe.matrix.y)
    corr = features.correlation_report(pipe.matrix)

    _write_csv(out / "correlation.csv", ["feature", "r"], [(name, float(r)) for name, r, _ in corr])
    summary = {
        "rows_terminal": pipe.terminal.row_count,
        "class_balance": {
            "count0": balance.count0,
            "count1": balance.count1,
            "w0": balance.w0,
            "w1": balance.w1,
        },
        "threshold_counts": [
            {"column": col, "rule": rule, "count": hits} for col, rule, hits in counts
        ],
        "undefined_correlations": sorted(name for name, _, defined in corr if not defined),
        **_stamp(),
    }
    _write_json(out / "summary.json", summary)
    print(f"wrote {out / 'correlation.csv'}")
    print(f"wrote {out / 'summary.json'}")
    return 0


def cmd_prepare(cfg: dict, base: Path, out: Path) -> int:
    pipe = _run_pipeline(cfg, base)
    prep = out / "prepared"
    prep.mkdir(parents=True, exist_ok=True)
    np.save(prep / "x_train.npy", pipe.pair.train.x)
    np.save(prep / "y_train.npy", pipe.pair.train.y)
    np.save(prep / "x_test.npy", pipe.pair.test.x)
    np.save(prep / "y_test.npy", pipe.pair.test.y)
    _write_json(
        prep / "columns.json",
        {
            "columns": list(pipe.matrix.columns),
            "seed": pipe.seed,
            "test_fraction": pipe.pair.test_fraction,
            "train_rows": pipe.pair.train.n_rows,
            "test_rows": pipe.pair.test.n_rows,
        },
    )
    _write_json(prep / "encode_report.json", pipe.encode_report.to_json_dict())
    _write_json(prep / "scaler.json", pipe.scaler.to_json_dict())
    print(f"wrote {prep}/x_train.npy y_train.npy x_test.npy y_test.npy")
    print(f"wrote {prep / 'columns.json'} encode_report.json scaler.json")
    return 0


def cmd_train(cfg: dict, base: Path, out: Path, model_path: Path | None) -> int:
    pipe = _run_pipeline(cfg, base)
    kind, model_cfg = _model_config(cfg, pipe.seed)
    target = model_path or out / DEFAULT_MODEL_FILE

    if kind == "logreg":
        train = features.apply_scaler(pipe.scaler, pipe.pair.train)
        model = logreg.fit_logreg(train.x, train.y, model_cfg, columns=train.columns)
        payload = model.to_json_dict()
        payload["scaler"] = pipe.scaler.to_json_dict()
        log = {
            "kind": kind,
            "iterations": model.n_iters,
            "final_loss": model.final_loss,
            "history": [[i, v] for i, v in model.history],
            **_stamp(),
        }
    else:
        model = forest.fit_forest(
            pipe.pair.train.x, pipe.pair.train.y, model_cfg, columns=pipe.matrix.columns
        )
        payload = forest.forest_to_json_dict(model)
        log = {
            "kind": kind,
            "n_trees": model.n_trees,
            "trees": [t.stats() for t in model.trees],
            **_stamp(),
        }

    _write_json(target, payload)
    _write_json(out / "training_log.json", log)
    print(f"wrote {target}")
    print(f"wrote {out / 'training_log.json'}")
    return 0


def cmd_evaluate(cfg: dict, base: Path, out: Path, model_path: Path | None) -> int:
    pipe = _run_pipeline(cfg, base)
    source = model_path or out / DEFAULT_MODEL_FILE
    kind, model, scaler = _load_model(source)
    _check_columns(model.columns, pipe.matrix, source)

    test = pipe.pair.test
    pd_scores = _predict_pd(kind, model, scaler, test)
    threshold = model.config.threshold if kind == "logreg" else 0.5
    y_pred = (pd_scores >= threshold).astype(np.int64)
    rep = metrics.report(test.y, y_pred)
    curve = metrics.roc(test.y, pd_scores)

    # Read before writing anything, so a bad file leaves no partial output.
    comparison_path = out / "comparison.json"
    comparison = {}
    if comparison_path.exists():
        try:
            comparison = json.loads(comparison_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{comparison_path} is not valid JSON: {exc}") from exc
        if not isinstance(comparison, dict):
            raise DataError(f"{comparison_path} must hold a JSON object")

    (out / "report.txt").write_text(metrics.render_report(rep), encoding="utf-8")
    _write_json(
        out / "report.json",
        {"model": kind, "auc": curve.auc, **rep.to_json_dict(), **_stamp()},
    )
    _write_csv(out / "roc.csv", ["fpr", "tpr"], [(fpr, tpr) for fpr, tpr in curve.points])

    comparison[kind] = curve.auc
    _write_json(comparison_path, comparison)

    print(f"wrote {out / 'report.txt'} report.json roc.csv comparison.json")
    print(f"{kind} test auc {curve.auc:.6f} accuracy {rep.accuracy:.4f}")
    return 0


def cmd_score(cfg: dict, base: Path, out: Path, model_path: Path | None) -> int:
    pipe = _run_pipeline(cfg, base)
    source = model_path or out / DEFAULT_MODEL_FILE
    kind, model, scaler = _load_model(source)
    _check_columns(model.columns, pipe.matrix, source)

    pd_scores = _predict_pd(kind, model, scaler, pipe.matrix)
    threshold = model.config.threshold if kind == "logreg" else 0.5
    labels = (pd_scores >= threshold).astype(np.int64)
    rows = [(i, float(p), int(label)) for i, (p, label) in enumerate(zip(pd_scores, labels))]
    _write_csv(out / "scores.csv", ["id", "pd", "label"], rows)
    print(f"wrote {out / 'scores.csv'} ({len(rows)} rows)")
    return 0


def cmd_price(cfg: dict, base: Path, out: Path, model_path: Path | None) -> int:
    pipe = _run_pipeline(cfg, base)
    source = model_path or out / DEFAULT_MODEL_FILE
    kind, model, scaler = _load_model(source)
    _check_columns(model.columns, pipe.matrix, source)

    cols = pipe.exposure_columns
    recovery = exposure.recovery_rates(pipe.table, cols)
    pd_scores = _predict_pd(kind, model, scaler, pipe.matrix)
    risk_free = _config_float(cfg, "risk_free_rate", 0.0)

    loans = exposure.table_ead(pipe.table, cols)
    # Nothing outstanding: no contract to write on the loan, spread 0.
    live = loans.amount > 0.0
    stuck = np.flatnonzero(live & (loans.remaining_months == 0))
    if stuck.size:
        raise DataError(
            f"{stuck.size} loan(s) have principal outstanding but 0 remaining months "
            f"(term 0, or nothing funded), so no CDS maturity; first id {stuck[0]}"
        )
    rate = exposure.row_recovery_rates(recovery, pipe.table, cols)
    loss = exposure.lgd(loans.amount, rate)
    el = exposure.expected_loss(pd_scores, loans.amount, rate)
    spread_bps = np.zeros(len(pd_scores))
    spread_bps[live] = fair_spreads(
        loans.amount[live], loans.remaining_months[live] / 12.0, risk_free, pd_scores[live], rate[live]
    ).spread_bps

    columns = (pd_scores, loans.amount, rate, loss, el, spread_bps)
    _write_csv(
        out / "pricing.csv",
        ["id", "pd", "ead", "recovery_rate", "lgd", "el", "spread_bps"],
        zip(range(len(pd_scores)), *(c.tolist() for c in columns)),
    )
    _write_json(out / "recovery.json", recovery.to_json_dict())
    print(f"wrote {out / 'pricing.csv'} ({len(pd_scores)} rows)")
    print(f"wrote {out / 'recovery.json'}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for data errors.
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="creditworks", description="Consumer-loan default modeling pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, needs_model in (
        ("explore", False),
        ("prepare", False),
        ("train", True),
        ("evaluate", True),
        ("score", True),
        ("price", True),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="pipeline config JSON")
        if needs_model:
            cmd.add_argument("--model", help="model file (default: <out>/model.json)")
        cmd.add_argument("--out", help="output directory (default: config out_dir or ./out)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64

    try:
        cfg, base = _read_config(args.config)
        out = (
            Path(args.out)
            if args.out
            else _resolve(base, _config_value(cfg, "out_dir", "out", str, "a path"))
        )
        out.mkdir(parents=True, exist_ok=True)
        model_path = Path(args.model) if getattr(args, "model", None) else None
        if args.command == "explore":
            return cmd_explore(cfg, base, out)
        if args.command == "prepare":
            return cmd_prepare(cfg, base, out)
        if args.command == "train":
            return cmd_train(cfg, base, out, model_path)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, base, out, model_path)
        if args.command == "score":
            return cmd_score(cfg, base, out, model_path)
        return cmd_price(cfg, base, out, model_path)
    except CreditworksError as err:
        print(f"creditworks: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"creditworks: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
