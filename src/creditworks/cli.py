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
import dataclasses
import json
import math
import operator
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# The model, metrics and CDS modules are imported by the commands that run
# them, so that a command loads only what it uses.
from . import dataset, exposure, features
from .errors import (
    CreditworksError,
    DataError,
    ModelDataMismatchError,
    TrainingError,
    UsageError,
)

DEFAULT_MODEL_FILE = "model.json"

# Rows per block of writing a CSV: bounds the Python numbers it is written
# from. Dense design-matrix rows come in dataset.block_rows blocks.
WRITE_ROWS = 4096


def _stamp() -> dict:
    if os.environ.get("CREDITWORKS_CANONICAL") == "1":
        return {}
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    except ValueError as exc:  # bad JSON, or an integer of more digits than int() reads
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg, p.parent


def _finite(value, what: str) -> float:
    """A config number as a float; UsageError naming what unless it is a
    finite number (or a string float() reads as one) and no bool. An
    integer past the float range is no finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise UsageError(f"{what} must be a finite number, got {value!r}")
    return number


def _config_value(cfg: dict, key: str, default, kind: type, what: str):
    """cfg[key], or default when absent, which must be of type kind."""
    value = cfg.get(key, default)
    if type(value) is not kind:
        raise UsageError(f"config {key!r} must be {what}, got {value!r}")
    return value


def _status_map(cfg: dict) -> None:
    mapping = cfg.get("status_map")
    if mapping is not None and not (
        isinstance(mapping, dict)
        and mapping
        and all(type(label) is int and label in (0, 1) for label in mapping.values())
    ):
        raise UsageError(
            f"config 'status_map' must map one or more loan statuses to 0 or 1, got {mapping!r}"
        )


def _resolve(base: Path, p: str) -> Path:
    path = Path(p)
    return path if path.is_absolute() else base / path


def _exposure_columns(cfg: dict) -> exposure.ExposureColumns:
    overrides = cfg.get("exposure_columns")
    if overrides is None:
        overrides = {}
    if not (isinstance(overrides, dict) and all(isinstance(v, str) for v in overrides.values())):
        raise UsageError(f"config 'exposure_columns' must map names to strings, got {overrides!r}")
    if "rate_scale" in overrides:
        raise UsageError("config 'rate_scale' is a top-level key, not an 'exposure_columns' entry")
    try:
        return exposure.ExposureColumns(rate_scale=cfg.get("rate_scale", "percent"), **overrides)
    except (TypeError, DataError) as exc:
        raise UsageError(f"bad exposure_columns in config: {exc}") from exc


def _check_config(cfg: dict) -> None:
    """Check every key any command reads, so that a config is valid or not
    whatever the command, before any input is read or output written."""
    _config_value(cfg, "input", None, str, "the path of the input CSV")
    seed = _config_value(cfg, "seed", None, int, "an integer (runs may not self-seed)")
    spec = cfg.get("column_spec")
    if spec is not None and not (isinstance(spec, str) and spec):
        raise UsageError(f"config 'column_spec' must be a path, got {spec!r}")
    _config_value(cfg, "out_dir", "out", str, "a path")
    _config_value(cfg, "allow_extra_columns", False, bool, "true or false")
    _status_map(cfg)
    policy = cfg.get("missing_policy", "fill_median_or_mode")
    if policy not in dataset.MISSING_POLICIES:
        raise UsageError(
            f"config 'missing_policy' must be one of {dataset.MISSING_POLICIES}, got {policy!r}"
        )
    fraction = _finite(cfg.get("test_fraction", 0.2), "config 'test_fraction'")
    if not 0.0 < fraction < 1.0:
        raise UsageError(f"config 'test_fraction' must lie in (0, 1), got {fraction}")
    _finite(cfg.get("risk_free_rate", 0.0), "config 'risk_free_rate'")
    _exposure_columns(cfg)
    _threshold_rules(cfg)
    _model_config(cfg, seed)


def _terminal(cfg: dict, base: Path, skip_dropped: bool = True) -> dataset.RawLoanTable:
    """The terminal-status rows of a checked config's input CSV; the parsed
    table is freed on return. With skip_dropped, the drop-role columns that
    cannot fault (see load_csv) are left unparsed and absent."""
    if cfg.get("column_spec") is not None:
        specs = dataset.load_column_specs(_resolve(base, cfg["column_spec"]))
    else:
        specs = dataset.default_column_specs()
    input_path = _resolve(base, cfg["input"])
    try:
        raw = dataset.load_csv(
            input_path,
            specs,
            allow_extra=cfg.get("allow_extra_columns", False),
            skip_dropped=skip_dropped,
        )
    except FileNotFoundError as exc:
        raise DataError(f"input CSV not found: {input_path}") from exc
    return dataset.filter_terminal(raw, cfg.get("status_map"))


def _cleaned(cfg: dict, terminal: dataset.RawLoanTable) -> dataset.RawLoanTable:
    """The terminal table without its drop-role columns and with its missing
    cells handled by the config's policy."""
    return dataset.handle_missing(
        dataset.drop_columns(terminal),
        cfg.get("missing_policy", "fill_median_or_mode"),
    )


def _load(cfg: dict, base: Path, half: str | None = None):
    """(matrix, encode report) of a checked config's input CSV: every row, or
    with half "train" or "test" that half of the config's split, taken from
    the matrix of every row while only the cleaned table is alive."""
    cleaned = _cleaned(cfg, _terminal(cfg, base))
    # Drawn before encode: drawn after it, a 20k-row train peaked 0.7 MB higher.
    rows = None if half is None else _split_rows(cfg, cleaned.row_count)[half]
    matrix, report = dataset.encode(cleaned)
    return (matrix if rows is None else matrix.take(rows)), report


def _split_rows(cfg: dict, n_rows: int) -> dict:
    """{"train": rows, "test": rows} of the config's split of n_rows rows."""
    fraction = _finite(cfg.get("test_fraction", 0.2), "config 'test_fraction'")
    train, test = dataset.split_rows(n_rows, fraction, cfg["seed"])
    return {"train": train, "test": test}


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
            from . import logreg

            # The CLI always fits by Newton; "newton" is no config key (README).
            return kind, logreg.LogregConfig(seed=seed, newton=True, **spec)
        if kind == "forest":
            from . import forest

            # Tree settings the config leaves out keep ForestConfig's defaults.
            tree = {f.name: spec.pop(f.name) for f in dataclasses.fields(forest.CartParams) if f.name in spec}
            params = dataclasses.replace(forest.ForestConfig().params, **tree)
            return kind, forest.ForestConfig(seed=seed, params=params, **spec)
    except (TypeError, TrainingError) as exc:
        raise UsageError(f"bad model settings: {exc}") from exc
    raise UsageError(f"unknown model kind {kind!r}; expected logreg or forest")


def _load_model(path: Path):
    """Read a model file; returns (kind, model, scaler), the scaler None for a forest."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer of more digits than int() reads
        raise DataError(f"model {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"model {path} must hold a JSON object, not a {type(payload).__name__}")
    kind = payload.get("kind")
    try:
        if kind == "logreg":
            from . import logreg

            model = logreg.LogregModel.from_json_dict(payload)
            scaler = features.Scaler.from_json_dict(payload["scaler"])
            if scaler.columns != model.columns:
                raise DataError("its scaler was fitted on other columns than the model")
            return kind, model, scaler
        if kind == "forest":
            from . import forest

            return kind, forest.forest_from_json_dict(payload), None
    except KeyError as exc:
        raise DataError(f"model {path} lacks the field {exc}") from exc
    except (TypeError, ValueError, DataError, TrainingError) as exc:
        raise DataError(f"model {path} is unusable: {exc}") from exc
    raise DataError(f"model {path} has unknown kind {kind!r}")


def _check_columns(model_columns, matrix: dataset.DesignMatrix, path: Path) -> None:
    """ModelDataMismatchError, in one line, unless the matrix has the model's
    columns in the model's order. The line names the model file in full and
    at most three missing and three extra columns, cut to 120 characters."""
    model_columns, data_columns = tuple(model_columns), tuple(matrix.columns)
    if model_columns == data_columns:
        return
    in_model, in_data = set(model_columns), set(data_columns)
    missing = [c for c in model_columns if c not in in_data]
    extra = [c for c in data_columns if c not in in_model]
    parts = [f"{what} {_first(names)}" for what, names in (("missing", missing), ("extra", extra)) if names]
    detail = "; ".join(parts) or "same columns, other order"
    if len(detail) > 120:
        detail = detail[:117] + "..."
    raise ModelDataMismatchError(f"data does not encode to the columns of model {path}: {detail}")


def _first(names: list, shown: int = 3) -> str:
    more = f" (+{len(names) - shown} more)" if len(names) > shown else ""
    return ", ".join(names[:shown]) + more


def _predictions(model_path: Path, matrix: dataset.DesignMatrix):
    """(kind, pd, labels) of the model file's predictions on the matrix's rows."""
    kind, model, scaler = _load_model(model_path)
    _check_columns(model.columns, matrix, model_path)
    if scaler is not None:
        matrix = features.apply_scaler(scaler, matrix)
    pd_scores = np.empty(matrix.n_rows)
    for start, rows in dataset.row_blocks(matrix):
        pd_scores[start : start + len(rows)] = model.predict_proba(rows)
    threshold = model.config.threshold if kind == "logreg" else 0.5
    return kind, pd_scores, (pd_scores >= threshold).astype(np.int64)


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
            column, op, value = entry["column"], entry["op"], entry["value"]
        except (TypeError, KeyError) as exc:
            raise UsageError(f"bad threshold rule {entry!r}") from exc
        value = _finite(value, f"threshold value of {entry!r}")
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


def _write_numbers(path: Path, header: list, line: str, rows) -> None:
    """A CSV of rows of Python numbers, each formatted by line, such as
    "%d,%r\n". A float's %r is its repr, which is what csv.writer writes, and
    no number needs quoting, so the bytes are _write_csv's, written faster."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))


def _numbered_rows(*columns):
    """(id, *values) rows of equal-length arrays, as Python numbers made
    WRITE_ROWS rows at a time rather than whole columns at once."""
    for start in range(0, len(columns[0]), WRITE_ROWS):
        stop = start + WRITE_ROWS
        yield from zip(range(start, stop), *(c[start:stop].tolist() for c in columns))


def _save_matrix(path: Path, matrix: dataset.DesignMatrix) -> None:
    """np.save(path, matrix.x), the same bytes, without the dense matrix:
    the .npy header, then the matrix's dense rows block by block."""
    descr = np.lib.format.dtype_to_descr(np.dtype(np.float64))
    header = {"descr": descr, "fortran_order": False, "shape": matrix.shape}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for _, rows in dataset.row_blocks(matrix):
            fh.write(rows)


def cmd_explore(cfg: dict, base: Path, out: Path, model_path: Path) -> int:
    # Every column is parsed: a threshold rule may name a drop-role column.
    terminal = _terminal(cfg, base, skip_dropped=False)
    matrix = dataset.encode(_cleaned(cfg, terminal))[0]
    counts = features.threshold_counts(terminal, _threshold_rules(cfg))
    balance = dataset.class_balance(matrix.y)
    corr = features.correlation_report(matrix)

    _write_csv(out / "correlation.csv", ["feature", "r"], [(name, float(r)) for name, r, _ in corr])
    summary = {
        "rows_terminal": terminal.row_count,
        "class_balance": balance._asdict(),
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


def cmd_prepare(cfg: dict, base: Path, out: Path, model_path: Path) -> int:
    matrix, encode_report = _load(cfg, base)
    halves = _split_rows(cfg, matrix.n_rows)
    prep = out / "prepared"
    prep.mkdir(parents=True, exist_ok=True)
    for half, rows in halves.items():
        part = matrix.take(rows)
        _save_matrix(prep / f"x_{half}.npy", part)
        np.save(prep / f"y_{half}.npy", part.y)
        if half == "train":
            scaler = features.fit_scaler(part)
    _write_json(
        prep / "columns.json",
        {
            "columns": list(matrix.columns),
            "seed": cfg["seed"],
            "test_fraction": _finite(cfg.get("test_fraction", 0.2), "config 'test_fraction'"),
            "train_rows": halves["train"].size,
            "test_rows": halves["test"].size,
        },
    )
    _write_json(prep / "encode_report.json", encode_report.to_json_dict())
    _write_json(prep / "scaler.json", scaler.to_json_dict())
    print(f"wrote {prep}/x_train.npy y_train.npy x_test.npy y_test.npy")
    print(f"wrote {prep / 'columns.json'} encode_report.json scaler.json")
    return 0


def cmd_train(cfg: dict, base: Path, out: Path, model_path: Path) -> int:
    kind, model_cfg = _model_config(cfg, cfg["seed"])
    # Only the training rows are taken from the table, which is freed before the fit.
    train = _load(cfg, base, "train")[0]

    if kind == "logreg":
        from . import logreg

        scaler = features.fit_scaler(train)
        # Each pass of the fit builds the scaled rows block by block.
        scaled = features.apply_scaler(scaler, train)
        model = logreg.fit_logreg(scaled, train.y, model_cfg, columns=train.columns)
        payload = model.to_json_dict()
        payload["scaler"] = scaler.to_json_dict()
        history = [[i, v] for i, v in model.history]
        log = {"iterations": model.n_iters, "final_loss": model.final_loss, "history": history}
    else:
        from . import forest

        model = forest.fit_forest(train, train.y, model_cfg, columns=train.columns)
        payload = forest.forest_to_json_dict(model)
        log = {"n_trees": model.n_trees, "trees": [t.stats() for t in model.trees]}

    _write_json(model_path, payload)
    _write_json(out / "training_log.json", {"kind": kind, **log, **_stamp()})
    print(f"wrote {model_path}")
    print(f"wrote {out / 'training_log.json'}")
    return 0


def cmd_evaluate(cfg: dict, base: Path, out: Path, model_path: Path) -> int:
    from . import metrics

    test = _load(cfg, base, "test")[0]
    kind, pd_scores, y_pred = _predictions(model_path, test)
    rep = metrics.report(test.y, y_pred)
    curve = metrics.roc(test.y, pd_scores)

    # Read before writing anything, so a bad file leaves no partial output.
    comparison_path = out / "comparison.json"
    comparison = {}
    if comparison_path.exists():
        try:
            comparison = json.loads(comparison_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON, or an integer of more digits than int() reads
            raise DataError(f"{comparison_path} is not valid JSON: {exc}") from exc
        if not isinstance(comparison, dict):
            raise DataError(f"{comparison_path} must hold a JSON object")

    (out / "report.txt").write_text(metrics.render_report(rep), encoding="utf-8")
    _write_json(
        out / "report.json",
        {"model": kind, "auc": curve.auc, **rep.to_json_dict(), **_stamp()},
    )
    _write_numbers(out / "roc.csv", ["fpr", "tpr"], "%r,%r\n", curve.points)

    comparison[kind] = curve.auc
    _write_json(comparison_path, comparison)

    print(f"wrote {out / 'report.txt'} report.json roc.csv comparison.json")
    print(f"{kind} test auc {curve.auc:.6f} accuracy {rep.accuracy:.4f}")
    return 0


def cmd_score(cfg: dict, base: Path, out: Path, model_path: Path) -> int:
    # The matrix is freed once predicted.
    _, pd_scores, labels = _predictions(model_path, _load(cfg, base)[0])
    rows = _numbered_rows(pd_scores, labels)
    _write_numbers(out / "scores.csv", ["id", "pd", "label"], "%d,%r,%d\n", rows)
    print(f"wrote {out / 'scores.csv'} ({len(pd_scores)} rows)")
    return 0


def cmd_price(cfg: dict, base: Path, out: Path, model_path: Path) -> int:
    from .cds import fair_spreads

    table = _cleaned(cfg, _terminal(cfg, base))
    # The matrix is freed once predicted.
    _, pd_scores, _ = _predictions(model_path, dataset.encode(table)[0])
    cols = _exposure_columns(cfg)
    recovery = exposure.recovery_rates(table, cols)
    risk_free = _finite(cfg.get("risk_free_rate", 0.0), "config 'risk_free_rate'")

    loans = exposure.table_ead(table, cols)
    # Nothing outstanding: no contract to write on the loan, spread 0.
    live = loans.amount > 0.0
    stuck = np.flatnonzero(live & (loans.remaining_months == 0))
    if stuck.size:
        raise DataError(
            f"{stuck.size} loan(s) have principal outstanding but 0 remaining months "
            f"(term 0, or nothing funded), so no CDS maturity; first id {stuck[0]}"
        )
    rate = exposure.row_recovery_rates(recovery, table, cols)
    loss = exposure.lgd(loans.amount, rate)
    el = exposure.expected_loss(pd_scores, loans.amount, rate)
    spread_bps = np.zeros(len(pd_scores))
    spread_bps[live] = fair_spreads(
        loans.amount[live], loans.remaining_months[live] / 12.0, risk_free, pd_scores[live], rate[live]
    ).spread_bps

    columns = (pd_scores, loans.amount, rate, loss, el, spread_bps)
    _write_numbers(
        out / "pricing.csv",
        ["id", "pd", "ead", "recovery_rate", "lgd", "el", "spread_bps"],
        "%d" + ",%r" * len(columns) + "\n",
        _numbered_rows(*columns),
    )
    _write_json(out / "recovery.json", recovery.to_json_dict())
    print(f"wrote {out / 'pricing.csv'} ({len(pd_scores)} rows)")
    print(f"wrote {out / 'recovery.json'}")
    return 0


# Each command, and whether it takes a --model file (train writes it, the others read it).
COMMANDS = {
    "explore": (cmd_explore, False),
    "prepare": (cmd_prepare, False),
    "train": (cmd_train, True),
    "evaluate": (cmd_evaluate, True),
    "score": (cmd_score, True),
    "price": (cmd_price, True),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for data errors.
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="creditworks", description="Consumer-loan default modeling pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, takes_model) in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="pipeline config JSON")
        if takes_model:
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
        _check_config(cfg)
        out = Path(args.out) if args.out else _resolve(base, cfg.get("out_dir", "out"))
        out.mkdir(parents=True, exist_ok=True)
        model = getattr(args, "model", None)
        command, _ = COMMANDS[args.command]
        return command(cfg, base, out, Path(model) if model else out / DEFAULT_MODEL_FILE)
    except (CreditworksError, OSError) as err:
        print(f"creditworks: {err}", file=sys.stderr)
        return getattr(err, "exit_code", 2)  # an OSError is a data error


if __name__ == "__main__":
    sys.exit(main())
