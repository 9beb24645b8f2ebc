"""In-process traced replay of the CLI commands, for per-layer numbers.

Each command below makes the same calls as its `creditworks.cli.cmd_*`
counterpart, in the same order, with a span around every call into a
package module. The artifacts it writes must equal the CLI's byte for
byte (run.py checks this), so the replay cannot drift from the program it
measures. Config parsing, model-config building and artifact writing
reuse the CLI's own helpers and count as the `cli` layer. Spans stay in
memory; per-row calls in the price loop add into one timer each instead of
one span per row.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from creditworks import cli, dataset, exposure, features, forest, logreg, metrics
from creditworks.cds import price_for_loan

# Layer of a span is the text before the first dot. "bench" spans are the
# tracer's own bookkeeping (counting cells), kept out of every layer metric.
LAYERS = ("cli", "dataset", "features", "logreg", "forest", "metrics", "exposure", "cds")


@dataclass
class Span:
    name: str
    parent: int | None
    seconds: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans with parents, plus named counters, for one traced sequence."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else None, 0.0))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].seconds = time.perf_counter() - start
            self._open.pop()

    def add(self, name: str, seconds: float) -> None:
        """A child span of the open span whose time was summed by the caller."""
        self.spans.append(Span(name, self._open[-1] if self._open else None, seconds))

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.seconds
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: its spans' durations minus the time of their children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            if s.layer in out:
                out[s.layer] += t
        return out


def _pipeline(tr: Tracer, cfg: dict, base: Path):
    """cli._run_pipeline, one span per call."""
    seed = cfg["seed"]
    specs = (
        dataset.load_column_specs(cli._resolve(base, cfg["column_spec"]))
        if cfg.get("column_spec")
        else dataset.default_column_specs()
    )
    with tr.span("dataset.load_csv"):
        raw = dataset.load_csv(
            cli._resolve(base, cfg["input"]), specs,
            allow_extra=bool(cfg.get("allow_extra_columns", False)),
        )
    with tr.span("dataset.filter_terminal"):
        terminal = dataset.filter_terminal(raw, cfg.get("status_map"))
    with tr.span("dataset.drop_columns"):
        dropped = dataset.drop_columns(terminal)
    with tr.span("dataset.handle_missing"):
        cleaned = dataset.handle_missing(dropped, cfg.get("missing_policy", "fill_median_or_mode"))
    with tr.span("dataset.encode"):
        matrix, _ = dataset.encode(cleaned)
    with tr.span("dataset.split"):
        pair = dataset.split(matrix, float(cfg.get("test_fraction", 0.2)), seed)
    with tr.span("features.fit_scaler"):
        scaler = features.fit_scaler(pair.train)
    with tr.span("bench.count"):
        tr.count("dataset.rows_read", raw.row_count)
        tr.count("dataset.rows_terminal", terminal.row_count)
        tr.count("dataset.cells_missing", sum(row.count(None) for row in dropped.rows))
        tr.counts["dataset.columns_encoded"] = matrix.n_cols
    return cleaned, matrix, pair, scaler, cli._exposure_columns(cfg)


def _load_model(tr: Tracer, path: Path):
    """cli._load_model, with the model-module parsing in its layer's span."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload["kind"] == "logreg":
        with tr.span("logreg.load"):
            model = logreg.LogregModel.from_json_dict(payload)
        with tr.span("features.load"):
            scaler = features.Scaler.from_json_dict(payload["scaler"]) if "scaler" in payload else None
        return "logreg", model, scaler
    with tr.span("forest.load"):
        model = forest.forest_from_json_dict(payload)
    with tr.span("bench.count"):
        tr.counts["forest.model_mb"] = path.stat().st_size / 1e6
    return "forest", model, None


def _predict_pd(tr: Tracer, kind, model, scaler, matrix):
    if kind == "logreg":
        with tr.span("features.transform"):
            x = scaler.transform(matrix.x) if scaler is not None else matrix.x
        with tr.span("logreg.predict"):
            return model.predict_proba(x)
    with tr.span("forest.predict"):
        pd_scores = model.predict_proba(matrix.x)
    tr.count("forest.row_trees", matrix.n_rows * model.n_trees)
    return pd_scores


def cmd_train(tr: Tracer, cfg: dict, base: Path, out: Path) -> None:
    _, matrix, pair, scaler, _ = _pipeline(tr, cfg, base)
    kind, model_cfg = cli._model_config(cfg, cfg["seed"])
    target = out / cli.DEFAULT_MODEL_FILE
    if kind == "logreg":
        with tr.span("features.transform"):
            train = features.apply_scaler(scaler, pair.train)
        with tr.span("logreg.fit"):
            model = logreg.fit_logreg(train.x, train.y, model_cfg, columns=train.columns)
        with tr.span("logreg.serialize"):
            payload = model.to_json_dict()
        with tr.span("features.serialize"):
            payload["scaler"] = scaler.to_json_dict()
        log = {
            "kind": kind,
            "iterations": model.n_iters,
            "final_loss": model.final_loss,
            "history": [[i, v] for i, v in model.history],
            **cli._stamp(),
        }
        tr.count("logreg.iterations", model.n_iters)
    else:
        with tr.span("forest.fit"):
            model = forest.fit_forest(pair.train.x, pair.train.y, model_cfg, columns=matrix.columns)
        with tr.span("forest.serialize"):
            payload = forest.forest_to_json_dict(model)
        with tr.span("forest.stats"):
            stats = [t.stats() for t in model.trees]
        log = {"kind": kind, "n_trees": model.n_trees, "trees": stats, **cli._stamp()}
        tr.count("forest.nodes", sum(s["nodes"] for s in stats))
    cli._write_json(target, payload)
    cli._write_json(out / "training_log.json", log)
    if kind == "forest":
        tr.counts["forest.model_mb"] = target.stat().st_size / 1e6


def cmd_evaluate(tr: Tracer, cfg: dict, base: Path, out: Path) -> None:
    _, matrix, pair, _, _ = _pipeline(tr, cfg, base)
    source = out / cli.DEFAULT_MODEL_FILE
    kind, model, scaler = _load_model(tr, source)
    cli._check_columns(model.columns, matrix, source)
    test = pair.test
    pd_scores = _predict_pd(tr, kind, model, scaler, test)
    threshold = model.config.threshold if kind == "logreg" else 0.5
    y_pred = (pd_scores >= threshold).astype(np.int64)
    with tr.span("metrics.report"):
        rep = metrics.report(test.y, y_pred)
    with tr.span("metrics.roc"):
        curve = metrics.roc(test.y, pd_scores)
    with tr.span("metrics.render"):
        text = metrics.render_report(rep)
    tr.count("metrics.roc_points", len(curve.points))
    (out / "report.txt").write_text(text, encoding="utf-8")
    cli._write_json(out / "report.json", {"model": kind, "auc": curve.auc, **rep.to_json_dict(), **cli._stamp()})
    cli._write_csv(out / "roc.csv", ["fpr", "tpr"], [(fpr, tpr) for fpr, tpr in curve.points])
    comparison_path = out / "comparison.json"
    comparison = {}
    if comparison_path.exists():
        comparison = json.loads(comparison_path.read_text(encoding="utf-8"))
    comparison[kind] = curve.auc
    cli._write_json(comparison_path, comparison)


def cmd_score(tr: Tracer, cfg: dict, base: Path, out: Path) -> None:
    _, matrix, _, _, _ = _pipeline(tr, cfg, base)
    source = out / cli.DEFAULT_MODEL_FILE
    kind, model, scaler = _load_model(tr, source)
    cli._check_columns(model.columns, matrix, source)
    pd_scores = _predict_pd(tr, kind, model, scaler, matrix)
    threshold = model.config.threshold if kind == "logreg" else 0.5
    labels = (pd_scores >= threshold).astype(np.int64)
    rows = [(i, float(p), int(label)) for i, (p, label) in enumerate(zip(pd_scores, labels))]
    cli._write_csv(out / "scores.csv", ["id", "pd", "label"], rows)


def cmd_price(tr: Tracer, cfg: dict, base: Path, out: Path) -> None:
    table, matrix, _, _, cols = _pipeline(tr, cfg, base)
    source = out / cli.DEFAULT_MODEL_FILE
    kind, model, scaler = _load_model(tr, source)
    cli._check_columns(model.columns, matrix, source)
    with tr.span("exposure.recovery_rates"):
        recovery = exposure.recovery_rates(table, cols)
    pd_scores = _predict_pd(tr, kind, model, scaler, matrix)
    risk_free = float(cfg.get("risk_free_rate", 0.0))

    clock = time.perf_counter
    quote_s = cds_s = 0.0
    clamped = zero = 0
    names = table.names
    rows = []
    for i, (row, pd_value) in enumerate(zip(table.rows, pd_scores)):
        record = dict(zip(names, row))
        t0 = clock()
        ead_value = exposure.record_ead(record, cols)
        rate = recovery.rate_for(record[cols.purpose])
        quote = exposure.build_quote(float(pd_value), float(ead_value), rate)
        t1 = clock()
        quote_s += t1 - t0
        clamped += ead_value.clamped
        if ead_value > 0.0:
            cds_quote = price_for_loan(quote, ead_value.remaining_months / 12.0, risk_free)
            cds_s += clock() - t1
            spread_bps = cds_quote.spread_bps
        else:
            zero += 1
            spread_bps = 0.0
        rows.append((i, float(pd_value), quote.ead, quote.recovery_rate, quote.lgd_amount, quote.el, spread_bps))
    tr.add("exposure.quote", quote_s)
    tr.add("cds.quote", cds_s)
    tr.count("exposure.loans", len(rows))
    tr.count("exposure.clamped", clamped)
    tr.count("cds.contracts", len(rows) - zero)
    tr.count("cds.zero_exposure", zero)

    cli._write_csv(out / "pricing.csv", ["id", "pd", "ead", "recovery_rate", "lgd", "el", "spread_bps"], rows)
    cli._write_json(out / "recovery.json", recovery.to_json_dict())


COMMANDS = {"train": cmd_train, "evaluate": cmd_evaluate, "score": cmd_score, "price": cmd_price}


def run_command(tr: Tracer, command: str, config: Path, out: Path) -> None:
    """One CLI command in-process, inside a `cli.<command>` span."""
    with tr.span(f"cli.{command}"):
        cfg, base = cli._read_config(str(config))
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[command](tr, cfg, base, out)
