"""Tests of the benchmark itself: python -m pytest bench"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

# Every metric the benchmark's specification names, under its name here.
# The per-command times and error_rate are per-layer metrics: they are 0 on
# workloads that do not run the command or never fail, and end-to-end
# metrics must be reported, and non-zero, on every workload.
SPECIFIED_METRICS = {
    "wall_s", "cpu_s", "rows_per_s", "peak_rss_mb", "setup_s", "auc",
    "cli.train_s", "cli.evaluate_s", "cli.score_s", "cli.price_s", "error_rate",
    "dataset.load_csv_s", "dataset.filter_terminal_s", "dataset.drop_columns_s",
    "dataset.handle_missing_s", "dataset.encode_s", "dataset.split_s",
    "dataset.rows_read", "dataset.rows_terminal", "dataset.cells_missing",
    "dataset.columns_encoded", "dataset.csv_mb",
    "features.fit_scaler_s", "features.transform_s",
    "logreg.fit_s", "logreg.iterations", "logreg.ms_per_iter", "logreg.predict_s",
    "forest.fit_s", "forest.nodes", "forest.us_per_node", "forest.serialize_s",
    "forest.predict_s", "forest.ns_per_row_tree", "forest.load_s", "forest.model_mb",
    "metrics.report_s", "metrics.roc_s", "metrics.roc_points",
    "exposure.recovery_rates_s", "exposure.quote_s", "exposure.loans", "exposure.clamped",
    "cds.quote_s", "cds.contracts", "cds.zero_exposure",
    "cli.startup_s", "cli.residual_s", "trace.coverage",
}


def test_generator_is_seeded():
    a, labels_a = gen.generate(500, 14, 35, seed=3)
    b, labels_b = gen.generate(500, 14, 35, seed=3)
    c, _ = gen.generate(500, 14, 35, seed=4)
    assert a == b and np.array_equal(labels_a, labels_b)
    assert a != c


def test_generator_covers_ingest_paths(tmp_path):
    book = gen.write_book(tmp_path / "b.csv", 400, 14, 35, seed=1)
    lines = book.path.read_text().splitlines()
    header = lines[0].split(",")
    statuses = [line.rsplit(",", 4)[1] for line in lines[1:]]
    terminal = [s for s in statuses if s in ("Fully Paid", "Charged Off")]
    assert len(terminal) == book.terminal == book.labels.size
    assert book.labels.tolist() == [int(s == "Charged Off") for s in terminal]
    assert len(terminal) < len(statuses)
    text = book.path.read_text()
    assert ",," in text and "%," in text and '"Nurse, RN"' in text
    assert "member_id" in header and "application_type" in header
    for level in gen.PURPOSES + gen.SUB_GRADES:
        assert f",{level}," in text


def test_rank_auc_matches_pair_count():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 300)
    s = rng.integers(0, 20, 300) / 20.0  # many ties
    pos, neg = s[y == 1], s[y == 0]
    pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert run.rank_auc(y, s) == pytest.approx(pairs / (pos.size * neg.size), abs=1e-12)


def test_child_peak_rss_is_its_own(tmp_path):
    held = np.ones(8_000_000)  # lifts this process's peak by 64 MB
    wall, cpu, rss, code = run.spawn([sys.executable, "-c", "pass"], tmp_path, tmp_path / "c.log")
    assert code == 0 and wall > 0 and cpu > 0
    assert rss < 40.0 < held.nbytes / 1e6


def test_spawn_kills_a_command_past_its_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 0.5)
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    wall, _, _, code = run.spawn(argv, tmp_path, tmp_path / "c.log")
    assert code == -9 and wall < 10.0


def test_self_time_subtracts_children():
    run.load_package()
    import tracing

    tr = tracing.Tracer()
    with tr.span("cli.train"):
        with tr.span("dataset.load_csv"):
            pass
        tr.add("exposure.quote", 0.0)
    own = tr.self_times()
    total = tr.totals()
    assert own["cli"] == pytest.approx(total["cli.train"] - total["dataset.load_csv"])
    assert own["dataset"] == total["dataset.load_csv"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.PER_LAYER)
    assert SPECIFIED_METRICS <= {name for name, _ in e2e + layer}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_is_correct(name, trace, monkeypatch, capsys):
    wl = run.WORKLOADS[name]
    small = dataclasses.replace(wl, rows=2000)
    monkeypatch.setitem(run.WORKLOADS, name, small)
    args = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _ in names]
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0.0
        assert 0.0 < result["metrics"]["trace.coverage"]["value"] < 1.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
