"""Benchmark of the creditworks CLI on seeded synthetic loan books.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a checkout of the repository and measures the package under its
`src/`. With --trace 0 it sets the workload up, then repeats the workload's
command sequence, one `python -m creditworks.cli` subprocess per command,
until S seconds have passed, and reports the median over the repetitions of
the end-to-end metrics. With --trace 1 it alternates that subprocess
sequence with an in-process traced replay (tracing.py) and reports per-layer
metrics. Every command's outputs are checked; the last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
Load is a closed loop with one client: one command at a time.

See README.md in this directory for the metrics and why each workload
was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

AUC_FLOOR = 0.65  # the generator's signal gives about 0.75 to 0.8 at full size
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 90.0
EL_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    rows: int
    purposes: int
    sub_grades: int
    model: dict
    commands: tuple[str, ...]


WORKLOADS = {
    # Wide book, logistic model: ingest runs three times and dominates;
    # logreg, exposure and cds each take a visible share; forest does nothing.
    "logreg_book": Workload(
        20_000, 14, 35, {"kind": "logreg", "learning_rate": 0.1, "max_iters": 300},
        ("train", "evaluate", "price"),
    ),
    # Narrow book, deep forest: tree building dominates, then per-row tree
    # walks over the whole book; exposure/cds idle, dataset small.
    "forest_book": Workload(
        9_000, 3, 5, {"kind": "forest", "n_trees": 30, "max_depth": 10},
        ("train", "evaluate", "score"),
    ),
}

ARTIFACTS = {
    "train": ("model.json", "training_log.json"),
    "evaluate": ("report.txt", "report.json", "roc.csv", "comparison.json"),
    "score": ("scores.csv",),
    "price": ("pricing.csv", "recovery.json"),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("auc", "ratio"),
)

PER_LAYER = (
    ("dataset.load_csv_s", "s"),
    ("dataset.filter_terminal_s", "s"),
    ("dataset.drop_columns_s", "s"),
    ("dataset.handle_missing_s", "s"),
    ("dataset.encode_s", "s"),
    ("dataset.split_s", "s"),
    ("dataset.self_s", "s"),
    ("dataset.rows_read", "count"),
    ("dataset.rows_terminal", "count"),
    ("dataset.cells_missing", "count"),
    ("dataset.columns_encoded", "count"),
    ("dataset.csv_mb", "MB"),
    ("features.fit_scaler_s", "s"),
    ("features.transform_s", "s"),
    ("features.self_s", "s"),
    ("logreg.fit_s", "s"),
    ("logreg.iterations", "count"),
    ("logreg.ms_per_iter", "ms"),
    ("logreg.predict_s", "s"),
    ("logreg.self_s", "s"),
    ("forest.fit_s", "s"),
    ("forest.nodes", "count"),
    ("forest.us_per_node", "us"),
    ("forest.serialize_s", "s"),
    ("forest.predict_s", "s"),
    ("forest.ns_per_row_tree", "ns"),
    ("forest.load_s", "s"),
    ("forest.model_mb", "MB"),
    ("forest.self_s", "s"),
    ("metrics.report_s", "s"),
    ("metrics.roc_s", "s"),
    ("metrics.roc_points", "count"),
    ("metrics.self_s", "s"),
    ("exposure.recovery_rates_s", "s"),
    ("exposure.quote_s", "s"),
    ("exposure.loans", "count"),
    ("exposure.clamped", "count"),
    ("exposure.self_s", "s"),
    ("cds.quote_s", "s"),
    ("cds.contracts", "count"),
    ("cds.zero_exposure", "count"),
    ("cds.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.train_s", "s"),
    ("cli.evaluate_s", "s"),
    ("cli.score_s", "s"),
    ("cli.price_s", "s"),
    ("cli.self_s", "s"),
    ("cli.residual_s", "s"),
    ("trace.coverage", "fraction"),
    ("error_rate", "fraction"),
)


@dataclass
class CommandRun:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Setup:
    config: Path
    book: gen.Book


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """Run argv to completion; (wall s, user+sys s, max RSS MB, exit code) of argv alone.

    argv runs under launch.py, which takes its CPU time and peak RSS from
    os.wait4 on that child alone, and whose small interpreter, not this
    process with numpy and the book, is the memory the child starts from.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), CREDITWORKS_CANONICAL="1")
    report = log.with_suffix(".usage.json")
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(report), str(COMMAND_TIMEOUT_S), *argv]
    with open(log, "wb") as fh:
        proc = subprocess.Popen(launcher, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(COMMAND_TIMEOUT_S + 30.0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        raise RuntimeError(f"launch.py exited {code}: {log.read_text()[-300:]}")
    usage = json.loads(report.read_text())
    return usage["wall_s"], usage["cpu_s"], usage["rss_mb"], usage["exit"]


def rank_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n1 = int(labels.sum())
    n0 = labels.size - n1
    return float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1))


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_outputs(command: str, out: Path, book: gen.Book) -> tuple[list[str], float | None]:
    """Problems with one command's artifacts, and the test AUC after evaluate."""
    missing = [name for name in ARTIFACTS[command] if not (out / name).is_file()]
    if missing:
        return [f"{command}: missing {missing}"], None
    problems: list[str] = []
    auc = None
    if command == "evaluate":
        auc = float(json.loads((out / "report.json").read_text())["auc"])
        if not auc >= AUC_FLOOR:
            problems.append(f"evaluate: test auc {auc:.4f} below floor {AUC_FLOOR}")
    elif command == "score":
        scores = _table(out / "scores.csv")
        if scores.shape[0] != book.terminal:
            problems.append(f"score: {scores.shape[0]} rows, book has {book.terminal} terminal loans")
        elif not rank_auc(book.labels, scores[:, 1]) >= AUC_FLOOR:
            problems.append(f"score: auc against the generator's labels below floor {AUC_FLOOR}")
    elif command == "price":
        p = _table(out / "pricing.csv")
        pd_, lgd, el, spread = p[:, 1], p[:, 4], p[:, 5], p[:, 6]
        if p.shape[0] != book.terminal:
            problems.append(f"price: {p.shape[0]} rows, book has {book.terminal} terminal loans")
        if np.any(np.abs(el - pd_ * lgd) > EL_RTOL * np.abs(pd_ * lgd)):
            problems.append("price: el != pd * lgd")
        if not np.all(np.isfinite(spread) & (spread >= 0.0)):
            problems.append("price: spread_bps not finite and >= 0")
    return problems, auc


def digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.suffix != ".log"
    }


def run_command(command: str, config: Path, out: Path, book: gen.Book):
    out.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-m", "creditworks.cli", command, "--config", str(config), "--out", str(out)]
    wall, cpu, rss, code = spawn(argv, config.parent, out.parent / f"{command}.log")
    run = CommandRun(command, wall, cpu, rss)
    auc = None
    if code != 0:
        run.problems.append(f"{command}: exit {code}: {(out.parent / f'{command}.log').read_text()[-300:]}")
    else:
        run.problems, auc = check_outputs(command, out, book)
    return run, auc


def write_config(path: Path, book: str, seed: int, model: dict) -> Path:
    cfg = {
        "input": book,
        "seed": seed,
        "test_fraction": 0.25,
        "column_spec": "columns.json",
        "allow_extra_columns": True,
        "model": model,
        "risk_free_rate": 0.03,
    }
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def set_up(wl: Workload, seed: int, base: Path) -> Setup:
    """The book, its column spec and the config."""
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    gen.write_column_spec(base / "columns.json")
    book = gen.write_book(base / "book.csv", wl.rows, wl.purposes, wl.sub_grades, seed)
    config = write_config(base / "config.json", "book.csv", seed, wl.model)
    return Setup(config, book)


def run_sequence(wl: Workload, setup: Setup, rep_dir: Path):
    """The workload's commands once, into a fresh directory."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    out = rep_dir / "out"
    runs, aucs = [], []
    for command in wl.commands:
        run, auc = run_command(command, setup.config, out, setup.book)
        runs.append(run)
        if auc is not None:
            aucs.append(auc)
    return runs, aucs, digests(out)


def end_to_end(runs: list[CommandRun], aucs: list[float], book: gen.Book) -> dict[str, float]:
    wall = sum(r.wall_s for r in runs)
    return {
        "wall_s": wall,
        "cpu_s": sum(r.cpu_s for r in runs),
        "rows_per_s": book.rows * len(runs) / wall,
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "auc": aucs[-1] if aucs else 0.0,  # no AUC only when a command failed
    }


def per_layer(tr, runs: list[CommandRun], startup: float, book: gen.Book) -> dict[str, float]:
    tot = tr.totals()
    own = tr.self_times()
    c = tr.counts
    wall = sum(r.wall_s for r in runs)
    traced = sum(t for layer, t in own.items() if layer != "cli")

    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    m = {f"{name}_s": tot.get(name, 0.0) for name in (
        "dataset.load_csv", "dataset.filter_terminal", "dataset.drop_columns",
        "dataset.handle_missing", "dataset.encode", "dataset.split",
        "features.fit_scaler", "features.transform", "logreg.fit", "logreg.predict",
        "forest.fit", "forest.serialize", "forest.predict", "forest.load",
        "metrics.report", "metrics.roc", "exposure.recovery_rates", "exposure.quote",
        "cds.quote",
    )}
    m.update({f"{layer}.self_s": t for layer, t in own.items()})
    m.update({name: c.get(name, 0.0) for name in (
        "dataset.rows_read", "dataset.rows_terminal", "dataset.cells_missing",
        "dataset.columns_encoded", "logreg.iterations", "forest.nodes", "forest.model_mb",
        "metrics.roc_points", "exposure.loans", "exposure.clamped", "cds.contracts",
        "cds.zero_exposure",
    )})
    m["dataset.csv_mb"] = book.path.stat().st_size / 1e6
    m["logreg.ms_per_iter"] = per(m["logreg.fit_s"], c.get("logreg.iterations", 0), 1e3)
    m["forest.us_per_node"] = per(m["forest.fit_s"], c.get("forest.nodes", 0), 1e6)
    m["forest.ns_per_row_tree"] = per(m["forest.predict_s"], c.get("forest.row_trees", 0), 1e9)
    for command in ARTIFACTS:
        m[f"cli.{command}_s"] = sum(r.wall_s for r in runs if r.command == command)
    m["cli.startup_s"] = startup
    m["cli.residual_s"] = wall - startup * len(runs) - traced
    m["trace.coverage"] = traced / wall
    return m


def measure_startup(base: Path) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        wall, _, _, code = spawn([sys.executable, "-c", "import creditworks.cli"], base, base / "startup.log")
        if code != 0:
            raise RuntimeError(f"importing creditworks.cli failed: {(base / 'startup.log').read_text()}")
        times.append(wall)
    return statistics.median(times)


def traced_sequence(wl: Workload, setup: Setup, out: Path):
    import tracing

    shutil.rmtree(out, ignore_errors=True)
    tr = tracing.Tracer()
    for command in wl.commands:
        tracing.run_command(tr, command, setup.config, out)
    return tr


def load_package() -> None:
    """Import creditworks from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    os.environ["CREDITWORKS_CANONICAL"] = "1"
    import creditworks

    if not Path(creditworks.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported creditworks from {creditworks.__file__}, not {SRC}")


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "creditworks" / "cli.py").is_file():
        print(f"bench: no creditworks package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    base = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = measure(wl, args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result["record"], indent=2, sort_keys=True) + "\n")
    print(f"bench: full record in {record.relative_to(ROOT)}")
    print(json.dumps(result["line"]))
    return 0


def measure(wl: Workload, args, base: Path) -> dict:
    attempted = failed = 0
    problems: list[str] = []

    def tally(runs: list[CommandRun]) -> None:
        nonlocal attempted, failed
        attempted += len(runs)
        for r in runs:
            if r.problems:
                failed += 1
                problems.extend(r.problems)

    # Set-up is timed once before the loop and, without tracing, once more
    # after every repetition, so its median spans the whole run.
    setup_times: list[float] = []
    setup_digests: list[dict[str, str]] = []

    def timed_setup(directory: Path) -> Setup:
        start = time.perf_counter()
        done = set_up(wl, args.seed, directory)
        setup_times.append(time.perf_counter() - start)
        setup_digests.append(digests(directory))
        return done

    setup = timed_setup(base / "setup")

    startup = 0.0
    if args.trace:
        load_package()
        startup = measure_startup(base)

    # The first repetition warms the page cache and the interpreter's files;
    # it is checked like the others but not measured.
    reps, rep_digests = [], []
    deadline = None
    while deadline is None or not reps or time.perf_counter() < deadline:
        runs, aucs, out_digests = run_sequence(wl, setup, base / "rep")
        tally(runs)
        rep_digests.append(out_digests)
        if args.trace:
            tr = traced_sequence(wl, setup, base / "traced")
            attempted += 1
            if digests(base / "traced") != out_digests:
                failed += 1
                problems.append("traced replay wrote different artifacts than the CLI")
            rep = per_layer(tr, runs, startup, setup.book)
        else:
            rep = end_to_end(runs, aucs, setup.book)
            timed_setup(base / "setup-repeat")
        if deadline is None:
            deadline = time.perf_counter() + args.seconds
        else:
            reps.append(rep)
    if any(d != rep_digests[0] for d in rep_digests):
        failed += 1
        problems.append("canonical artifacts differ between repetitions")
    if any(d != setup_digests[0] for d in setup_digests):
        problems.append("set-up wrote different bytes on a repeat")

    values = medians(reps)
    if args.trace:
        values["error_rate"] = failed / attempted
        names = PER_LAYER
    else:
        values["setup_s"] = statistics.median(setup_times)
        names = END_TO_END
        walls = [r["wall_s"] for r in reps]
        print(f"bench: {len(reps)} repetitions; wall_s median {values['wall_s']:.3f} max {max(walls):.3f}")
    for p in problems:
        print(f"bench: FAILED {p}")
    print(f"bench: artifact sha256 {json.dumps(rep_digests[0], sort_keys=True)}")

    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": reps,
        "setup_s": setup_times,
        "artifact_sha256": rep_digests[0],
        "setup_sha256": setup_digests[0],
        "problems": problems,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "result": line,
    }
    return {"line": line, "record": record}


if __name__ == "__main__":
    sys.exit(main())
