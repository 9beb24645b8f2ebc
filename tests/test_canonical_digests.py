"""Golden digests: every artifact of the six commands, byte for byte.

Runs explore, prepare, train, evaluate, score and price under
CREDITWORKS_CANONICAL=1 on the shared synthetic book, once with the
logistic config (fitted by Newton's method), once with a 5-tree forest of
depth 4 and once with a 30-tree forest of depth 10, and compares the sha256 of each file the commands write with the digests
below. The logistic run is repeated on the book with one more column,
outside the spec, read with allow_extra_columns: it must change no byte. A
refactor must leave them all unchanged; a change that alters bytes on
purpose updates the digests here and says why in CHANGES.md.
"""

import hashlib

import pytest

from conftest import LOAN_HEADER, make_loan_rows, write_config, write_loans_csv
from creditworks.cli import main

COMMANDS = ("explore", "prepare", "train", "evaluate", "score", "price")

# Artifacts that do not depend on the model kind.
SHARED = {
    "correlation.csv": "9901bee74ba9311d0cb3903196749da1f2bdfcedd241c17d9c35978fda36b613",
    "prepared/columns.json": "906fe50a82b6bd424467be67a3da96380a0dcec58f885b8588ef28f7cf2ab155",
    "prepared/encode_report.json": "ac8a1251e2b7795947f22379054d50951097ef386eb2a28067a5f1c34af4a1aa",
    "prepared/scaler.json": "820f3b6bfabe2fa781d98cbaee2aea4b3fa864228a9f1112ee6436f7726a708f",
    "prepared/x_test.npy": "1f8a88fc77ac474bff8b191f53c6f1461509fd7b26ed6cc4aefa43249f9bb1e2",
    "prepared/x_train.npy": "c60891f9d265e03d11262db6dd3eb8e2d668564f3dec70b97be13a753329e4e9",
    "prepared/y_test.npy": "5838d6ee1fb6663c511f8b44e357f8a47ca00d2240c035c23f72a81b9673aca7",
    "prepared/y_train.npy": "f157dc91bc491198011be1ca1848586cd1a3e01f5225e14a552c4dc6fc2d4a08",
    "recovery.json": "f1bb8ec53a68a1bb4d2243be12abbb146ec9f1f0e4c4874eff819cd0874853e8",
    "summary.json": "4f3d366501da7c7cfb5715d27ae20f85a7bf3f6e6996a9f963ed6fa9ae0e4239",
}

CASES = {
    "logreg": (
        None,
        {
            "comparison.json": "4bbe4641ab230acabb8572ecec598791b481c5e245ac2a59d5dcf8ae0cbe6cf5",
            "model.json": "b443de6f91b12f85dc1568456abad6b376acd3c9b50e4a41f17f869f786037ea",
            "pricing.csv": "8d14566c3a23b74cf035555adf32187b19f14e7faa0e8514a8df6537d932bbdf",
            "report.json": "eecf61ea5d60b06a33523c059332aa50135cceca1320f20ca30ce36b251c1509",
            "report.txt": "20cf16a94a7e407565df612ccb4f6b33dbbdcb7c4583ac7e9b9f251d19241884",
            "roc.csv": "a9c1b2853102be22e9b17a743683c928cbe73f218934ead441e487a6eb3c2d8e",
            "scores.csv": "e41b0e6afe6feb071d7c97d264568ea1debe00f70dd4594203f8171c655205e3",
            "training_log.json": "b5030df6bf80a316b72d739669ccd2a1b01130e24002e835bee302471d5364b1",
        },
    ),
    "forest": (
        {"kind": "forest", "n_trees": 5, "max_depth": 4},
        {
            "comparison.json": "4c66f08c291f0cc9b6ec10109e0f967353865b575fa80b7acf7d483ef5a071e8",
            "model.json": "e37512b20e0d5f8ca6439e7f0e09d501f5d9514fce48066612a9a563ce9d41e2",
            "pricing.csv": "b97202683d729f1165f0c94351702f42c47f1a457c0521bf19dccb2273325e9d",
            "report.json": "9d10600641f6b2d80666d72a494b09a9d3980109e21665be1932380e7ec3fcbc",
            "report.txt": "20cf16a94a7e407565df612ccb4f6b33dbbdcb7c4583ac7e9b9f251d19241884",
            "roc.csv": "b0d40914f52389a23994c3f70704be9e430799a97ed824c626647480bcee99e3",
            "scores.csv": "a80e339b572fa70db64778f2b117432079d100bb142e5b02d67675b79ca06489",
            "training_log.json": "12cc85ed1b3670d670b69297d2407ad5d23eee85d7f19f0d7d42906e9dbb63c6",
        },
    ),
    # The benchmark's forest shape: trees deep enough that the grower's
    # steps hold many nodes of every depth at once.
    "forest-deep": (
        {"kind": "forest", "n_trees": 30, "max_depth": 10},
        {
            "comparison.json": "4c66f08c291f0cc9b6ec10109e0f967353865b575fa80b7acf7d483ef5a071e8",
            "model.json": "ccd57013bf0aa37552eabbf8c7239456e1e86ad00d3fcd073e63ac44b9f12638",
            "pricing.csv": "13e9b7c6ae2e208599659815318744e04856ea634310418de404dbc9790a36f0",
            "report.json": "9d10600641f6b2d80666d72a494b09a9d3980109e21665be1932380e7ec3fcbc",
            "report.txt": "20cf16a94a7e407565df612ccb4f6b33dbbdcb7c4583ac7e9b9f251d19241884",
            "roc.csv": "f2af7ea6bf1d00f350b4e52004e9ad376b12eb700318c2a2b006438f4b3ba329",
            "scores.csv": "88b45bb023d6e6fcacc3eeb2c259ad363bf532f4c6983d6304b3abf7890e713f",
            "training_log.json": "b438c8d8e1ab662f69c5f0e30eed7dcaefd83ec3b4e7b9bfeb10f4e6504144e7",
        },
    ),
}


def _digests(tmp_path, monkeypatch, loans=None, header=None, **config) -> dict:
    """sha256 of every file the six commands write, by path under out/."""
    monkeypatch.setenv("CREDITWORKS_CANONICAL", "1")
    write_loans_csv(tmp_path / "loans.csv", loans, header)
    write_config(tmp_path / "config.json", **config)
    for command in COMMANDS:
        assert main([command, "--config", str(tmp_path / "config.json")]) == 0, command

    out = tmp_path / "out"
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _assert_golden(digests: dict, kind: str) -> None:
    expected = {**SHARED, **CASES[kind][1]}
    assert sorted(digests) == sorted(expected)
    changed = sorted(name for name in expected if digests[name] != expected[name])
    assert changed == [], f"artifacts changed bytes: {changed}"


@pytest.mark.parametrize("kind", sorted(CASES))
def test_all_artifacts_match_golden_digests(tmp_path, monkeypatch, kind):
    model = CASES[kind][0]
    config = {} if model is None else {"model": model}
    _assert_golden(_digests(tmp_path, monkeypatch, **config), kind)


def test_unspecced_column_leaves_every_artifact_unchanged(tmp_path, monkeypatch):
    """A column outside the spec, distinct on every row, read with
    allow_extra_columns: the logistic digests stay the golden ones."""
    loans = [[f"M{1_000_000 + i}", *row] for i, row in enumerate(make_loan_rows())]
    digests = _digests(
        tmp_path, monkeypatch, loans, ["member_id", *LOAN_HEADER], allow_extra_columns=True
    )
    _assert_golden(digests, "logreg")
