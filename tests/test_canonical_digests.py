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
    "correlation.csv": "34b397bab98d7c1b574f6a53c6f5becf3ff29da2cf88822849a11f9e63b1e76c",
    "prepared/columns.json": "906fe50a82b6bd424467be67a3da96380a0dcec58f885b8588ef28f7cf2ab155",
    "prepared/encode_report.json": "ac8a1251e2b7795947f22379054d50951097ef386eb2a28067a5f1c34af4a1aa",
    "prepared/scaler.json": "c5652d9293bf1d8e454f5f6c61bf427f4140a9de28df2a8b7db7f476bd1dca46",
    "prepared/x_test.npy": "2b1e9b53e1b54295e170d6533b67f3360e429962b22b0369591f4d97a905e428",
    "prepared/x_train.npy": "c04c1e49436472ad893af83e7629b57303a18a45f051661fb2648336aa103118",
    "prepared/y_test.npy": "e23f0e9b3e4536aac33255efc78094f72e5389cf519de3e9445917b8d1e4727e",
    "prepared/y_train.npy": "8994bde77158fe9c323991effc1899bb85c70a9aa7be459dab36447f78260036",
    "recovery.json": "f1bb8ec53a68a1bb4d2243be12abbb146ec9f1f0e4c4874eff819cd0874853e8",
    "summary.json": "4f3d366501da7c7cfb5715d27ae20f85a7bf3f6e6996a9f963ed6fa9ae0e4239",
}

CASES = {
    "logreg": (
        None,
        {
            "comparison.json": "4bbe4641ab230acabb8572ecec598791b481c5e245ac2a59d5dcf8ae0cbe6cf5",
            "model.json": "eae277bc6781e04eeff7719c79d8713495f9b3a2e9f90c8cf9315508e110e98c",
            "pricing.csv": "1ccdaf98aee5e615114b99e7e3b34a4b34564cd9cb2fa4ccf52d8dc37ebbb74e",
            "report.json": "a1a42895cd0a345d5f93d3aace81c3bad28f92febbbbb5ffd47a2de7ea515210",
            "report.txt": "20cf16a94a7e407565df612ccb4f6b33dbbdcb7c4583ac7e9b9f251d19241884",
            "roc.csv": "27f3b9d99c1003a800dec01ae0977f554abcd5c0c53fd1ae5d699c23d78d4553",
            "scores.csv": "e12eddaa7589af3eb6fb85946548796a7892d6f9fecbf35ecba5ca0204e9f239",
            "training_log.json": "3acbb78ae18e785b791c55d274775086ddceafbede5b8e92bace52ddde509d08",
        },
    ),
    "forest": (
        {"kind": "forest", "n_trees": 5, "max_depth": 4},
        {
            "comparison.json": "4c66f08c291f0cc9b6ec10109e0f967353865b575fa80b7acf7d483ef5a071e8",
            "model.json": "3b624f21317af7cb94ced1e7b828898c0fd78f61125b7f5d90ae3da1739317ff",
            "pricing.csv": "7195d3c847feeedc16864d8f8e7e2c5c2ac6f0d8ab6a9c3e95d02f9e1b75af63",
            "report.json": "03391ea42d47c6c8e10600c02e6136ad29ae0bd659e9c48637389062d9e56bd7",
            "report.txt": "20cf16a94a7e407565df612ccb4f6b33dbbdcb7c4583ac7e9b9f251d19241884",
            "roc.csv": "f353c14d9b074a35e9f0e264aff8dd233238381484b9c8d0cd8e2886d32ba672",
            "scores.csv": "4a32768830ea66f010749ad0252b7ad43991c02b6c481744ac89baae06c6d237",
            "training_log.json": "620c9b8a5f5dfff46edae95301948ed5880fb7c8340f515d23e30c5b441ac5a8",
        },
    ),
    # The benchmark's forest shape: trees deep enough that the grower's
    # steps hold many nodes of every depth at once.
    "forest-deep": (
        {"kind": "forest", "n_trees": 30, "max_depth": 10},
        {
            "comparison.json": "4c66f08c291f0cc9b6ec10109e0f967353865b575fa80b7acf7d483ef5a071e8",
            "model.json": "f8931da514a2164326b444f86e2eaa8cb1aa4796b8697ea72008176e82a157f2",
            "pricing.csv": "7d1a4a78ec3890d7c477e431224138c32d368c454c68aaa9eb82bf7d9705a568",
            "report.json": "03391ea42d47c6c8e10600c02e6136ad29ae0bd659e9c48637389062d9e56bd7",
            "report.txt": "20cf16a94a7e407565df612ccb4f6b33dbbdcb7c4583ac7e9b9f251d19241884",
            "roc.csv": "97abf2e67d13fa8e5156b249a4745853e0f391ff90cfdc5672b8ab14c783ae14",
            "scores.csv": "10893b1915b19d54b567521150bfec466d31e6e51fbf8f6e972d34e366e355f1",
            "training_log.json": "ef5b7524192ee373237642371b0717b4012cec82d547e44dad45d897b58ae399",
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
