"""The array pricing path against a test-only copy of the per-loan loop it replaced.

The reference below is the pricing code as it stood before `price` went
columnar: scalar EAD/LGD/EL/spread formulas, the per-row recovery sums and
the per-row quote loop. The CLI's `pricing.csv` and `recovery.json` must
equal its output byte for byte, and the array functions must equal the
scalar entry points bit for bit.
"""

import csv
import io
import json
import math
import random

import numpy as np
import pytest

from conftest import LOAN_HEADER, build_table, make_loan_rows, write_config, write_loans_csv
from creditworks import cli
from creditworks.cds import CdsTerms, fair_spread, fair_spreads
from creditworks.dataset import STATUS_MAP
from creditworks.errors import DataError
from creditworks.exposure import (
    ExposureColumns,
    ead,
    expected_loss,
    exposure_at_default,
    lgd,
    parse_term_months,
    table_ead,
)


@pytest.fixture(autouse=True)
def canonical_output(monkeypatch):
    monkeypatch.setenv("CREDITWORKS_CANONICAL", "1")


def _ref_ead(funded, principal_received, annual_rate, term_months):
    outstanding = funded - principal_received
    clamped = outstanding < 0
    if clamped:
        outstanding = 0.0
    if funded > 0 and outstanding > 0:
        remaining = math.ceil(term_months * outstanding / funded)
    else:
        remaining = 0
    return outstanding * (1.0 + annual_rate * remaining / 12.0), remaining, clamped


def _ref_spread_bps(maturity, risk_free_rate, pd, recovery_rate):
    tau = maturity / 2.0
    d_tau = math.exp(-risk_free_rate * tau)
    d_mat = math.exp(-risk_free_rate * maturity)
    protection_unit = (1.0 - recovery_rate) * pd * d_tau
    annuity_unit = (1.0 - pd) * maturity * d_mat + pd * tau * d_tau
    return protection_unit / annuity_unit * 1e4


def _ref_record(record, cols):
    rate = float(record[cols.rate])
    return _ref_ead(
        float(record[cols.funded]),
        float(record[cols.principal_received]),
        rate / 100.0 if cols.rate_scale == "percent" else rate,
        parse_term_months(record[cols.term]),
    )


def _ref_recovery(table, cols):
    """recovery_rates as a per-row loop: (rates, overall)."""
    defaulted = {s for s, label in (table.status_map or STATUS_MAP).items() if label == 1}
    names = table.names
    sums, total_rec, total_exp = {}, 0.0, 0.0
    for row in table.rows:
        record = dict(zip(names, row))
        if record[table.target_name] not in defaulted:
            continue
        exposure = _ref_record(record, cols)[0]
        recovered = float(record[cols.recoveries])
        acc = sums.setdefault(record[cols.purpose], [0.0, 0.0])
        acc[0] += recovered
        acc[1] += exposure
        total_rec += recovered
        total_exp += exposure
    overall = min(1.0, max(0.0, total_rec / total_exp))
    rates = {p: min(1.0, max(0.0, rec / exp)) for p, (rec, exp) in sums.items() if exp > 0.0}
    return rates, overall


def _ref_price(table, pd_scores, cols, risk_free):
    """The per-loan quote loop: (pricing.csv rows, recovery.json payload)."""
    rates, overall = _ref_recovery(table, cols)
    names = table.names
    rows = []
    for i, (row, pd_value) in enumerate(zip(table.rows, pd_scores)):
        record = dict(zip(names, row))
        amount, remaining, _ = _ref_record(record, cols)
        rate = rates.get(record[cols.purpose], overall)
        loss = amount * (1.0 - rate)
        el = float(pd_value) * loss
        spread = _ref_spread_bps(remaining / 12.0, risk_free, float(pd_value), rate) if amount > 0.0 else 0.0
        rows.append((i, float(pd_value), amount, rate, loss, el, spread))
    payload = {"rates": {k: float(v) for k, v in sorted(rates.items())}, "overall_rate": overall}
    return rows, payload


def _pricing_book(n=400, seed=0):
    """Rows in LOAN_HEADER order with what pricing has to get right: in-flight
    rows, partly repaid paid-off loans, overpaid loans (EAD clamps to 0),
    unfunded loans, charged-off loans repaid in full, a purpose ("wedding")
    that is never charged off, rates with and without "%" and missing
    feature cells."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        status = rng.choice(["Fully Paid"] * 5 + ["Charged Off"] * 3 + ["Current", "Late (31-120 days)"])
        purpose = rng.choice(["car", "credit_card", "house", "small_business"])
        if status != "Charged Off" and rng.random() < 0.3:
            purpose = "wedding"
        amnt = rng.choice([0, 1000, 4000, 8000, 12000, 20025, 35000]) if i > 5 else 8000
        share = rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 1.3)])
        rate = round(rng.uniform(5, 26), 2)
        rows.append([
            amnt, rng.choice([" 36 months", " 60 months", "36 months", "12 months"]),
            rng.choice([f"{rate}%", rate]), rng.choice(["A1", "B2", "C3"]), "eng",
            "5 years", "C", "Jan-2018", "personal",
            "" if rng.random() < 0.05 else rng.randint(30000, 150000),
            round(rng.uniform(5, 30), 1), rng.randint(3, 20), rng.randint(8, 40),
            purpose, rng.randint(600, 820), status,
            round(rng.uniform(0, 600), 2) if status == "Charged Off" else 0.0,
            round(amnt * share, 2),
        ])
    return rows


def _csv_bytes(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "pd", "ead", "recovery_rate", "lgd", "el", "spread_bps"])
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("book", ["conftest", "pricing"])
def test_price_matches_per_loan_reference(tmp_path, book):
    rows = make_loan_rows() if book == "conftest" else _pricing_book()
    write_loans_csv(tmp_path / "loans.csv", rows, header=LOAN_HEADER)
    write_config(tmp_path / "config.json")
    config = str(tmp_path / "config.json")
    assert cli.main(["train", "--config", config]) == 0
    assert cli.main(["price", "--config", config]) == 0

    cfg, base = cli._read_config(config)
    _, table, matrix, _ = cli._load(cfg, base)
    _, pd_scores, _ = cli._predictions(tmp_path / "out" / "model.json", matrix)
    want_rows, want_recovery = _ref_price(table, pd_scores, cli._exposure_columns(cfg), 0.03)

    out = tmp_path / "out"
    assert (out / "pricing.csv").read_bytes() == _csv_bytes(want_rows)
    assert json.loads((out / "recovery.json").read_text()) == want_recovery
    assert (out / "recovery.json").read_text() == json.dumps(want_recovery, sort_keys=True, indent=2) + "\n"
    if book == "pricing":
        amounts = [r[2] for r in want_rows]
        assert any(a == 0.0 for a in amounts) and any(a > 0.0 for a in amounts)
        assert "wedding" not in want_recovery["rates"]
        assert any(r[3] == want_recovery["overall_rate"] for r in want_rows)
        terminal = [r for r in rows if r[15] in STATUS_MAP]
        assert any(r[17] > r[0] for r in terminal)  # an overpaid loan reached pricing


def _random_loans(n, seed):
    rng = np.random.default_rng(seed)
    funded = rng.choice([0.0, 1000.0, 8000.0, 20025.0, 35000.0], n) * rng.uniform(0.5, 1.5, n)
    funded[rng.random(n) < 0.05] = 0.0
    received = funded * rng.choice([0.0, 1.0, 0.3, 1.2], n) * rng.uniform(0.0, 1.0, n)
    rate = rng.uniform(0.0, 0.3, n)
    term = rng.choice([0.0, 12.0, 36.0, 60.0], n)
    return funded, received, rate, term


def test_exposure_arrays_equal_scalar_and_reference_bits():
    funded, received, rate, term = _random_loans(3000, 5)
    got = exposure_at_default(funded, received, rate, term)
    for i in range(funded.size):
        scalar = ead(float(funded[i]), float(received[i]), float(rate[i]), int(term[i]))
        want = _ref_ead(float(funded[i]), float(received[i]), float(rate[i]), int(term[i]))
        assert float(scalar).hex() == float(got.amount[i]).hex() == want[0].hex()
        assert scalar.remaining_months == got.remaining_months[i] == want[1]
        assert scalar.clamped == got.clamped[i] == want[2]
    assert got.clamped.any() and (got.amount == 0.0).any() and (got.remaining_months > 0).any()


def test_loss_and_spread_arrays_equal_scalar_bits():
    rng = np.random.default_rng(8)
    n = 2000
    amount = rng.uniform(0.0, 40_000.0, n)
    recovery = rng.uniform(0.0, 1.0, n)
    recovery[:3] = (0.0, 1.0, 0.5)
    pd_values = rng.uniform(0.0, 1.0, n)
    pd_values[3:5] = (0.0, 1.0)
    maturity = rng.integers(1, 61, n) / 12.0
    loss = lgd(amount, recovery)
    el = expected_loss(pd_values, amount, recovery)
    quote = fair_spreads(amount, maturity, 0.03, pd_values, recovery)
    for i in range(n):
        args = float(amount[i]), float(recovery[i])
        assert lgd(*args).hex() == float(loss[i]).hex()
        assert expected_loss(float(pd_values[i]), *args).hex() == float(el[i]).hex()
        one = fair_spread(CdsTerms(args[0], float(maturity[i]), 0.03, float(pd_values[i]), args[1]))
        for field in ("spread_per_annum", "spread_bps", "premium_leg_value", "protection_leg_value"):
            assert getattr(one, field).hex() == float(getattr(quote, field)[i]).hex()
        want = _ref_spread_bps(float(maturity[i]), 0.03, float(pd_values[i]), args[1])
        assert one.spread_bps.hex() == want.hex()


def test_scalar_entry_points_return_floats():
    assert type(lgd(100.0, 0.5)) is float
    assert type(expected_loss(0.5, 100.0, 0.5)) is float
    assert type(fair_spread(CdsTerms(100.0, 1.0, 0.03, 0.2, 0.4)).spread_bps) is float
    result = ead(1000.0, 250.0, 0.1, 36)
    assert type(result.remaining_months) is int and type(result.clamped) is bool


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: exposure_at_default([1.0, -2.0, -3.0], 0.0, 0.1, 12), "funded amount must be >= 0, got -2.0"),
        (lambda: exposure_at_default(1.0, 0.0, [0.1, -0.5], 12), "interest rate must be >= 0, got -0.5"),
        (lambda: exposure_at_default(1.0, 0.0, 0.1, np.array([12, -1])), "term must be >= 0 months, got -1.0"),
        (lambda: lgd([1.0, 2.0], [0.5, 1.5]), "recovery rate must lie in [0, 1], got 1.5"),
        (lambda: lgd([1.0, -4.0], 0.5), "EAD must be >= 0, got -4.0"),
        (lambda: expected_loss([0.5, np.nan], 1.0, 0.5), "pd must lie in [0, 1], got nan"),
        (lambda: fair_spreads(1.0, [1.0, 0.0], 0.0, 0.5, 0.5), "maturity must be positive, got 0.0"),
        (lambda: fair_spreads([1.0, -1.0], 1.0, 0.0, 0.5, 0.5), "notional must be >= 0, got -1.0"),
        (lambda: exposure_at_default(np.nan, 0.0, 0.1, 12), "funded amount must be >= 0, got nan"),
        (lambda: exposure_at_default(1.0, 0.0, [0.1, np.nan], 12), "interest rate must be >= 0, got nan"),
        (lambda: exposure_at_default(1.0, 0.0, 0.1, np.nan), "term must be >= 0 months, got nan"),
        (lambda: lgd(np.nan, 0.5), "EAD must be >= 0, got nan"),
        (lambda: fair_spreads(np.nan, 1.0, 0.0, 0.5, 0.5), "notional must be >= 0, got nan"),
        (lambda: fair_spreads(1.0, [1.0, np.nan], 0.0, 0.5, 0.5), "maturity must be positive, got nan"),
        # One maturity for two contracts: the message names that maturity.
        (lambda: fair_spreads(1.0, 1e300, 0.03, [0.2, 0.3], 0.4), "at maturity (years), got 1e+300"),
    ],
)
def test_array_validation_names_the_first_bad_value(call, fragment):
    with pytest.raises(DataError) as info:
        call()
    assert fragment in str(info.value)


def test_table_exposure_rejects_missing_and_non_numeric_cells():
    columns = [("loan_amnt", "numeric", "feature"), ("total_rec_prncp", "numeric", "exposure_aux"),
               ("int_rate", "numeric", "feature"), ("term", "text", "feature"),
               ("loan_status", "text", "target")]
    good = (1000.0, 0.0, 10.0, " 12 months", "Fully Paid")
    assert table_ead(build_table(columns, [good]), ExposureColumns()).amount.tolist() == [1100.0]
    for j in range(4):
        row = list(good)
        row[j] = None
        with pytest.raises(DataError, match="is missing a value"):
            table_ead(build_table(columns, [good, tuple(row)]), ExposureColumns())
    as_text = [(n, "text" if n == "loan_amnt" else k, r) for n, k, r in columns]
    with pytest.raises(DataError, match="must be numeric"):
        table_ead(build_table(as_text, [("1000", *good[1:])]), ExposureColumns())
