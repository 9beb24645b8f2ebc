import numpy as np
import pytest

from conftest import build_table
from creditworks import (
    ExposureColumns,
    RecoveryTable,
    build_quote,
    ead,
    expected_loss,
    lgd,
    parse_term_months,
    recovery_rates,
)
from creditworks.errors import DataError, MissingExposureColumnError
from creditworks.exposure import record_ead

EXPOSURE_COLUMNS = [
    ("id", "numeric", "feature"),
    ("loan_amnt", "numeric", "feature"),
    ("total_rec_prncp", "numeric", "exposure_aux"),
    ("int_rate", "numeric", "feature"),
    ("term", "text", "feature"),
    ("purpose", "text", "feature"),
    ("recoveries", "numeric", "exposure_aux"),
    ("loan_status", "text", "target"),
]


def _loan(id_, amnt, prncp, rate, term, purpose, rec, status):
    return (id_, amnt, prncp, rate, term, purpose, rec, status)


def test_ead_fully_repaid_is_zero():
    result = ead(10_000.0, 10_000.0, 0.10, 36)
    assert result == 0.0
    assert result.remaining_months == 0
    assert not result.clamped


def test_ead_zero_rate_untouched_loan():
    result = ead(5_000.0, 0.0, 0.0, 36)
    assert result == 5_000.0
    assert result.remaining_months == 36


def test_ead_hand_value():
    result = ead(10_000.0, 0.0, 0.10, 12)
    assert result == 11_000.0
    assert result.remaining_months == 12


def test_ead_overpayment_clamps():
    result = ead(10_000.0, 10_500.0, 0.10, 36)
    assert result == 0.0
    assert result.clamped
    assert result.remaining_months == 0


def test_ead_prorates_remaining_term():
    result = ead(1_200.0, 600.0, 0.0, 12)
    assert result.remaining_months == 6
    assert result == 600.0


def test_ead_remaining_months_rounds_up():
    result = ead(1_000.0, 999.0, 0.0, 36)
    # 36 * 1/1000 = 0.036 months, partially elapsed months still count
    assert result.remaining_months == 1


def test_ead_interest_accrues_on_outstanding():
    result = ead(1_200.0, 600.0, 0.10, 12)
    assert result == pytest.approx(600.0 * (1 + 0.10 * 6 / 12), abs=1e-12)


def test_ead_zero_funding_is_zero_exposure():
    result = ead(0.0, 0.0, 0.1, 12)
    assert result == 0.0
    assert result.remaining_months == 0


def test_ead_validates():
    with pytest.raises(DataError):
        ead(-100.0, 0.0, 0.1, 12)
    with pytest.raises(DataError):
        ead(100.0, 0.0, -0.1, 12)
    with pytest.raises(DataError):
        ead(100.0, 0.0, 0.1, -1)


def test_lgd_published_exposure_row():
    ead_amount = 18_330.0
    rate = 1.0 - 16_727.9 / 18_330.0
    assert lgd(ead_amount, rate) == pytest.approx(16_727.9, abs=0.5)


def test_lgd_extremes():
    assert lgd(1_000.0, 1.0) == 0.0
    assert lgd(1_000.0, 0.0) == 1_000.0


def test_lgd_validates():
    with pytest.raises(DataError):
        lgd(-1.0, 0.5)
    with pytest.raises(DataError):
        lgd(100.0, 1.5)


def test_expected_loss_published_rows():
    # pd, ead, lgd, el
    rows = [
        (0.09, 18_330.0, 16_727.9, 1_505.52),
        (0.41, 11_222.7, 10_241.8, 4_199.14),
    ]
    for pd_value, ead_amount, lgd_amount, el_amount in rows:
        rate = 1.0 - lgd_amount / ead_amount
        assert expected_loss(pd_value, ead_amount, rate) == pytest.approx(
            el_amount, abs=0.05
        )


def test_expected_loss_zero_pd():
    assert expected_loss(0.0, 10_000.0, 0.3) == 0.0


def test_expected_loss_monotone_in_pd():
    values = [expected_loss(p, 5_000.0, 0.4) for p in np.linspace(0.0, 1.0, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_expected_loss_bounded_by_ead():
    rng = np.random.default_rng(6)
    for _ in range(50):
        pd_value = float(rng.uniform(0, 1))
        ead_amount = float(rng.uniform(1, 50_000))
        rate = float(rng.uniform(0, 1))
        el_amount = expected_loss(pd_value, ead_amount, rate)
        assert 0.0 <= el_amount <= ead_amount + 1e-9


def test_parse_term_months():
    assert parse_term_months(" 36 months") == 36
    assert parse_term_months("60 months") == 60
    assert parse_term_months(60.0) == 60
    assert parse_term_months(36) == 36
    with pytest.raises(DataError):
        parse_term_months("no digits here")
    with pytest.raises(DataError):
        parse_term_months(None)


def test_parse_term_months_rejects_a_count_beyond_float_range():
    huge = " 1" + "0" * 400 + " months"
    with pytest.raises(DataError, match="cannot read a term in months from ' 1000"):
        parse_term_months(huge)
    assert parse_term_months(" 1" + "0" * 300 + " months") == 10**300


def test_record_ead_reads_row():
    row = {
        "loan_amnt": 10_000.0,
        "total_rec_prncp": 0.0,
        "int_rate": 10.0,
        "term": " 12 months",
    }
    result = record_ead(row, ExposureColumns())
    assert result == 11_000.0


def test_record_ead_missing_column():
    row = {"loan_amnt": 10_000.0, "int_rate": 10.0, "term": " 12 months"}
    with pytest.raises(MissingExposureColumnError):
        record_ead(row, ExposureColumns())


def test_recovery_rates_single_loan():
    # One charged-off loan: rate = recovered / EAD.
    table = build_table(
        EXPOSURE_COLUMNS,
        [
            _loan(1.0, 10_000.0, 0.0, 10.0, " 12 months", "car", 961.4, "Charged Off"),
            _loan(2.0, 5_000.0, 0.0, 10.0, " 12 months", "car", 0.0, "Fully Paid"),
        ],
    )
    result = recovery_rates(table, ExposureColumns())
    assert result.rates["car"] == pytest.approx(961.4 / 11_000.0, abs=1e-12)
    assert result.overall_rate == pytest.approx(961.4 / 11_000.0, abs=1e-12)


def test_recovery_rates_zero_and_full():
    table = build_table(
        EXPOSURE_COLUMNS,
        [
            _loan(1.0, 1_000.0, 0.0, 0.0, " 12 months", "car", 0.0, "Charged Off"),
            _loan(2.0, 1_000.0, 0.0, 0.0, " 12 months", "house", 1_000.0, "Charged Off"),
        ],
    )
    result = recovery_rates(table, ExposureColumns())
    assert result.rates["car"] == 0.0
    assert result.rates["house"] == 1.0


def test_recovery_rates_per_purpose_pools():
    table = build_table(
        EXPOSURE_COLUMNS,
        [
            _loan(1.0, 1_000.0, 0.0, 0.0, " 12 months", "car", 100.0, "Charged Off"),
            _loan(2.0, 3_000.0, 0.0, 0.0, " 12 months", "car", 500.0, "Charged Off"),
            _loan(3.0, 2_000.0, 0.0, 0.0, " 12 months", "house", 400.0, "Charged Off"),
        ],
    )
    result = recovery_rates(table, ExposureColumns())
    assert result.rates["car"] == pytest.approx(600.0 / 4_000.0, abs=1e-12)
    assert result.rates["house"] == pytest.approx(400.0 / 2_000.0, abs=1e-12)
    assert result.overall_rate == pytest.approx(1_000.0 / 6_000.0, abs=1e-12)
    # Unseen purpose falls back to the pooled rate.
    assert result.rate_for("boat") == result.overall_rate


def test_recovery_rates_skip_fully_repaid_charged_off():
    # A charged-off loan with nothing outstanding adds no exposure; its
    # purpose has no usable pool so lookups fall back.
    table = build_table(
        EXPOSURE_COLUMNS,
        [
            _loan(1.0, 1_000.0, 1_000.0, 0.0, " 12 months", "car", 0.0, "Charged Off"),
            _loan(2.0, 2_000.0, 0.0, 0.0, " 12 months", "house", 400.0, "Charged Off"),
        ],
    )
    result = recovery_rates(table, ExposureColumns())
    assert "car" not in result.rates
    assert result.rate_for("car") == result.overall_rate


def test_recovery_rates_require_charged_off_rows():
    table = build_table(
        EXPOSURE_COLUMNS,
        [_loan(1.0, 1_000.0, 0.0, 0.0, " 12 months", "car", 0.0, "Fully Paid")],
    )
    with pytest.raises(DataError):
        recovery_rates(table, ExposureColumns())


def test_recovery_rates_missing_column():
    columns = [c for c in EXPOSURE_COLUMNS if c[0] != "recoveries"]
    rows = [(1.0, 1_000.0, 0.0, 0.0, " 12 months", "car", "Charged Off")]
    table = build_table(columns, rows)
    with pytest.raises(MissingExposureColumnError):
        recovery_rates(table, ExposureColumns())


def test_recovery_rates_clamped_to_unit_interval():
    # Recovered more than the exposure (fees, penalties): rate caps at 1.
    table = build_table(
        EXPOSURE_COLUMNS,
        [_loan(1.0, 1_000.0, 0.0, 0.0, " 12 months", "car", 1_500.0, "Charged Off")],
    )
    result = recovery_rates(table, ExposureColumns())
    assert result.rates["car"] == 1.0


def test_recovery_table_roundtrip_and_fallback():
    table = RecoveryTable(rates={"car": 0.2, "house": 0.4}, overall_rate=0.3)
    back = RecoveryTable.from_json_dict(table.to_json_dict())
    assert back.rates == table.rates
    assert back.rate_for("car") == 0.2
    assert back.rate_for("unknown") == 0.3


def test_build_quote_consistency():
    quote = build_quote(pd=0.2, ead_amount=10_000.0, recovery_rate=0.25)
    assert quote.lgd_amount == pytest.approx(7_500.0, abs=1e-9)
    assert quote.el == pytest.approx(1_500.0, abs=1e-9)
    assert quote.ead == 10_000.0


def test_build_quote_validates():
    with pytest.raises(DataError):
        build_quote(pd=1.2, ead_amount=100.0, recovery_rate=0.5)
    with pytest.raises(DataError):
        build_quote(pd=0.5, ead_amount=-1.0, recovery_rate=0.5)
