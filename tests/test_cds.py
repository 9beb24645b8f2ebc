import math

import numpy as np
import pytest

from creditworks import CdsTerms, build_quote, discount, fair_spread, price_for_loan
from creditworks.cds import fair_spreads
from creditworks.errors import DataError


def make_terms(**overrides):
    base = dict(notional=1.0, maturity=1.0, risk_free_rate=0.0, pd=0.5, recovery_rate=0.0)
    base.update(overrides)
    return CdsTerms(**base)


def test_discount_at_time_zero():
    assert discount(0.05, 0.0) == 1.0


def test_discount_zero_rate():
    assert discount(0.0, 7.0) == 1.0


def test_discount_hand_value():
    assert discount(0.05, 2.0) == pytest.approx(0.9048374180359595, abs=1e-16)


def test_discount_rejects_negative_time():
    with pytest.raises(DataError):
        discount(0.05, -1.0)


def test_fair_spread_zero_pd_is_exactly_zero():
    quote = fair_spread(make_terms(pd=0.0))
    assert quote.spread_per_annum == 0.0
    assert quote.spread_bps == 0.0


def test_fair_spread_full_recovery_is_exactly_zero():
    quote = fair_spread(make_terms(recovery_rate=1.0))
    assert quote.spread_per_annum == 0.0


def test_fair_spread_hand_value():
    # pd=0.5, R=0, r=0, T=1: protection=0.5, annuity=0.5*1 + 0.5*0.5=0.75
    quote = fair_spread(make_terms())
    assert quote.spread_per_annum == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert quote.spread_bps == pytest.approx(20_000.0 / 3.0, abs=1e-10)


def test_fair_spread_legs_balance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        terms = make_terms(
            notional=float(rng.uniform(1_000, 100_000)),
            maturity=float(rng.uniform(0.25, 10.0)),
            risk_free_rate=float(rng.uniform(0.0, 0.12)),
            pd=float(rng.uniform(0.01, 0.99)),
            recovery_rate=float(rng.uniform(0.0, 0.95)),
        )
        quote = fair_spread(terms)
        scale = max(abs(quote.premium_leg_value), abs(quote.protection_leg_value), 1e-12)
        assert abs(quote.premium_leg_value - quote.protection_leg_value) / scale < 1e-9


def test_fair_spread_strictly_increasing_in_pd():
    spreads = [
        fair_spread(make_terms(pd=p, recovery_rate=0.4, risk_free_rate=0.03)).spread_per_annum
        for p in np.linspace(0.01, 0.99, 99)
    ]
    assert all(b > a for a, b in zip(spreads, spreads[1:]))


def test_fair_spread_strictly_decreasing_in_recovery():
    spreads = [
        fair_spread(make_terms(pd=0.3, recovery_rate=r)).spread_per_annum
        for r in np.linspace(0.0, 0.99, 34)
    ]
    assert all(b < a for a, b in zip(spreads, spreads[1:]))


def test_fair_spread_short_term_exceeds_long_term():
    short = fair_spread(make_terms(pd=0.2, maturity=1.0, risk_free_rate=0.03))
    long = fair_spread(make_terms(pd=0.2, maturity=3.0, risk_free_rate=0.03))
    assert short.spread_per_annum > long.spread_per_annum


def test_fair_spread_notional_invariant():
    small = fair_spread(make_terms(notional=1.0, pd=0.3, recovery_rate=0.2))
    big = fair_spread(make_terms(notional=1_000_000.0, pd=0.3, recovery_rate=0.2))
    assert small.spread_per_annum == pytest.approx(big.spread_per_annum, abs=1e-15)
    assert big.premium_leg_value == pytest.approx(
        1_000_000.0 * small.premium_leg_value, rel=1e-12
    )


def test_fair_spread_matches_closed_form():
    pd_value, recovery, rate, maturity = 0.25, 0.4, 0.05, 2.0
    tau = maturity / 2.0
    protection = (1 - recovery) * pd_value * math.exp(-rate * tau)
    annuity = (1 - pd_value) * maturity * math.exp(-rate * maturity) + pd_value * tau * math.exp(
        -rate * tau
    )
    quote = fair_spread(
        make_terms(pd=pd_value, recovery_rate=recovery, risk_free_rate=rate, maturity=maturity)
    )
    assert quote.spread_per_annum == pytest.approx(protection / annuity, abs=1e-15)


def test_terms_validation():
    with pytest.raises(DataError):
        make_terms(maturity=0.0)
    with pytest.raises(DataError):
        make_terms(pd=-0.1)
    with pytest.raises(DataError):
        make_terms(pd=1.1)
    with pytest.raises(DataError):
        make_terms(recovery_rate=1.5)
    with pytest.raises(DataError):
        make_terms(notional=-1.0)


def test_price_for_loan_zero_pd():
    quote = build_quote(pd=0.0, ead_amount=5_000.0, recovery_rate=0.3)
    priced = price_for_loan(quote, maturity_years=1.0, risk_free_rate=0.03)
    assert priced.spread_bps == 0.0


def test_price_for_loan_monotone_in_pd():
    low = price_for_loan(
        build_quote(pd=0.2, ead_amount=5_000.0, recovery_rate=0.3),
        maturity_years=2.0,
        risk_free_rate=0.03,
    )
    high = price_for_loan(
        build_quote(pd=0.4, ead_amount=5_000.0, recovery_rate=0.3),
        maturity_years=2.0,
        risk_free_rate=0.03,
    )
    assert high.spread_bps > low.spread_bps


def test_price_for_loan_uses_ead_as_notional():
    quote = build_quote(pd=0.3, ead_amount=7_500.0, recovery_rate=0.1)
    priced = price_for_loan(quote, maturity_years=1.5, risk_free_rate=0.02)
    direct = fair_spread(
        CdsTerms(
            notional=7_500.0,
            maturity=1.5,
            risk_free_rate=0.02,
            pd=0.3,
            recovery_rate=0.1,
        )
    )
    assert priced.spread_per_annum == direct.spread_per_annum
    assert priced.premium_leg_value == direct.premium_leg_value


def test_fair_spreads_has_criterion_09_properties_on_arrays():
    # Criterion 09's properties, each checked over one array call.
    base = dict(notional=10_000.0, maturity=1.0, risk_free_rate=0.03, recovery_rate=0.4)
    zero = fair_spreads(**{**base, "recovery_rate": np.array([0.4, 1.0])}, pd=np.array([0.0, 0.2]))
    assert zero.spread_per_annum.tolist() == [0.0, 0.0]

    spreads = fair_spreads(**base, pd=np.linspace(0.01, 0.99, 99)).spread_per_annum
    assert np.all(np.diff(spreads) > 0)

    rng = np.random.default_rng(909)
    quote = fair_spreads(
        notional=10_000.0,
        maturity=rng.uniform(0.5, 5.0, 25),
        risk_free_rate=0.03,
        pd=rng.uniform(0.01, 0.99, 25),
        recovery_rate=rng.uniform(0.0, 0.9, 25),
    )
    scale = np.maximum(np.abs(quote.premium_leg_value), np.abs(quote.protection_leg_value))
    assert np.all(np.abs(quote.premium_leg_value - quote.protection_leg_value) / scale < 1e-9)

    short, long = fair_spreads(**{**base, "maturity": np.array([1.0, 3.0])}, pd=0.2).spread_per_annum
    assert short > long


@pytest.mark.parametrize("rate, fragment", [(0.03, "premium annuity"), (-0.03, "float range")])
@pytest.mark.parametrize("as_array", [False, True])
def test_fair_spreads_beyond_discounting_range_is_data_error(rate, fragment, as_array):
    # exp(-0.03 * 1e300) underflows to 0, so the annuity is 0/0; at -0.03 it overflows.
    maturity = np.array([1.0, 1e300]) if as_array else 1e300
    with pytest.raises(DataError, match=fragment):
        fair_spreads(1000.0, maturity, rate, 0.2, 0.4)


def test_fair_spreads_annuity_beyond_float_range_is_data_error():
    # exp(0.03 * 23600) is finite, but 0.8 * 23600 times it is not.
    with pytest.raises(DataError, match="premium annuity"):
        fair_spreads(1000.0, np.array([1.0, 23600.0]), -0.03, 0.2, 0.4)
