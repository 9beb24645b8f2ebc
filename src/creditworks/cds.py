"""Single-payment credit default swap pricing.

The contract makes one premium payment: at maturity T if the reference loan
survives, or at the average default time tau = T/2 (accrued pro rata) if it
defaults. The protection seller pays (1 - R) x notional at tau on default.
Discounting is continuous. Per unit notional:

    protection         = (1 - R) * pd * D(r, tau)
    premium(s)         = s * [(1 - pd) * T * D(r, T) + pd * tau * D(r, tau)]
    fair spread s*     = protection / annuity

where D(r, t) = exp(-r t) and the bracket is the annuity value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError
from .exposure import ExposureQuote, _operands, _outside_unit


def discount(rate: float, t: float) -> float:
    """Continuously compounded discount factor exp(-rate * t)."""
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    return math.exp(-rate * t)


def _check_terms(ops, notional, maturity, pd, recovery_rate) -> None:
    ops.check(notional < 0, notional, "notional must be >= 0")
    ops.check(maturity <= 0, maturity, "maturity must be positive")
    ops.check(_outside_unit(pd), pd, "pd must lie in [0, 1]")
    ops.check(_outside_unit(recovery_rate), recovery_rate, "recovery rate must lie in [0, 1]")


@dataclass(frozen=True)
class CdsTerms:
    notional: float
    maturity: float
    risk_free_rate: float
    pd: float
    recovery_rate: float

    def __post_init__(self):
        ops, values = _operands(self.notional, self.maturity, self.pd, self.recovery_rate)
        _check_terms(ops, *values)


@dataclass(frozen=True)
class CdsQuote:
    """One contract's quote as floats, or arrays with one entry per contract."""

    spread_per_annum: float
    spread_bps: float
    premium_leg_value: float
    protection_leg_value: float


def fair_spreads(notional, maturity, risk_free_rate: float, pd, recovery_rate) -> CdsQuote:
    """Spread equating the premium and protection legs.

    notional, maturity (years), pd and recovery_rate are floats or arrays
    (which broadcast); risk_free_rate is one rate for every contract. The
    annuity is strictly positive for any maturity > 0 (whichever of the
    survival and default branches has weight, its time factor is positive),
    so the quotient is always defined; pd = 0 and R = 1 give exactly 0.

    Over arrays, the discount factors are still computed by discount()
    (math.exp), once per distinct maturity, so they match the float path
    bit for bit; a loan book has a few dozen distinct maturities.
    """
    ops, (notional, maturity, pd, recovery_rate) = _operands(
        notional, maturity, pd, recovery_rate
    )
    _check_terms(ops, notional, maturity, pd, recovery_rate)
    return _spreads(ops, notional, maturity, risk_free_rate, pd, recovery_rate)


def _spreads(ops, notional, maturity, risk_free_rate, pd, recovery_rate) -> CdsQuote:
    tau = maturity / 2.0
    d_tau = ops.per_distinct(lambda t: discount(risk_free_rate, t / 2.0), maturity)
    d_mat = ops.per_distinct(lambda t: discount(risk_free_rate, t), maturity)
    protection_unit = (1.0 - recovery_rate) * pd * d_tau
    annuity_unit = (1.0 - pd) * maturity * d_mat + pd * tau * d_tau
    spread = protection_unit / annuity_unit
    return CdsQuote(
        spread_per_annum=spread,
        spread_bps=spread * 1e4,
        premium_leg_value=spread * annuity_unit * notional,
        protection_leg_value=protection_unit * notional,
    )


def fair_spread(terms: CdsTerms) -> CdsQuote:
    """fair_spreads of one contract; CdsTerms checked the terms already."""
    ops, (notional, maturity, pd, recovery_rate) = _operands(
        terms.notional, terms.maturity, terms.pd, terms.recovery_rate
    )
    return _spreads(ops, notional, maturity, terms.risk_free_rate, pd, recovery_rate)


def price_for_loan(quote: ExposureQuote, maturity_years: float, risk_free_rate: float) -> CdsQuote:
    """Protection on one loan: notional = EAD, maturity = remaining term."""
    terms = CdsTerms(
        notional=quote.ead,
        maturity=maturity_years,
        risk_free_rate=risk_free_rate,
        pd=quote.pd,
        recovery_rate=quote.recovery_rate,
    )
    return fair_spread(terms)
