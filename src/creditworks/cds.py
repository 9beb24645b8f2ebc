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

import numpy as np

from .errors import DataError
from .exposure import ExposureQuote, _check, _check_nonnegative, _floats, _outside_unit, _unwrap


def discount(rate: float, t: float) -> float:
    """Continuously compounded discount factor exp(-rate * t)."""
    if t < 0:
        raise DataError(f"time must be >= 0, got {t}")
    try:
        return math.exp(-rate * t)
    except OverflowError as exc:
        raise DataError(
            f"discount factor at rate {rate} over {t} years is beyond the float range"
        ) from exc


def _check_terms(notional, maturity, pd, recovery_rate):
    """The contract terms as float64 arrays, checked."""
    notional, maturity, pd, recovery_rate = _floats(notional, maturity, pd, recovery_rate)
    _check_nonnegative(notional, "notional")
    _check(~(maturity > 0), maturity, "maturity must be positive")
    _check(_outside_unit(pd), pd, "pd must lie in [0, 1]")
    _check(_outside_unit(recovery_rate), recovery_rate, "recovery rate must lie in [0, 1]")
    return notional, maturity, pd, recovery_rate


@dataclass(frozen=True)
class CdsTerms:
    notional: float
    maturity: float
    risk_free_rate: float
    pd: float
    recovery_rate: float

    def __post_init__(self):
        _check_terms(self.notional, self.maturity, self.pd, self.recovery_rate)


@dataclass(frozen=True)
class CdsQuote:
    """One contract's quote as floats, or arrays with one entry per contract."""

    spread_per_annum: float
    spread_bps: float
    premium_leg_value: float
    protection_leg_value: float


def fair_spreads(notional, maturity, risk_free_rate: float, pd, recovery_rate) -> CdsQuote:
    """Spread equating the premium and protection legs.

    notional, maturity (years), pd and recovery_rate are float64 arrays
    (which broadcast), or floats, which give floats; risk_free_rate is one
    rate for every contract. The annuity is strictly positive for any
    maturity > 0 (whichever of the survival and default branches has
    weight, its time factor is positive) unless the discount factors leave
    the float range, which raises DataError; pd = 0 and R = 1 give exactly 0.
    The spread is computed as (1 - R) D(tau) / ((1 - pd) / pd * T D(T) +
    tau D(tau)), which never falls as pd rises, not even by an ulp.

    The discount factors come from discount() (math.exp), once per distinct
    maturity: np.exp may differ from it in the last bit, and the recorded
    pricing.csv bytes were made with math.exp. A loan book has a few dozen
    distinct maturities.
    """
    notional, maturity, pd, recovery_rate = _check_terms(notional, maturity, pd, recovery_rate)
    tau = maturity / 2.0
    distinct, index = np.unique(maturity.ravel(), return_inverse=True)
    index = index.reshape(maturity.shape)
    d_tau = np.array([discount(risk_free_rate, t / 2.0) for t in distinct.tolist()])[index]
    d_mat = np.array([discount(risk_free_rate, t) for t in distinct.tolist()])[index]
    protection_unit = (1.0 - recovery_rate) * pd * d_tau
    # An annuity past the float range is inf (or NaN) with a numpy warning;
    # the check below reports it as a DataError instead.
    with np.errstate(over="ignore", invalid="ignore"):
        annuity_unit = (1.0 - pd) * maturity * d_mat + pd * tau * d_tau
    bad = ~((annuity_unit > 0.0) & (annuity_unit < math.inf))
    _check(bad, maturity, "premium annuity is not a positive finite number at maturity (years)")
    # At pd = 0 the odds are inf and the spread exactly 0; odds past the
    # float range give 0 too.
    with np.errstate(divide="ignore", over="ignore"):
        odds = (1.0 - pd) / pd
        spread = (1.0 - recovery_rate) * d_tau / (odds * maturity * d_mat + tau * d_tau)
    return CdsQuote(
        spread_per_annum=_unwrap(spread),
        spread_bps=_unwrap(spread * 1e4),
        premium_leg_value=_unwrap(spread * annuity_unit * notional),
        protection_leg_value=_unwrap(protection_unit * notional),
    )


def fair_spread(terms: CdsTerms) -> CdsQuote:
    """fair_spreads of one contract."""
    return fair_spreads(
        terms.notional, terms.maturity, terms.risk_free_rate, terms.pd, terms.recovery_rate
    )


def price_for_loan(quote: ExposureQuote, maturity_years: float, risk_free_rate: float) -> CdsQuote:
    """Protection on one loan: notional = EAD, maturity = remaining term."""
    return fair_spreads(quote.ead, maturity_years, risk_free_rate, quote.pd, quote.recovery_rate)
