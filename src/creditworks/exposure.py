"""Recovery rates from charged-off loans, exposure at default, and expected loss.

The formulas take float64 arrays, one entry per loan, which broadcast. A
float argument is a 0-d array and a 0-d result comes back as a Python
float, so the per-loan entry points (ead, record_ead, build_quote) run the
same code on one loan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, MissingExposureColumnError


class EadResult(float):
    """EAD amount that remembers the clamp flag and the remaining term.

    clamped marks records whose received principal exceeded the funded
    amount (outstanding forced to 0); remaining_months is the whole-month
    remaining term the interest accrual used, needed later as the maturity
    of a protection contract on the same loan.
    """

    clamped: bool
    remaining_months: int

    def __new__(cls, value: float, clamped: bool = False, remaining_months: int = 0):
        obj = super().__new__(cls, value)
        obj.clamped = clamped
        obj.remaining_months = remaining_months
        return obj


def _check(bad, values, what: str) -> None:
    """DataError naming the first of values where bad holds."""
    if bad.any():
        raise DataError(f"{what}, got {np.broadcast_to(values, bad.shape)[bad][0].item()}")


def _floats(*values):
    """The arguments as float64 arrays; a float becomes a 0-d array."""
    return [np.asarray(v, dtype=np.float64) for v in values]


def _unwrap(values):
    """A 0-d result as a Python scalar (floats in, float out), else the array."""
    return values.item() if np.ndim(values) == 0 else values


def _outside_unit(values):
    return (values < 0.0) | (values > 1.0) | (values != values)  # NaN is outside


class Exposure(NamedTuple):
    """EAD with what pricing needs beside it; floats, or one array entry per loan."""

    amount: np.ndarray
    remaining_months: np.ndarray  # whole months, 0 where nothing is outstanding
    clamped: np.ndarray  # received principal exceeded the funded amount


def exposure_at_default(funded, principal_received, annual_rate, term_months) -> Exposure:
    """Exposure at default: outstanding principal plus simple interest.

    The remaining term is the original term prorated by the unpaid share of
    principal, rounded up to whole months; interest accrues at the note rate
    (a fraction, not percent) on the outstanding amount over that term:
    EAD = outstanding * (1 + annual_rate * remaining_months / 12).
    Outstanding principal below 0 (overpaid loans) clamps to 0.
    """
    funded, received, rate, term = _floats(funded, principal_received, annual_rate, term_months)
    _check(~(funded >= 0), funded, "funded amount must be >= 0")
    _check(~(rate >= 0), rate, "interest rate must be >= 0")
    _check(~(term >= 0), term, "term must be >= 0 months")
    outstanding = funded - received
    clamped = outstanding < 0
    outstanding = np.where(clamped, 0.0, outstanding)
    live = (funded > 0) & (outstanding > 0)
    prorated = term * outstanding / np.where(live, funded, 1.0)
    remaining = np.ceil(np.where(live, prorated, 0.0))
    amount = outstanding * (1.0 + rate * remaining / 12.0)
    return Exposure(_unwrap(amount), _unwrap(remaining), _unwrap(clamped))


def ead(funded: float, principal_received: float, annual_rate: float, term_months: int) -> EadResult:
    """Exposure at default of one loan (see exposure_at_default)."""
    amount, remaining, clamped = exposure_at_default(
        funded, principal_received, annual_rate, term_months
    )
    return EadResult(amount, clamped=clamped, remaining_months=int(remaining))


def lgd(ead_amount, recovery_rate):
    """Loss given default as a currency amount: EAD x (1 - R).

    Arrays broadcast; floats give a float.
    """
    ead_amount, recovery_rate = _floats(ead_amount, recovery_rate)
    _check(_outside_unit(recovery_rate), recovery_rate, "recovery rate must lie in [0, 1]")
    _check(~(ead_amount >= 0), ead_amount, "EAD must be >= 0")
    return _unwrap(ead_amount * (1.0 - recovery_rate))


def expected_loss(pd, ead_amount, recovery_rate):
    """EL = PD x EAD x (1 - R), the probability-weighted unrecoverable amount.

    Arrays broadcast; floats give a float.
    """
    (pd,) = _floats(pd)
    _check(_outside_unit(pd), pd, "pd must lie in [0, 1]")
    return _unwrap(pd * lgd(ead_amount, recovery_rate))


_TERM_RE = re.compile(r"(\d+)")


def parse_term_months(value) -> int:
    """Term cell to whole months; accepts 36, 36.0 or ' 36 months'.

    The month count must be a finite float, as the exposure formulas use it.
    """
    if isinstance(value, (int, float)):
        months = int(value)
        if months != value:
            raise DataError(f"term must be whole months, got {value}")
        return months
    if isinstance(value, str):
        m = _TERM_RE.search(value)
        if m and math.isfinite(float(m.group(1))):
            return int(m.group(1))
    raise DataError(f"cannot read a term in months from {value!r}")


@dataclass(frozen=True)
class ExposureColumns:
    """Which table columns feed the exposure formulas.

    rate_scale says how the rate column is written: 'percent' (13.56 means
    13.56%) or 'fraction' (0.1356).
    """

    funded: str = "loan_amnt"
    principal_received: str = "total_rec_prncp"
    rate: str = "int_rate"
    term: str = "term"
    purpose: str = "purpose"
    recoveries: str = "recoveries"
    rate_scale: str = "percent"

    def __post_init__(self):
        if self.rate_scale not in ("percent", "fraction"):
            raise DataError(f"rate_scale must be percent or fraction, got {self.rate_scale!r}")

    def required(self) -> tuple[str, ...]:
        return (
            self.funded,
            self.principal_received,
            self.rate,
            self.term,
            self.purpose,
            self.recoveries,
        )

    def rate_fraction(self, cell):
        """A rate cell, or an array of them, as a fraction."""
        return cell / 100.0 if self.rate_scale == "percent" else cell


@dataclass(frozen=True)
class RecoveryTable:
    """Recovery rate per loan purpose, with an overall fallback rate."""

    rates: dict
    overall_rate: float

    def __post_init__(self):
        for purpose, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise DataError(f"rate for {purpose!r} out of [0, 1]: {rate}")
        if not 0.0 <= self.overall_rate <= 1.0:
            raise DataError(f"overall rate out of [0, 1]: {self.overall_rate}")

    def rate_for(self, purpose: str) -> float:
        return self.rates.get(purpose, self.overall_rate)

    def to_json_dict(self) -> dict:
        return {
            "rates": {k: float(v) for k, v in sorted(self.rates.items())},
            "overall_rate": float(self.overall_rate),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RecoveryTable":
        return cls(
            rates=dict(payload["rates"]), overall_rate=float(payload["overall_rate"])
        )


def _require_columns(table, names) -> None:
    missing = [name for name in names if not table.has_column(name)]
    if missing:
        raise MissingExposureColumnError(f"table lacks exposure columns: {missing}")


def _codes(table, name: str):
    """table.distinct of an exposure column, which may not miss a cell."""
    values, codes = table.distinct(name)
    if (codes < 0).any():
        raise DataError(f"exposure column {name!r} is missing a value")
    return values, codes


def _numbers(table, name: str) -> np.ndarray:
    kind = table.spec_for(name).kind
    if kind != "numeric":
        raise DataError(f"exposure column {name!r} must be numeric, not {kind}")
    column = table.columns[table.index_of(name)]
    if np.isnan(column).any():
        raise DataError(f"exposure column {name!r} is missing a value")
    return column


def record_ead(row: dict, columns: ExposureColumns) -> EadResult:
    """EAD of one loan record given as a column-name -> cell mapping."""
    for name in (columns.funded, columns.principal_received, columns.rate, columns.term):
        if name not in row:
            raise MissingExposureColumnError(f"record has no {name!r} column")
        if row[name] is None:
            raise DataError(f"exposure column {name!r} is missing a value")
    return ead(
        funded=float(row[columns.funded]),
        principal_received=float(row[columns.principal_received]),
        annual_rate=columns.rate_fraction(float(row[columns.rate])),
        term_months=parse_term_months(row[columns.term]),
    )


def table_ead(table, columns: ExposureColumns = ExposureColumns()) -> Exposure:
    """EAD of every row of a table (see exposure_at_default).

    Each distinct term cell is parsed once by parse_term_months.
    """
    _require_columns(table, (columns.funded, columns.principal_received, columns.rate, columns.term))
    levels, codes = _codes(table, columns.term)
    months = np.array([parse_term_months(v) for v in levels], dtype=np.float64)
    return exposure_at_default(
        _numbers(table, columns.funded),
        _numbers(table, columns.principal_received),
        columns.rate_fraction(_numbers(table, columns.rate)),
        months[codes],
    )


def recovery_rates(table, columns: ExposureColumns = ExposureColumns()) -> RecoveryTable:
    """Estimate recovery rates from the charged-off rows.

    Per purpose, R = sum(recoveries) / sum(EAD) over that purpose's
    charged-off loans; the overall rate pools every charged-off loan.
    Purposes whose summed exposure is zero fall back to the overall rate.
    Rates are clamped into [0, 1] (recorded recoveries occasionally exceed
    the computed outstanding exposure). Sums run in row order, one loan at
    a time (np.bincount and np.cumsum; np.sum's pairwise order would move
    the last bits).
    """
    _require_columns(table, columns.required())
    charged_off = table.take(table.labels() == 1)
    if charged_off.row_count == 0:
        raise DataError("no charged-off rows to estimate recovery rates from")

    exposure = table_ead(charged_off, columns).amount
    recovered = _numbers(charged_off, columns.recoveries)
    purposes, codes = _codes(charged_off, columns.purpose)
    total_rec = float(np.cumsum(recovered)[-1])
    total_exp = float(np.cumsum(exposure)[-1])
    if total_exp <= 0.0:
        raise DataError("charged-off rows carry zero total exposure")

    overall = min(1.0, max(0.0, total_rec / total_exp))
    sums = zip(
        purposes,
        np.bincount(codes, weights=recovered, minlength=len(purposes)).tolist(),
        np.bincount(codes, weights=exposure, minlength=len(purposes)).tolist(),
    )
    rates = {
        purpose: min(1.0, max(0.0, rec / exp)) for purpose, rec, exp in sums if exp > 0.0
    }
    return RecoveryTable(rates=rates, overall_rate=overall)


def row_recovery_rates(recovery: RecoveryTable, table, columns: ExposureColumns = ExposureColumns()) -> np.ndarray:
    """Each row's recovery rate, looked up once per distinct purpose."""
    _require_columns(table, (columns.purpose,))
    purposes, codes = _codes(table, columns.purpose)
    return np.array([recovery.rate_for(p) for p in purposes], dtype=np.float64)[codes]


@dataclass(frozen=True)
class ExposureQuote:
    """PD with the loss quantities derived from it for one loan."""

    pd: float
    ead: float
    recovery_rate: float
    lgd_amount: float
    el: float

    def __post_init__(self):
        if not 0.0 <= self.pd <= 1.0:
            raise DataError(f"pd out of [0, 1]: {self.pd}")
        if self.ead < 0:
            raise DataError(f"EAD must be >= 0: {self.ead}")
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise DataError(f"recovery rate out of [0, 1]: {self.recovery_rate}")
        scale = max(self.ead, 1.0)
        if abs(self.lgd_amount - self.ead * (1.0 - self.recovery_rate)) > 1e-9 * scale:
            raise DataError("lgd_amount does not equal EAD x (1 - R)")
        if abs(self.el - self.pd * self.lgd_amount) > 1e-9 * scale:
            raise DataError("el does not equal pd x lgd_amount")
        if self.el < 0 or self.el > self.ead + 1e-9 * scale:
            raise DataError("el must lie in [0, EAD]")


def build_quote(pd: float, ead_amount: float, recovery_rate: float) -> ExposureQuote:
    loss = lgd(ead_amount, recovery_rate)
    return ExposureQuote(
        pd=pd,
        ead=float(ead_amount),
        recovery_rate=recovery_rate,
        lgd_amount=loss,
        el=expected_loss(pd, ead_amount, recovery_rate),
    )
