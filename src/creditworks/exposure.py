"""Recovery rates from charged-off loans, exposure at default, and expected loss."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .dataset import STATUS_MAP
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


def ead(funded: float, principal_received: float, annual_rate: float, term_months: int) -> EadResult:
    """Exposure at default: outstanding principal plus simple interest.

    The remaining term is the original term prorated by the unpaid share of
    principal, rounded up to whole months; interest accrues at the note rate
    (a fraction, not percent) on the outstanding amount over that term:
    EAD = outstanding * (1 + annual_rate * remaining_months / 12).
    """
    if funded < 0:
        raise DataError(f"funded amount must be >= 0, got {funded}")
    if annual_rate < 0:
        raise DataError(f"interest rate must be >= 0, got {annual_rate}")
    if term_months < 0:
        raise DataError(f"term must be >= 0 months, got {term_months}")
    outstanding = funded - principal_received
    clamped = outstanding < 0
    if clamped:
        outstanding = 0.0
    if funded > 0 and outstanding > 0:
        remaining = math.ceil(term_months * outstanding / funded)
    else:
        remaining = 0
    amount = outstanding * (1.0 + annual_rate * remaining / 12.0)
    return EadResult(amount, clamped=clamped, remaining_months=remaining)


def lgd(ead_amount: float, recovery_rate: float) -> float:
    """Loss given default as a currency amount: EAD x (1 - R)."""
    if not 0.0 <= recovery_rate <= 1.0:
        raise DataError(f"recovery rate must lie in [0, 1], got {recovery_rate}")
    if ead_amount < 0:
        raise DataError(f"EAD must be >= 0, got {ead_amount}")
    return ead_amount * (1.0 - recovery_rate)


def expected_loss(pd: float, ead_amount: float, recovery_rate: float) -> float:
    """EL = PD x EAD x (1 - R), the probability-weighted unrecoverable amount."""
    if not 0.0 <= pd <= 1.0:
        raise DataError(f"pd must lie in [0, 1], got {pd}")
    return pd * lgd(ead_amount, recovery_rate)


_TERM_RE = re.compile(r"(\d+)")


def parse_term_months(value) -> int:
    """Term cell to whole months; accepts 36, 36.0 or ' 36 months'."""
    if isinstance(value, (int, float)):
        months = int(value)
        if months != value:
            raise DataError(f"term must be whole months, got {value}")
        return months
    if isinstance(value, str):
        m = _TERM_RE.search(value)
        if m:
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

    def rate_fraction(self, cell: float) -> float:
        return cell / 100.0 if self.rate_scale == "percent" else float(cell)


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


def _require_columns(table, columns: ExposureColumns):
    missing = [name for name in columns.required() if not table.has_column(name)]
    if missing:
        raise MissingExposureColumnError(f"table lacks exposure columns: {missing}")


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


def recovery_rates(table, columns: ExposureColumns = ExposureColumns()) -> RecoveryTable:
    """Estimate recovery rates from the charged-off rows.

    Per purpose, R = sum(recoveries) / sum(EAD) over that purpose's
    charged-off loans; the overall rate pools every charged-off loan.
    Purposes whose summed exposure is zero fall back to the overall rate.
    Rates are clamped into [0, 1] (recorded recoveries occasionally exceed
    the computed outstanding exposure).
    """
    _require_columns(table, columns)
    status_map = table.status_map or STATUS_MAP
    defaulted = {status for status, label in status_map.items() if label == 1}
    statuses = table.column(table.target_name)
    charged_off = table.take([i for i, s in enumerate(statuses) if s in defaulted])
    names = table.names

    sums: dict = {}
    total_rec = 0.0
    total_exp = 0.0
    for row in charged_off.rows:
        record = dict(zip(names, row))
        exposure = float(record_ead(record, columns))
        rec_cell = record[columns.recoveries]
        if rec_cell is None:
            raise DataError(f"column {columns.recoveries!r} has a missing value")
        recovered = float(rec_cell)
        purpose = record[columns.purpose]
        acc = sums.setdefault(purpose, [0.0, 0.0])
        acc[0] += recovered
        acc[1] += exposure
        total_rec += recovered
        total_exp += exposure

    if charged_off.row_count == 0:
        raise DataError("no charged-off rows to estimate recovery rates from")
    if total_exp <= 0.0:
        raise DataError("charged-off rows carry zero total exposure")

    overall = min(1.0, max(0.0, total_rec / total_exp))
    rates = {
        purpose: min(1.0, max(0.0, rec / exp))
        for purpose, (rec, exp) in sums.items()
        if exp > 0.0
    }
    return RecoveryTable(rates=rates, overall_rate=overall)


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
