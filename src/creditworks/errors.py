"""Exception hierarchy. Each class carries the process exit code the CLI maps it to."""

import math
import numbers


class CreditworksError(Exception):
    exit_code = 1


class DataError(CreditworksError):
    """Bad or unusable input data."""

    exit_code = 2


class SchemaError(DataError):
    """Column spec and data disagree (unknown column, header mismatch, bad role)."""


class ParseError(DataError):
    """CSV framing is broken; message carries the offending line number."""


class EmptyDatasetError(DataError):
    """No usable rows remain after filtering."""


class UnresolvableColumnError(DataError):
    """A column cannot be filled because it has no observed values."""


class TrainingError(CreditworksError):
    """Training is degenerate (for example a single-class target)."""

    exit_code = 3


class ModelDataMismatchError(CreditworksError):
    """A fitted model or scaler does not match the data it is applied to."""

    exit_code = 4


class MissingExposureColumnError(CreditworksError):
    """The table lacks a column required for exposure or pricing."""

    exit_code = 5


class UsageError(CreditworksError):
    """Bad command line or config usage."""

    exit_code = 64


_SETTING_KINDS = {int: "an integer", float: "a finite number", bool: "true or false"}


def check_setting(name: str, value, kind: type) -> None:
    """TrainingError unless value suits a model setting of type kind (int,
    float or bool). A float setting also takes an integer; a bool is never
    taken as a number, though Python's bool is an int."""
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        raise TrainingError(f"{name} must be {_SETTING_KINDS[kind]}, got {value!r}")
