"""Consumer-loan default modeling: data preparation, PD classifiers,
loss exposure, and single-payment credit default swap pricing.

Each exported name is imported from its submodule on first access, so a
command loads only the modules it runs.
"""

import importlib
import os

# One OpenBLAS thread unless the caller chose otherwise. The variable is read
# when numpy first loads, which no submodule can do before this line runs. A
# second thread spins on small matrix-vector products, saving no wall time,
# and a threaded reduction can change the bits of a result with the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_EXPORTS = {
    "cds": ("CdsQuote", "CdsTerms", "discount", "fair_spread", "price_for_loan"),
    "dataset": (
        "ColumnSpec",
        "DesignMatrix",
        "RawLoanTable",
        "SplitPair",
        "class_balance",
        "default_column_specs",
        "drop_columns",
        "encode",
        "filter_terminal",
        "handle_missing",
        "load_csv",
        "split",
    ),
    "errors": (
        "CreditworksError",
        "DataError",
        "MissingExposureColumnError",
        "ModelDataMismatchError",
        "TrainingError",
        "UsageError",
    ),
    "exposure": (
        "EadResult",
        "ExposureColumns",
        "ExposureQuote",
        "RecoveryTable",
        "build_quote",
        "ead",
        "expected_loss",
        "lgd",
        "parse_term_months",
        "record_ead",
        "recovery_rates",
    ),
    "features": (
        "Scaler",
        "apply_scaler",
        "correlation_report",
        "fit_scaler",
        "threshold_counts",
    ),
    "forest": (
        "CartParams",
        "CartTree",
        "Forest",
        "ForestConfig",
        "fit_cart",
        "fit_forest",
        "forest_from_json_dict",
        "forest_to_json_dict",
    ),
    "logreg": (
        "LogregConfig",
        "LogregModel",
        "bce_loss",
        "fit_logreg",
        "loss_and_gradient",
        "sigmoid",
    ),
    "metrics": (
        "ClassificationReport",
        "ConfusionMatrix",
        "RocCurve",
        "confusion",
        "f1_from_precision_recall",
        "precision",
        "recall",
        "render_report",
        "report",
        "roc",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # An unknown name raises AttributeError, so `from creditworks import cli`
    # falls back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
