"""Consumer-loan default modeling: data preparation, PD classifiers,
loss exposure, and single-payment credit default swap pricing."""

import os

# One OpenBLAS thread unless the caller chose otherwise. The variable is read
# when numpy first loads, which the submodule imports below trigger. A second
# thread spins on small matrix-vector products, saving no wall time, and a
# threaded reduction can change the bits of a result with the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cds import CdsQuote, CdsTerms, discount, fair_spread, price_for_loan
from .dataset import (
    ColumnSpec,
    DesignMatrix,
    RawLoanTable,
    SplitPair,
    class_balance,
    default_column_specs,
    drop_columns,
    encode,
    filter_terminal,
    handle_missing,
    load_csv,
    split,
)
from .errors import (
    CreditworksError,
    DataError,
    MissingExposureColumnError,
    ModelDataMismatchError,
    TrainingError,
    UsageError,
)
from .exposure import (
    EadResult,
    ExposureColumns,
    ExposureQuote,
    RecoveryTable,
    build_quote,
    ead,
    expected_loss,
    lgd,
    parse_term_months,
    record_ead,
    recovery_rates,
)
from .features import (
    Scaler,
    apply_scaler,
    correlation_report,
    fit_scaler,
    pearson,
    threshold_counts,
)
from .forest import (
    CartParams,
    CartTree,
    Forest,
    ForestConfig,
    best_split,
    entropy,
    fit_cart,
    fit_forest,
    forest_from_json_dict,
    forest_to_json_dict,
    gini,
)
from .logreg import (
    LogregConfig,
    LogregModel,
    bce_loss,
    fit_logreg,
    loss_and_gradient,
    sigmoid,
)
from .metrics import (
    ClassificationReport,
    ConfusionMatrix,
    RocCurve,
    confusion,
    f1,
    f1_from_precision_recall,
    precision,
    recall,
    render_report,
    report,
    roc,
    specificity,
)

__version__ = "0.1.0"
