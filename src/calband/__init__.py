"""Honest simultaneous confidence bands for calibration curves.

Given predictions x_i in [0, 1] and binary outcomes y_i, this package
builds distribution-free simultaneous confidence bands for the calibration
curve p(x) = P(Y=1 | prediction x) under the sole assumption that p is
nondecreasing, plus diagnostics: a verdict against the diagonal, an exact
test of the isotonicity assumption itself, and the classical binned
chi-square baseline.
"""

__version__ = "0.1.0"

from .bands import (
    IndexPairFamily,
    StepBand,
    evaluate_band,
    full_index_family,
    noncrossing_band,
    raw_band,
    rounded_index_family,
    yb_band,
)
from .diagnostics import (
    CalibrationVerdict,
    HosmerLemeshowResult,
    IsotonicityReport,
    calibration_verdict,
    hosmer_lemeshow,
    isotonicity_pvalue,
    isotonicity_report,
)
from .isotonic import IsotonicFit, SortedBinaryData, build_sorted_data, pava
from .simulation import (
    FAMILY_KINDS,
    ExperimentResult,
    RegressionFamily,
    eval_p,
    run_experiment,
    simulate_dataset,
    write_records_csv,
    write_summary_json,
)
from .special import cp_bounds_batch, cp_lower, cp_upper

__all__ = [
    "__version__",
    "cp_lower",
    "cp_upper",
    "cp_bounds_batch",
    "SortedBinaryData",
    "build_sorted_data",
    "IsotonicFit",
    "pava",
    "IndexPairFamily",
    "full_index_family",
    "rounded_index_family",
    "StepBand",
    "raw_band",
    "noncrossing_band",
    "yb_band",
    "evaluate_band",
    "CalibrationVerdict",
    "calibration_verdict",
    "IsotonicityReport",
    "isotonicity_pvalue",
    "isotonicity_report",
    "HosmerLemeshowResult",
    "hosmer_lemeshow",
    "FAMILY_KINDS",
    "RegressionFamily",
    "eval_p",
    "simulate_dataset",
    "ExperimentResult",
    "run_experiment",
    "write_records_csv",
    "write_summary_json",
]
