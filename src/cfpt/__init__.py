"""Censored multi-task learning for joint cancer diagnosis and
cancer-free progression time (CFPT) prediction.

The package couples a scan-level malignancy classifier with a censored
CFPT regressor through a joint loss, and ships the label derivation,
synthetic cohort simulator, patient-level cross-validation protocol, and
evaluation battery (ROC/AUC, McNemar, Kaplan-Meier, region analysis)
around it.
"""

from .labels import LabelTable, PatientTable, derive_scan_labels
from .losses import (
    LossConfig,
    cel,
    cel_grad_logit,
    crl,
    crl_grad,
)
from .metrics import (
    EvalReport,
    KMCurve,
    McNemarResult,
    RegionRatios,
    ThresholdRow,
    evaluate,
    km_estimate,
    mcnemar,
    region_ratios,
    roc_auc,
    threshold_table,
)
from .model import (
    AdamState,
    CrossvalResult,
    FoldAssignment,
    ModelConfig,
    PredictionTable,
    ScanDataset,
    TrainConfig,
    TrainHistory,
    adam_step,
    backward,
    build_dataset,
    crossval_split,
    effective_lr,
    init_params,
    predict,
    run_crossval,
    train,
)
from .simulate import (
    CohortConfig,
    CohortSummary,
    calibrate_onset_scale,
    cohort_summary,
    generate_cohort,
)

__version__ = "0.1.0"

__all__ = [
    "LabelTable", "PatientTable", "derive_scan_labels",
    "LossConfig", "crl", "crl_grad", "cel", "cel_grad_logit",
    "EvalReport", "KMCurve", "McNemarResult", "RegionRatios", "ThresholdRow",
    "evaluate", "km_estimate", "mcnemar", "region_ratios", "roc_auc",
    "threshold_table",
    "AdamState", "CrossvalResult", "FoldAssignment", "ModelConfig",
    "PredictionTable", "ScanDataset", "TrainConfig", "TrainHistory", "adam_step",
    "backward", "build_dataset", "crossval_split", "effective_lr",
    "init_params", "predict", "run_crossval", "train",
    "CohortConfig", "CohortSummary", "calibrate_onset_scale", "cohort_summary",
    "generate_cohort",
]
