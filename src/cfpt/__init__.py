"""Censored multi-task learning for joint cancer diagnosis and
cancer-free progression time (CFPT) prediction.

The package couples a scan-level malignancy classifier with a censored
CFPT regressor through a joint loss, and ships the label derivation,
synthetic cohort simulator, patient-level cross-validation protocol, and
evaluation battery (ROC/AUC, McNemar, Kaplan-Meier, region analysis)
around it.
"""

from .labels import (
    PatientRecord,
    ScanLabel,
    derive_scan_labels,
    effective_biopsy_time,
    effective_scan_ids,
    validate_record,
)
from .losses import (
    LossConfig,
    Prediction,
    batch_loss,
    cel,
    cel_grad_logit,
    crl,
    crl_grad,
    joint_loss,
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
    ScanDataset,
    TrainConfig,
    TrainHistory,
    adam_step,
    backward,
    build_dataset,
    crossval_split,
    effective_lr,
    forward,
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
    reference_cohort_config,
)

__version__ = "0.1.0"

__all__ = [
    "PatientRecord", "ScanLabel", "derive_scan_labels", "effective_biopsy_time",
    "effective_scan_ids", "validate_record",
    "LossConfig", "Prediction", "crl", "crl_grad", "cel", "cel_grad_logit",
    "joint_loss", "batch_loss",
    "EvalReport", "KMCurve", "McNemarResult", "RegionRatios", "ThresholdRow",
    "evaluate", "km_estimate", "mcnemar", "region_ratios", "roc_auc",
    "threshold_table",
    "AdamState", "CrossvalResult", "FoldAssignment", "ModelConfig",
    "ScanDataset", "TrainConfig", "TrainHistory", "adam_step", "backward",
    "build_dataset", "crossval_split", "effective_lr", "forward",
    "init_params", "predict", "run_crossval", "train",
    "CohortConfig", "CohortSummary", "calibrate_onset_scale", "cohort_summary",
    "generate_cohort", "reference_cohort_config",
]
