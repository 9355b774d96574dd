"""End to end in one sitting: simulate a screening cohort, derive per-scan
labels, cross-validate the two-headed model, and read the evaluation report.

Everything is seeded, so rerunning reproduces the numbers exactly.
Takes a few seconds. The CLI equivalent of this script is:

    cfpt synth    --config configs/smoke.cfg --out data
    cfpt label    data/patients.csv --out data/labels.csv
    cfpt crossval --config configs/smoke.cfg --out run
    cfpt eval     run/predictions.csv data/labels.csv --out report
"""

import numpy as np

from cfpt import (
    CohortConfig,
    LossConfig,
    ModelConfig,
    TrainConfig,
    build_dataset,
    cohort_summary,
    derive_scan_labels,
    evaluate,
    generate_cohort,
    run_crossval,
)

# --- 1. a small synthetic screening cohort ---------------------------------
# The cohort is one PatientTable: a row per scan (patient id, is_cancer,
# diagnosis time, scan id, scan time), each patient's outcome repeated on
# every one of its rows, just as patients.csv stores it.

cohort = CohortConfig(n_patients=200, feature_dim=6, seed=7)
patients, features, _onsets = generate_cohort(cohort)
s = cohort_summary(patients)
print(f"cohort: {s.n_patients} patients, {s.n_scans} scans, "
      f"{s.n_cancer_patients} cancer ({s.cancer_fraction:.0%})")

# --- 2. per-scan labels -----------------------------------------------------
# Each scan gets a defined progression time t_d, the patient flag p, and the
# scan-level malignancy bit y. Non-cancer patients are right-censored at
# last scan + 1.

# The labels are one table: a list of scan ids and patient ids, and one
# numpy array per label column.

labels = derive_scan_labels(patients)
i = int(np.flatnonzero(labels.y)[0])
print(f"example malignant scan: {labels.scan_ids[i]}  t_d={labels.t_d[i]:.2f}  "
      f"p={labels.p[i]}  y={labels.y[i]}")

# --- 3. patient-level cross-validation --------------------------------------
# All scans of a patient stay on the same side of every split; pooled
# out-of-fold predictions cover each labeled scan exactly once. The features
# are a (scan_ids, matrix) pair; build_dataset joins them to the labels by
# scan id. The network's input width is the matrix's column count, so the
# model config holds only the hidden layers and the seed.

dataset = build_dataset(labels, features)
mcfg = ModelConfig(hidden_dims=(16,), seed=0)
tcfg = TrainConfig(max_epochs=40, lr_decay_epochs=(25, 35), batch_size=16,
                   loss=LossConfig(lam=0.5, epsilon=1.0), seed=0)
result = run_crossval(dataset, mcfg, tcfg, k=3)
print(f"crossval: {len(result.predictions)} pooled predictions over "
      f"{len(result.folds)} folds (scans per fold: {np.bincount(result.predictions.fold).tolist()})")

# --- 4. the evaluation battery ----------------------------------------------

report = evaluate(result.predictions, labels)
print(f"pooled AUC: {report.auc:.3f}")
print(f"KM fit on {report.n_scans - report.n_km_excluded} scans "
      f"({report.n_km_excluded} post-biopsy scans excluded)")
row = report.threshold_rows[2]
print(f"threshold {row.threshold:g}y: recall {row.recall:.0%}, "
      f"non-cancer beyond {row.noncancer_beyond:.0%}")

# the full plain-text report is what `cfpt eval` writes to report.txt
print()
print(report.to_text())
