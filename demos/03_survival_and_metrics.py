"""Survival and comparison tooling: Kaplan-Meier on derived labels, rank
AUC with its ROC sweep, McNemar on paired classifiers, region quadrants.
"""

import numpy as np

from cfpt import (
    PatientRecord,
    derive_scan_labels,
    km_estimate,
    mcnemar,
    region_ratios,
    roc_auc,
    threshold_table,
)

# --- Kaplan-Meier on a handful of scans --------------------------------------
# Each scan contributes one observation of remaining time to diagnosis:
# time t_d, event indicator p. Non-cancer scans are right-censored.

records = [
    PatientRecord(patient_id="n1", scan_times=(0.0, 1.0, 2.0), is_cancer=False),
    PatientRecord(patient_id="n2", scan_times=(0.0, 1.0), is_cancer=False),
    PatientRecord(patient_id="c1", scan_times=(0.0, 1.0, 2.0), is_cancer=True, diagnosis_time=2.5),
    PatientRecord(patient_id="c2", scan_times=(0.0, 2.0), is_cancer=True, diagnosis_time=3.0),
]
labels = [lb for rec in records for lb in derive_scan_labels(rec)]
km = km_estimate([lb.t_d for lb in labels], [lb.p for lb in labels])
print("KM steps (time, survival, at risk, events):")
for row in zip(km.times, km.survival, km.n_at_risk, km.n_events):
    print("  {:4.1f}  {:.3f}  {:2d}  {:d}".format(*row))
print(f"S(2.0) = {km.survival_at(2.0):.3f}   S(0.0) = {km.survival_at(0.0):.3f}")

# --- rank AUC and the ROC sweep ----------------------------------------------
# Ties in the scores are handled by midranks. The ROC curve is one array of
# (threshold, fpr, tpr) rows: the (inf, 0, 0) anchor, then one row per
# distinct score.

scores = np.array([0.9, 0.8, 0.8, 0.4, 0.35, 0.1])
truth = np.array([1, 1, 0, 1, 0, 0])
auc, points = roc_auc(scores, truth)
print(f"\nAUC {auc:.4f}; ROC points:")
for threshold, fpr, tpr in points:
    print(f"  thr {threshold:5.2f}  fpr {fpr:.2f}  tpr {tpr:.2f}")

# --- McNemar: are two classifiers distinguishable? ----------------------------
# Only the discordant pairs matter: b scans where A alone is right, c where
# B alone is right. Small b + c uses the exact binomial branch.

a_correct = [1] * 10 + [0] * 2 + [1] * 30
b_correct = [0] * 10 + [1] * 2 + [1] * 30
res = mcnemar(a_correct, b_correct)
print(f"\nMcNemar: b={res.b} c={res.c} -> p={res.p_value:.4f} ({res.method})")

# --- region quadrants: reading a prediction scatter ----------------------------
# Predicted time vs observed time, split at a threshold T (points on the
# boundary count as <=). r3 of the cancer scatter is recall at T; the
# noncancer_beyond column is the fraction of non-cancer scans predicted
# beyond T.

cancer = [(0.5, 0.8), (1.5, 1.0), (2.5, 3.0), (0.2, 4.0)]
noncancer = [(4.0, 2.5), (5.0, 3.5), (2.5, 1.5), (6.0, 4.0)]
r = region_ratios(cancer, 2.0)
print(f"\ncancer scatter at T=2: r1={r.r1:.2f} r2={r.r2:.2f} r3={r.r3:.2f} r4={r.r4:.2f}")
print("threshold sweep (recall / non-cancer beyond):")
for row in threshold_table(cancer, noncancer, [1.0, 2.0, 3.0, 4.0, 5.0]):
    print(f"  T={row.threshold:g}: {row.recall:.2f} / {row.noncancer_beyond:.2f}")
