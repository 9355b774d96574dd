"""What the synthetic cohort generator actually produces, knob by knob.

Patients get annual scans over a fixed study window with geometric
dropout. A latent Weibull onset time, accelerated by a linear risk score
of the patient's features, decides if and when cancer is diagnosed (at
the first scan on or after onset). One feature channel carries a ramp
signal that grows as onset approaches, so the learning problem is
solvable but noisy.
"""

from collections import Counter

from cfpt import (
    CohortConfig,
    build_dataset,
    calibrate_onset_scale,
    cohort_summary,
    derive_scan_labels,
    generate_cohort,
    roc_auc,
)

# --- the reference cohort -----------------------------------------------------
# CohortConfig's defaults are the reference cohort; only the seed varies.

cfg = CohortConfig(seed=0)
patients, features, onsets = generate_cohort(cfg)
s = cohort_summary(patients)
print(f"reference cohort: {s.n_patients} patients, {s.n_scans} scans")
print(f"cancer fraction {s.cancer_fraction:.3f} (calibrated for 0.26)")
print(f"censored scan fraction {s.censored_fraction:.3f}")
counts = sorted(s.scans_per_patient.items())
print("scans per patient:", ", ".join(f"{k}x{v}" for k, v in counts))

# --- diagnosis sits at the first scan at/after onset ----------------------------

# The cohort is one table with a row per scan, so a patient is a run of
# rows; the labels come out row for row.

labels = derive_scan_labels(patients)
pid = next(pid for pid, n in Counter(patients.patient_ids).items()
           if n > 2 and patients.is_cancer[patients.patient_ids.index(pid)])
rows = [i for i, p in enumerate(patients.patient_ids) if p == pid]
print(f"\npatient {pid}: onset {onsets[pid]:.2f}, "
      f"diagnosis {patients.diagnosis_time[rows[0]]}, "
      f"scans {[f'{t:g}' for t in patients.scan_times[rows]]}")
for i in rows:
    print(f"  {labels.scan_ids[i]}: t_d={labels.t_d[i]:+.2f}  p={labels.p[i]}  y={labels.y[i]}")

# --- the ramp channel carries the scan-level signal ------------------------------
# The last feature column is the progression ramp; judged as a lone
# malignancy score it already beats chance by a wide margin. The static
# risk covariates only shift when onset happens, so alone each is weak.

dataset = build_dataset(labels, features)
y = dataset.y
ramp = dataset.features[:, -1]
covariate = dataset.features[:, 0]
print(f"\nAUC of the ramp channel alone:    {roc_auc(ramp, y)[0]:.3f}")
print(f"AUC of one risk covariate alone:  {roc_auc(covariate, y)[0]:.3f}")

# --- hitting a target cancer rate ------------------------------------------------
# The Weibull scale sets how often onset falls inside the study window.
# calibrate_onset_scale bisects it for a requested cancer fraction; the
# frozen reference scale was produced exactly this way.

cal_cfg = CohortConfig(n_patients=400, seed=3)
scale = calibrate_onset_scale(cal_cfg, 0.40, lo=1.0, hi=100.0)
check = cohort_summary(generate_cohort(
    CohortConfig(n_patients=400, seed=3, onset_scale=scale))[0])
print(f"\nscale for a 40% cancer cohort: {scale:.2f} "
      f"(realized fraction {check.cancer_fraction:.3f})")
print(f"reference scale {cfg.onset_scale} gives the 26% default")
