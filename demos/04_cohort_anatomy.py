"""What the synthetic cohort generator actually produces, knob by knob.

Patients get annual scans over a fixed study window with geometric
dropout. A latent Weibull onset time, accelerated by a linear risk score
of the patient's features, decides if and when cancer is diagnosed (at
the first scan on or after onset). One feature channel carries a ramp
signal that grows as onset approaches, so the learning problem is
solvable but noisy.
"""

from cfpt import (
    CohortConfig,
    build_dataset,
    calibrate_onset_scale,
    cohort_summary,
    derive_scan_labels,
    generate_cohort,
    reference_cohort_config,
    roc_auc,
)

# --- the reference cohort -----------------------------------------------------

cfg = reference_cohort_config(seed=0)
records, features, onsets = generate_cohort(cfg)
s = cohort_summary(records)
print(f"reference cohort: {s.n_patients} patients, {s.n_scans} scans")
print(f"cancer fraction {s.cancer_fraction:.3f} (target {cfg.cancer_fraction_target})")
print(f"censored scan fraction {s.censored_fraction:.3f}")
counts = sorted(s.scans_per_patient.items())
print("scans per patient:", ", ".join(f"{k}x{v}" for k, v in counts))

# --- diagnosis sits at the first scan at/after onset ----------------------------

rec = next(r for r in records if r.is_cancer and len(r.scan_times) > 2)
print(f"\npatient {rec.patient_id}: onset {onsets[rec.patient_id]:.2f}, "
      f"diagnosis {rec.diagnosis_time}, scans {[f'{t:g}' for t in rec.scan_times]}")
one = derive_scan_labels([rec])
for sid, t_d, p, y in zip(one.scan_ids, one.t_d, one.p, one.y):
    print(f"  {sid}: t_d={t_d:+.2f}  p={p}  y={y}")

# --- the ramp channel carries the scan-level signal ------------------------------
# The last feature column is the progression ramp; judged as a lone
# malignancy score it already beats chance by a wide margin. The static
# risk covariates only shift when onset happens, so alone each is weak.

dataset = build_dataset(derive_scan_labels(records), features)
y = dataset.y
ramp = dataset.features[:, -1]
covariate = dataset.features[:, 0]
print(f"\nAUC of the ramp channel alone:    {roc_auc(ramp, y)[0]:.3f}")
print(f"AUC of one risk covariate alone:  {roc_auc(covariate, y)[0]:.3f}")

# --- hitting a target cancer rate ------------------------------------------------
# The Weibull scale sets how often onset falls inside the study window.
# calibrate_onset_scale bisects it for the config's requested cancer
# fraction; the frozen reference scale was produced exactly this way.

cal_cfg = CohortConfig(n_patients=400, cancer_fraction_target=0.40, seed=3)
scale = calibrate_onset_scale(cal_cfg, lo=1.0, hi=100.0)
check = cohort_summary(generate_cohort(
    CohortConfig(n_patients=400, seed=3, onset_scale=scale))[0])
print(f"\nscale for a 40% cancer cohort: {scale:.2f} "
      f"(realized fraction {check.cancer_fraction:.3f})")
print(f"reference scale {cfg.onset_scale} gives the 26% default")
