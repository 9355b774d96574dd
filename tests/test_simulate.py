import numpy as np
import pytest
from scipy.stats import spearmanr

from cfpt.labels import derive_scan_labels, validate_record
from cfpt.metrics import roc_auc
from cfpt.simulate import (
    REFERENCE_ONSET_SCALE,
    CohortConfig,
    calibrate_onset_scale,
    cohort_summary,
    generate_cohort,
    reference_cohort_config,
)


def _small_cfg(**kw):
    defaults = dict(n_patients=200, feature_dim=4, seed=0)
    defaults.update(kw)
    return CohortConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        CohortConfig(n_patients=0)
    with pytest.raises(ValueError):
        CohortConfig(cancer_fraction_target=1.0)
    with pytest.raises(ValueError):
        CohortConfig(scan_interval=0.0)
    with pytest.raises(ValueError):
        CohortConfig(study_horizon=0.5, scan_interval=1.0)
    with pytest.raises(ValueError):
        CohortConfig(dropout_prob=1.0)
    with pytest.raises(ValueError):
        CohortConfig(onset_scale=-1.0)
    with pytest.raises(ValueError):
        CohortConfig(noise_sd=-0.1)
    with pytest.raises(ValueError):
        CohortConfig(noise_sd=float("nan"))


def test_schedule_without_dropout():
    records, features, _ = generate_cohort(_small_cfg(dropout_prob=0.0))
    for rec in records:
        assert rec.scan_times == tuple(float(k) for k in range(7))
        assert len(rec.scan_ids) == 7
    assert len(features) == 7 * 200


def test_schedule_respects_interval_and_horizon():
    records, _, _ = generate_cohort(
        _small_cfg(scan_interval=0.5, study_horizon=2.0, dropout_prob=0.0)
    )
    for rec in records:
        assert rec.scan_times == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_generate_deterministic():
    cfg = _small_cfg(seed=123)
    r1, f1, o1 = generate_cohort(cfg)
    r2, f2, o2 = generate_cohort(cfg)
    assert r1 == r2
    assert o1 == o2
    assert set(f1) == set(f2)
    for sid in f1:
        assert np.array_equal(f1[sid], f2[sid])
    r3, _, _ = generate_cohort(_small_cfg(seed=124))
    assert r3 != r1


def test_feature_table_matches_scan_ids():
    records, features, onsets = generate_cohort(_small_cfg())
    all_ids = [sid for rec in records for sid in rec.scan_ids]
    assert sorted(all_ids) == sorted(features)
    assert sorted(onsets) == sorted(rec.patient_id for rec in records)
    dim = _small_cfg().feature_dim
    for sid in all_ids:
        assert features[sid].shape == (dim + 1,)


def test_diagnosis_is_first_scan_at_or_after_onset():
    records, _, onsets = generate_cohort(_small_cfg(n_patients=400))
    n_cancer = 0
    for rec in records:
        onset = onsets[rec.patient_id]
        if rec.is_cancer:
            n_cancer += 1
            assert rec.diagnosis_time in rec.scan_times
            assert rec.diagnosis_time >= onset
            # no earlier scan already sits at/after onset
            for t in rec.scan_times:
                if t < rec.diagnosis_time:
                    assert t < onset
        else:
            assert rec.diagnosis_time is None
            assert all(t < onset for t in rec.scan_times)
    assert 0 < n_cancer < len(records)


def test_generator_output_valid_for_label_derivation():
    records, _, _ = generate_cohort(_small_cfg(n_patients=300, seed=9))
    for rec in records:
        assert validate_record(rec) == []
        labels = derive_scan_labels(rec)
        assert len(labels) == len(rec.scan_times)


def test_progression_channel_carries_signal():
    records, features, _ = generate_cohort(_small_cfg(n_patients=500, seed=2))
    channel, y = [], []
    for rec in records:
        for lb in derive_scan_labels(rec):
            channel.append(features[lb.scan_id][-1])
            y.append(lb.y)
    auc, _ = roc_auc(channel, y)
    assert auc > 0.75


def test_null_cohort_has_no_signal():
    cfg = _small_cfg(n_patients=600, risk_coeff=0.0, progression_gain=0.0, seed=3)
    records, features, _ = generate_cohort(cfg)
    channel, risk, y = [], [], []
    w = np.ones(cfg.feature_dim) / np.sqrt(cfg.feature_dim)
    for rec in records:
        for lb in derive_scan_labels(rec):
            x = features[lb.scan_id]
            channel.append(x[-1])
            risk.append(float(w @ x[: cfg.feature_dim]))
            y.append(lb.y)
    auc_channel, _ = roc_auc(channel, y)
    auc_risk, _ = roc_auc(risk, y)
    assert abs(auc_channel - 0.5) < 0.06
    assert abs(auc_risk - 0.5) < 0.06


def test_null_cohort_trained_classifier_near_chance():
    from cfpt.model import ModelConfig, TrainConfig, build_dataset, predict, train

    cfg = _small_cfg(n_patients=300, risk_coeff=0.0, progression_gain=0.0, seed=4)
    records, features, _ = generate_cohort(cfg)
    labels = [lb for rec in records for lb in derive_scan_labels(rec)]
    ds = build_dataset(labels, features)
    pats = ds.patients()
    tr = ds.subset_patients(pats[:180])
    va = ds.subset_patients(pats[180:240])
    te = ds.subset_patients(pats[240:])
    params, _ = train(
        tr,
        va,
        ModelConfig(input_dim=ds.input_dim, hidden_dims=(8,), seed=0),
        TrainConfig(max_epochs=10, lr0=1e-3, lr_decay_epochs=(), seed=0),
    )
    preds = predict(params, te)
    auc, _ = roc_auc([pr.y_hat for pr in preds], te.y)
    assert 0.35 < auc < 0.65


def test_risk_coupling_monotone_in_risk_coeff():
    corrs = []
    for coeff in (0.0, 0.5, 1.0):
        cfg = _small_cfg(n_patients=800, risk_coeff=coeff, seed=6)
        records, features, onsets = generate_cohort(cfg)
        w = np.ones(cfg.feature_dim) / np.sqrt(cfg.feature_dim)
        risk, onset = [], []
        for rec in records:
            if not rec.is_cancer:
                continue
            x = features[rec.scan_ids[0]][: cfg.feature_dim]
            risk.append(float(w @ x))
            onset.append(onsets[rec.patient_id])
        corrs.append(float(spearmanr(risk, onset).statistic))
    # stronger coupling pushes the risk/onset rank correlation more negative
    assert abs(corrs[0]) < 0.1
    assert corrs[1] < corrs[0] - 0.05
    assert corrs[2] < corrs[1] - 0.05


def test_summary_counts():
    from cfpt.labels import PatientRecord

    rec = PatientRecord("q0", (0.0, 1.0, 2.0), False)
    s = cohort_summary([rec])
    assert s.n_patients == 1
    assert s.n_scans == 3
    assert s.n_cancer_patients == 0
    assert s.n_malignant_scans == 0
    assert s.censored_fraction == 1.0
    assert s.scans_per_patient == {3: 1}
    with pytest.raises(ValueError):
        cohort_summary([])


def test_summary_reorder_invariant():
    records, _, _ = generate_cohort(_small_cfg(seed=8))
    s1 = cohort_summary(records)
    s2 = cohort_summary(list(reversed(records)))
    assert s1 == s2


def test_summary_on_generated_cohort():
    records, _, _ = generate_cohort(_small_cfg(seed=10))
    s = cohort_summary(records)
    assert s.n_patients == 200
    assert s.n_scans == sum(len(r.scan_times) for r in records)
    assert s.n_cancer_patients == sum(r.is_cancer for r in records)
    assert s.censored_fraction == pytest.approx(1 - s.n_cancer_patients / 200)
    assert sum(s.scans_per_patient.values()) == 200
    assert s.n_malignant_scans >= s.n_cancer_patients  # post-biopsy scans add more


def test_reference_config_hits_target_fraction():
    for seed in range(5):
        cfg = reference_cohort_config(seed)
        assert cfg.onset_scale == REFERENCE_ONSET_SCALE
        records, _, _ = generate_cohort(cfg)
        s = cohort_summary(records)
        assert abs(s.cancer_fraction - cfg.cancer_fraction_target) <= 0.05, seed


def test_calibrate_onset_scale():
    cfg = _small_cfg(n_patients=400, cancer_fraction_target=0.3, seed=12)
    scale = calibrate_onset_scale(cfg, lo=1.0, hi=100.0, iterations=25)
    from dataclasses import replace

    records, _, _ = generate_cohort(replace(cfg, onset_scale=scale))
    assert abs(cohort_summary(records).cancer_fraction - 0.3) <= 0.03
    with pytest.raises(ValueError):
        calibrate_onset_scale(cfg, lo=90.0, hi=100.0)
