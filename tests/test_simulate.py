import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from cfpt.labels import PatientTable, derive_scan_labels
from cfpt.metrics import roc_auc
from cfpt.simulate import (
    MAX_SCAN_INTERVALS,
    CohortConfig,
    calibrate_onset_scale,
    cohort_summary,
    generate_cohort,
)
from helpers import Record, patient_table, records_of, table_columns


def _small_cfg(**kw):
    defaults = dict(n_patients=200, feature_dim=4, seed=0)
    defaults.update(kw)
    return CohortConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        CohortConfig(n_patients=0)
    with pytest.raises(ValueError):
        CohortConfig(scan_interval=0.0)
    with pytest.raises(ValueError):
        CohortConfig(study_horizon=0.5, scan_interval=1.0)
    with pytest.raises(ValueError, match="study_horizon"):
        CohortConfig(study_horizon=2.5 * MAX_SCAN_INTERVALS, scan_interval=2.0)
    CohortConfig(study_horizon=2.0 * MAX_SCAN_INTERVALS, scan_interval=2.0)
    with pytest.raises(ValueError):
        CohortConfig(dropout_prob=1.0)
    with pytest.raises(ValueError):
        CohortConfig(onset_scale=-1.0)
    with pytest.raises(ValueError):
        CohortConfig(noise_sd=-0.1)
    with pytest.raises(ValueError):
        CohortConfig(noise_sd=float("nan"))
    for name in ("scan_interval", "study_horizon", "onset_scale", "onset_shape", "risk_coeff",
                 "progression_gain"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                CohortConfig(**{name: value})


def test_config_needs_a_feature_column():
    with pytest.raises(ValueError, match=r"^feature_dim must lie in \[1, inf\), got 0$"):
        CohortConfig(feature_dim=0)


def test_schedule_without_dropout():
    patients, (scan_ids, features), _ = generate_cohort(_small_cfg(dropout_prob=0.0))
    for rec in records_of(patients):
        assert rec.scan_times == tuple(float(k) for k in range(7))
    assert len(patients) == len(scan_ids) == len(features) == 7 * 200


def test_schedule_respects_interval_and_horizon():
    patients, _, _ = generate_cohort(
        _small_cfg(scan_interval=0.5, study_horizon=2.0, dropout_prob=0.0)
    )
    for rec in records_of(patients):
        assert rec.scan_times == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_generate_deterministic():
    cfg = _small_cfg(seed=123)
    r1, f1, o1 = generate_cohort(cfg)
    r2, f2, o2 = generate_cohort(cfg)
    assert table_columns(r1) == table_columns(r2)
    assert o1 == o2
    assert f1[0] == f2[0]
    assert f1[1].tobytes() == f2[1].tobytes()
    r3, _, _ = generate_cohort(_small_cfg(seed=124))
    assert table_columns(r3) != table_columns(r1)


def _generate_reference(cfg):
    """The per-patient loop ``generate_cohort`` replaced: it built each
    patient's risk, onset, schedule, diagnosis and feature block between
    the draws, where ``generate_cohort`` keeps only the draws in its loop."""
    rng = np.random.default_rng(cfg.seed)
    w = np.ones(cfg.feature_dim) / np.sqrt(cfg.feature_dim)
    n_max = int(np.floor(cfg.study_horizon / cfg.scan_interval + 1e-9)) + 1
    width = len(str(cfg.n_patients - 1))
    patient_ids, is_cancer, diagnosis_times, scan_ids, times, blocks = [], [], [], [], [], []
    onsets = {}
    for i in range(cfg.n_patients):
        pid = f"p{i:0{width}d}"
        x = rng.standard_normal(cfg.feature_dim)
        r = float(w @ x)
        scale = cfg.onset_scale * np.exp(-cfg.risk_coeff * r)
        t_onset = float(rng.weibull(cfg.onset_shape) * scale)
        scan_times = []
        for k in range(n_max):
            scan_times.append(k * cfg.scan_interval)
            if k < n_max - 1 and rng.uniform() < cfg.dropout_prob:
                break
        diagnosis = math.nan
        for t in scan_times:
            if t >= t_onset:
                diagnosis = t
                break
        n = len(scan_times)
        noise = rng.normal(0.0, cfg.noise_sd, size=n)
        ramp = np.maximum(0.0, 1.0 - (t_onset - np.array(scan_times)) / cfg.study_horizon)
        block = np.empty((n, cfg.feature_dim + 1))
        block[:, :-1] = x
        block[:, -1] = cfg.progression_gain * ramp + noise
        blocks.append(block)
        patient_ids += [pid] * n
        is_cancer += [not math.isnan(diagnosis)] * n
        diagnosis_times += [diagnosis] * n
        scan_ids += [f"{pid}-s{k}" for k in range(n)]
        times += scan_times
        onsets[pid] = t_onset
    patients = PatientTable(patient_ids, is_cancer, diagnosis_times, scan_ids, times)
    return patients, (list(scan_ids), np.concatenate(blocks)), onsets


@pytest.mark.parametrize("kw", [
    dict(study_horizon=1.0),  # one scan per schedule
    dict(dropout_prob=0.0),
    dict(dropout_prob=0.9),
    dict(noise_sd=0.0),
    dict(feature_dim=1),
    dict(feature_dim=3),
    dict(risk_coeff=-1.5),
    dict(scan_interval=0.3, study_horizon=2.0),
    dict(n_patients=5000, feature_dim=8, seed=0),  # the cohort of the cohort-io benchmark
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_generate_cohort_equals_the_loop_it_replaced(kw):
    cfg = _small_cfg(**kw)
    patients, (scan_ids, matrix), onsets = generate_cohort(cfg)
    ref, (ref_ids, ref_matrix), ref_onsets = _generate_reference(cfg)
    for name in ("patient_ids", "scan_ids"):
        assert getattr(patients, name) == getattr(ref, name)
    for name in ("is_cancer", "diagnosis_time", "scan_times"):
        a, b = getattr(patients, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert scan_ids == ref_ids and scan_ids is not patients.scan_ids
    assert matrix.shape == ref_matrix.shape and matrix.tobytes() == ref_matrix.tobytes()
    assert list(onsets) == list(ref_onsets)
    assert all(type(v) is float for v in onsets.values())
    values, ref_values = (np.array(list(o.values())) for o in (onsets, ref_onsets))
    assert values.tobytes() == ref_values.tobytes()


def test_feature_table_matches_scan_ids():
    patients, (scan_ids, features), onsets = generate_cohort(_small_cfg())
    assert scan_ids == patients.scan_ids
    assert sorted(onsets) == sorted(set(patients.patient_ids))
    assert features.shape == (len(scan_ids), _small_cfg().feature_dim + 1)


def test_diagnosis_is_first_scan_at_or_after_onset():
    patients, _, onsets = generate_cohort(_small_cfg(n_patients=400))
    records = records_of(patients)
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
    patients, _, _ = generate_cohort(_small_cfg(n_patients=300, seed=9))
    labels = derive_scan_labels(patients)  # raises on an invalid table
    assert len(labels) == len(patients)
    for rec in records_of(patients):
        assert all(a < b for a, b in zip(rec.scan_times, rec.scan_times[1:]))
        assert len(derive_scan_labels(patient_table(rec))) == len(rec.scan_times)


def test_progression_channel_carries_signal():
    patients, (_, features), _ = generate_cohort(_small_cfg(n_patients=500, seed=2))
    # features and labels are both in the patient table's row order
    auc, _ = roc_auc(features[:, -1], derive_scan_labels(patients).y)
    assert auc > 0.75


def test_null_cohort_has_no_signal():
    cfg = _small_cfg(n_patients=600, risk_coeff=0.0, progression_gain=0.0, seed=3)
    patients, (_, features), _ = generate_cohort(cfg)
    w = np.ones(cfg.feature_dim) / np.sqrt(cfg.feature_dim)
    channel = features[:, -1]
    risk = features[:, : cfg.feature_dim] @ w
    y = derive_scan_labels(patients).y
    auc_channel, _ = roc_auc(channel, y)
    auc_risk, _ = roc_auc(risk, y)
    assert abs(auc_channel - 0.5) < 0.06
    assert abs(auc_risk - 0.5) < 0.06


def test_null_cohort_trained_classifier_near_chance():
    from cfpt.model import ModelConfig, TrainConfig, build_dataset, predict, train

    cfg = _small_cfg(n_patients=300, risk_coeff=0.0, progression_gain=0.0, seed=4)
    patients, features, _ = generate_cohort(cfg)
    ds = build_dataset(derive_scan_labels(patients), features)
    pats = ds.patients()
    tr = ds.subset_patients(pats[:180])
    va = ds.subset_patients(pats[180:240])
    te = ds.subset_patients(pats[240:])
    [(params, _)] = train([(
        tr,
        va,
        ModelConfig(hidden_dims=(8,), seed=0),
        TrainConfig(max_epochs=10, lr0=1e-3, lr_decay_epochs=(), seed=0),
    )])
    preds = predict(params, te, 0)
    auc, _ = roc_auc(preds.y_hat, te.y)
    assert 0.35 < auc < 0.65


def test_risk_coupling_monotone_in_risk_coeff():
    corrs = []
    for coeff in (0.0, 0.5, 1.0):
        cfg = _small_cfg(n_patients=800, risk_coeff=coeff, seed=6)
        patients, (_, features), onsets = generate_cohort(cfg)
        first_row = {}
        for i, pid in enumerate(patients.patient_ids):
            first_row.setdefault(pid, i)
        w = np.ones(cfg.feature_dim) / np.sqrt(cfg.feature_dim)
        risk, onset = [], []
        for rec in records_of(patients):
            if not rec.is_cancer:
                continue
            x = features[first_row[rec.patient_id], : cfg.feature_dim]
            risk.append(float(w @ x))
            onset.append(onsets[rec.patient_id])
        corrs.append(float(spearmanr(risk, onset).statistic))
    # stronger coupling pushes the risk/onset rank correlation more negative
    assert abs(corrs[0]) < 0.1
    assert corrs[1] < corrs[0] - 0.05
    assert corrs[2] < corrs[1] - 0.05


def test_summary_counts():
    s = cohort_summary(patient_table(Record("q0", (0.0, 1.0, 2.0), False)))
    assert s.n_patients == 1
    assert s.n_scans == 3
    assert s.n_cancer_patients == 0
    assert s.n_malignant_scans == 0
    assert s.censored_fraction == 1.0
    assert s.scans_per_patient == {3: 1}
    with pytest.raises(ValueError):
        cohort_summary(patient_table())


def test_summary_counts_ids_that_differ_by_a_trailing_nul_as_two_patients():
    s = cohort_summary(patient_table(Record("a", (0.0,), False), Record("a\0", (1.0,), False)))
    assert s.n_patients == 2
    assert s.scans_per_patient == {1: 2}


def test_summary_reorder_invariant():
    patients, _, _ = generate_cohort(_small_cfg(seed=8))
    s1 = cohort_summary(patients)
    s2 = cohort_summary(patient_table(*reversed(records_of(patients))))
    assert s1 == s2


def test_summary_on_generated_cohort():
    patients, _, _ = generate_cohort(_small_cfg(seed=10))
    records = records_of(patients)
    s = cohort_summary(patients)
    assert s.n_patients == 200
    assert s.n_scans == sum(len(r.scan_times) for r in records)
    assert s.n_cancer_patients == sum(r.is_cancer for r in records)
    assert s.censored_fraction == pytest.approx(1 - s.n_cancer_patients / 200)
    assert sum(s.scans_per_patient.values()) == 200
    assert s.n_malignant_scans >= s.n_cancer_patients  # post-biopsy scans add more


def test_reference_config_hits_target_fraction():
    for seed in range(5):
        cfg = CohortConfig(seed=seed)
        assert cfg.onset_scale == 10.464
        patients, _, _ = generate_cohort(cfg)
        s = cohort_summary(patients)
        assert abs(s.cancer_fraction - 0.26) <= 0.05, seed


def test_calibrate_onset_scale():
    cfg = _small_cfg(n_patients=400, seed=12)
    scale = calibrate_onset_scale(cfg, 0.3, lo=1.0, hi=100.0, iterations=25)
    from dataclasses import replace

    patients, _, _ = generate_cohort(replace(cfg, onset_scale=scale))
    assert abs(cohort_summary(patients).cancer_fraction - 0.3) <= 0.03
    with pytest.raises(ValueError):
        calibrate_onset_scale(cfg, 0.3, lo=90.0, hi=100.0)
    for target in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="target"):
            calibrate_onset_scale(cfg, target)
