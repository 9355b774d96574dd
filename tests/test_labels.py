import numpy as np
import pytest

from cfpt.labels import (
    LabelTable,
    PatientRecord,
    derive_scan_labels,
    effective_biopsy_time,
    validate_record,
)
from helpers import check_label_invariants, random_patient_record, table_columns


def test_biopsy_time_passthrough():
    rec = PatientRecord("a", (0.0, 1.0, 2.0), True, diagnosis_time=1.7)
    assert effective_biopsy_time(rec) == 1.7


def test_biopsy_time_falls_back_to_last_scan():
    rec = PatientRecord("a", (0.0, 1.0, 2.0), True)
    assert effective_biopsy_time(rec) == 2.0


def test_biopsy_time_single_scan():
    rec = PatientRecord("a", (0.5,), True)
    assert effective_biopsy_time(rec) == 0.5


def test_biopsy_time_rejects_noncancer():
    rec = PatientRecord("a", (0.0, 1.0), False)
    with pytest.raises(ValueError):
        effective_biopsy_time(rec)


def test_noncancer_labels():
    rec = PatientRecord("a", (0.0, 1.0, 2.0), False)
    labels = derive_scan_labels([rec])
    assert labels.t_d.tolist() == [3.0, 2.0, 1.0]
    assert labels.p.tolist() == [0, 0, 0]
    assert labels.y.tolist() == [0, 0, 0]
    assert labels.right_censored.all()


def test_cancer_labels_diagnosis_after_last_scan():
    rec = PatientRecord("a", (0.0, 1.5), True, diagnosis_time=2.0)
    labels = derive_scan_labels([rec])
    assert labels.t_d.tolist() == [2.0, 0.5]
    assert labels.y.tolist() == [0, 1]
    assert not labels.right_censored.any()


def test_cancer_labels_with_post_diagnosis_scan():
    rec = PatientRecord("a", (0.0, 1.0, 3.0), True, diagnosis_time=2.0)
    labels = derive_scan_labels([rec])
    assert labels.t_d.tolist() == [2.0, 1.0, -1.0]
    assert labels.y.tolist() == [0, 1, 1]


def test_cancer_labels_missing_diagnosis_uses_last_scan():
    rec = PatientRecord("a", (0.0, 1.0), True)
    labels = derive_scan_labels([rec])
    assert labels.t_d.tolist() == [1.0, 0.0]
    assert labels.y.tolist() == [0, 1]


def test_scan_exactly_at_biopsy_time_is_malignant():
    rec = PatientRecord("a", (0.0, 2.0), True, diagnosis_time=2.0)
    labels = derive_scan_labels([rec])
    assert labels.y.tolist() == [0, 1]
    assert labels.t_d[1] == 0.0


def test_all_scans_after_diagnosis_all_malignant():
    rec = PatientRecord("a", (1.0, 2.0), True, diagnosis_time=0.5)
    labels = derive_scan_labels([rec])
    assert labels.y.tolist() == [1, 1]
    assert (labels.t_d < 0).all()


def test_explicit_scan_ids_are_kept():
    rec = PatientRecord("a", (0.0, 1.0), False, scan_ids=("x1", "x2"))
    labels = derive_scan_labels([rec])
    assert labels.scan_ids == ["x1", "x2"]


def test_generated_scan_ids_are_unique_and_ordered():
    rec = PatientRecord("pt", (0.0, 1.0, 2.0), False)
    ids = derive_scan_labels([rec]).scan_ids
    assert len(set(ids)) == 3
    assert ids == sorted(ids)


def test_validate_record_accepts_valid():
    rec = PatientRecord("a", (0.0, 1.0), True, diagnosis_time=0.5)
    assert validate_record(rec) == []


def test_validate_record_flags_unsorted():
    rec = PatientRecord("a", (1.0, 0.0), False)
    assert any("strictly increasing" in v for v in validate_record(rec))


def test_validate_record_flags_duplicate_times():
    rec = PatientRecord("a", (1.0, 1.0), False)
    assert any("strictly increasing" in v for v in validate_record(rec))


def test_validate_record_flags_diagnosis_on_noncancer():
    rec = PatientRecord("a", (0.0, 1.0), False, diagnosis_time=2.0)
    assert any("diagnosis_time" in v for v in validate_record(rec))


def test_validate_record_flags_empty():
    rec = PatientRecord("a", (), False)
    assert any("empty" in v for v in validate_record(rec))


def test_derive_rejects_invalid_record():
    with pytest.raises(ValueError):
        derive_scan_labels([PatientRecord("a", (1.0, 0.0), False)])
    with pytest.raises(ValueError):
        derive_scan_labels([PatientRecord("a", (), False)])
    # in a cohort, the error names the invalid patient
    good = PatientRecord("ok", (0.0, 1.0), False)
    with pytest.raises(ValueError, match="invalid record 'bad'"):
        derive_scan_labels([good, PatientRecord("bad", (1.0, 1.0), True), good])


def test_random_records_satisfy_invariants():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rec = random_patient_record(rng)
        labels = derive_scan_labels([rec])
        check_label_invariants(rec, labels)
        assert table_columns(derive_scan_labels([rec])) == table_columns(labels)  # idempotent


def test_cohort_derivation_equals_concatenated_single_records():
    rng = np.random.default_rng(8)
    records = [random_patient_record(rng, pid=f"r{i}") for i in range(400)]
    # diagnosis exactly at a scan, and at -0.0 on a scan at +0.0
    records.append(PatientRecord("edge1", (0.0, 1.0, 2.0), True, diagnosis_time=1.0))
    records.append(PatientRecord("edge2", (0.0, 1.0), True, diagnosis_time=-0.0))
    singles = [derive_scan_labels([rec]) for rec in records]
    whole = derive_scan_labels(records)
    concatenated = LabelTable(
        *([x for table in singles for x in getattr(table, name)]
          for name in ("scan_ids", "patient_ids")),
        *(np.concatenate([getattr(table, name) for table in singles])
          for name in ("t_d", "p", "y", "right_censored")),
    )
    assert table_columns(whole) == table_columns(concatenated)
    assert len(derive_scan_labels([])) == 0
