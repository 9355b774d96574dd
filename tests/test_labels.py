import math

import numpy as np
import pytest

from cfpt.labels import LabelTable, PatientTable, derive_scan_labels
from cfpt.model import PredictionTable
from helpers import (
    Record,
    check_label_invariants,
    patient_table,
    random_patient_record,
    table_columns,
)


def test_biopsy_time_passthrough():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 1.0, 2.0), True, 1.7)))
    assert labels.t_d.tolist() == [1.7 - t for t in (0.0, 1.0, 2.0)]


def test_biopsy_time_falls_back_to_last_scan():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 1.0, 2.0), True)))
    assert labels.t_d.tolist() == [2.0, 1.0, 0.0]
    assert labels.y.tolist() == [0, 0, 1]


def test_biopsy_time_single_scan():
    labels = derive_scan_labels(patient_table(Record("a", (0.5,), True)))
    assert labels.t_d.tolist() == [0.0]
    assert labels.y.tolist() == [1]


def test_biopsy_time_rejects_noncancer():
    # a never-diagnosed patient has no biopsy time, so a diagnosis is an error
    with pytest.raises(ValueError, match="diagnosis_time present for non-cancer patient"):
        derive_scan_labels(patient_table(Record("a", (0.0, 1.0), False, 0.5)))


def test_noncancer_labels():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 1.0, 2.0), False)))
    assert labels.t_d.tolist() == [3.0, 2.0, 1.0]
    assert labels.p.tolist() == [0, 0, 0]
    assert labels.y.tolist() == [0, 0, 0]


def test_cancer_labels_diagnosis_after_last_scan():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 1.5), True, diagnosis_time=2.0)))
    assert labels.t_d.tolist() == [2.0, 0.5]
    assert labels.y.tolist() == [0, 1]
    assert labels.p.tolist() == [1, 1]


def test_cancer_labels_with_post_diagnosis_scan():
    labels = derive_scan_labels(
        patient_table(Record("a", (0.0, 1.0, 3.0), True, diagnosis_time=2.0))
    )
    assert labels.t_d.tolist() == [2.0, 1.0, -1.0]
    assert labels.y.tolist() == [0, 1, 1]


def test_cancer_labels_missing_diagnosis_uses_last_scan():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 1.0), True)))
    assert labels.t_d.tolist() == [1.0, 0.0]
    assert labels.y.tolist() == [0, 1]


def test_scan_exactly_at_biopsy_time_is_malignant():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 2.0), True, diagnosis_time=2.0)))
    assert labels.y.tolist() == [0, 1]
    assert labels.t_d[1] == 0.0


def test_all_scans_after_diagnosis_all_malignant():
    labels = derive_scan_labels(patient_table(Record("a", (1.0, 2.0), True, diagnosis_time=0.5)))
    assert labels.y.tolist() == [1, 1]
    assert (labels.t_d < 0).all()


def test_explicit_scan_ids_are_kept():
    patients = PatientTable(["a", "a"], [False] * 2, [math.nan] * 2, ["x1", "x2"], [0.0, 1.0])
    labels = derive_scan_labels(patients)
    assert labels.scan_ids == ["x1", "x2"]
    assert labels.patient_ids == ["a", "a"]


def test_patient_table_columns_must_match():
    with pytest.raises(ValueError, match="PatientTable columns must have matching lengths"):
        PatientTable(["a", "a"], [False], [math.nan] * 2, ["x1", "x2"], [0.0, 1.0])


@pytest.mark.parametrize("bad", [0.5, math.nan])
@pytest.mark.parametrize("table, column, make", [
    ("LabelTable", "p", lambda v: LabelTable(["x1", "x2"], ["a"] * 2, [1.0, 2.0], [1, v], [0, 1])),
    ("LabelTable", "y", lambda v: LabelTable(["x1", "x2"], ["a"] * 2, [1.0, 2.0], [1, 1], [1, v])),
    ("PredictionTable", "fold", lambda v: PredictionTable(["x1", "x2"], [0.1] * 2, [1.0] * 2,
                                                          [1, v])),
    ("PatientTable", "is_cancer", lambda v: PatientTable(["a"] * 2, [1, v], [0.5] * 2,
                                                         ["x1", "x2"], [0.0, 1.0])),
], ids=["LabelTable.p", "LabelTable.y", "PredictionTable.fold", "PatientTable.is_cancer"])
def test_a_lossy_cast_of_a_float_column_raises_naming_table_and_column(table, column, make, bad):
    with pytest.raises(ValueError, match=f"^{table} column {column}: "):
        make(bad)
    assert getattr(make(1.0), column).tolist() == [1, 1]  # exact floats convert


def test_a_lossy_cast_of_an_integer_column_raises_naming_table_and_column():
    with pytest.raises(ValueError, match=r"^PatientTable column is_cancer: 2 does not convert"):
        PatientTable(["a"], [2], [math.nan], ["x"], [0.0])
    with pytest.raises(ValueError, match=r"^PredictionTable column fold: 9223372036854775808 "):
        PredictionTable(["x"], [0.5], [1.0], np.array([2**63], dtype=np.uint64))
    assert PatientTable(["a"], [1], [0.5], ["x"], [0.0]).is_cancer.tolist() == [True]
    labels = LabelTable(["x"], ["a"], [1.0], [True], np.array([0], dtype=np.uint8))
    assert labels.p.tolist() == [1] and labels.y.dtype == np.int64  # exact integers convert


@pytest.mark.parametrize("fold", [2**70, -2**70])
def test_a_fold_beyond_64_bits_raises_naming_table_and_column(fold):
    # a list holding such an int becomes an object array, not a numeric one
    with pytest.raises(ValueError) as err:
        PredictionTable(["x"], [0.5], [1.0], [fold])
    assert str(err.value) == (
        f"PredictionTable column fold: {fold} does not convert to int64 exactly"
    )


def test_an_is_cancer_beyond_64_bits_raises_as_2_does():
    with pytest.raises(ValueError) as err:
        PatientTable(["a"], [2**70], [math.nan], ["x"], [0.0])
    assert str(err.value) == (
        "PatientTable column is_cancer: 1180591620717411303424 does not convert to bool exactly"
    )
    table = PatientTable(["a", "b"], np.array([0, 1], dtype=object), [math.nan] * 2, ["x", "y"],
                         [0.0, 1.0])
    assert table.is_cancer.tolist() == [False, True]  # Python ints that fit convert


def test_validate_record_accepts_valid():
    labels = derive_scan_labels(patient_table(Record("a", (0.0, 1.0), True, diagnosis_time=0.5)))
    assert len(labels) == 2


def test_validate_record_flags_unsorted():
    with pytest.raises(ValueError, match="invalid record 'a': scan_times not strictly increasing"):
        derive_scan_labels(patient_table(Record("a", (1.0, 0.0), False)))


def test_validate_record_flags_duplicate_times():
    with pytest.raises(ValueError, match="scan_times not strictly increasing"):
        derive_scan_labels(patient_table(Record("a", (1.0, 1.0), False)))


def test_validate_record_flags_diagnosis_on_noncancer():
    with pytest.raises(ValueError, match="diagnosis_time"):
        derive_scan_labels(patient_table(Record("a", (0.0, 1.0), False, diagnosis_time=2.0)))


def test_derive_rejects_invalid_record():
    with pytest.raises(ValueError):
        derive_scan_labels(patient_table(Record("a", (1.0, 0.0), False)))
    # in a cohort, the error names the invalid patient
    cohort = patient_table(
        Record("ok", (0.0, 1.0), False),
        Record("bad", (1.0, 1.0), True),
        Record("ok2", (0.0,), False),
    )
    with pytest.raises(ValueError, match="invalid record 'bad'"):
        derive_scan_labels(cohort)


def _table(rows):
    """A PatientTable of ``(patient_id, is_cancer, diagnosis_time, scan_id, scan_time)`` rows."""
    return PatientTable(*map(list, zip(*rows)))


@pytest.mark.parametrize(
    "rows, message",
    [
        # b's rows are split by a's
        ([("b", 0, math.nan, "s0", 0.0), ("a", 0, math.nan, "s1", 0.0),
          ("b", 0, math.nan, "s2", 1.0)],
         "invalid record 'b': rows not contiguous$"),
        # a scan id shared by two patients names the patient of its second row
        ([("a", 0, math.nan, "s0", 0.0), ("b", 0, math.nan, "s0", 0.0)],
         "invalid record 'b': scan_id repeats an earlier row$"),
        ([("a", 1, 2.0, "s0", 0.0), ("a", 0, 2.0, "s1", 1.0)],
         "invalid record 'a': rows disagree on is_cancer or diagnosis_time; "
         "diagnosis_time present for non-cancer patient$"),
        ([("a", 1, 2.0, "s0", 0.0), ("a", 1, math.nan, "s1", 1.0)],
         "invalid record 'a': rows disagree on is_cancer or diagnosis_time$"),
        ([("a", 1, math.inf, "s0", 0.0)], "invalid record 'a': diagnosis_time is infinite$"),
        ([("a", 0, math.nan, "s0", 0.0), ("a", 0, math.nan, "s1", math.nan)],
         "invalid record 'a': scan_times contains non-finite values$"),
        # every problem of the named patient is listed, and only its own
        ([("ok", 0, math.nan, "s0", 0.0), ("z", 0, -math.inf, "s1", math.inf),
          ("z", 0, -math.inf, "s2", 0.0), ("y", 0, 1.0, "s3", 0.0)],
         "invalid record 'z': scan_times contains non-finite values; "
         "scan_times not strictly increasing; diagnosis_time present for non-cancer patient; "
         "diagnosis_time is infinite$"),
        # a trailing NUL makes another patient, and the error names it as it is
        ([("a\0", 0, math.nan, "s0", 0.0), ("a", 0, math.nan, "s1", 1.0),
          ("a\0", 0, math.nan, "s2", 2.0)],
         r"invalid record 'a\\x00': rows not contiguous$"),
    ],
)
def test_derive_rejects_a_broken_table_naming_its_first_patient(rows, message):
    with pytest.raises(ValueError, match=message):
        derive_scan_labels(_table(rows))


def test_ids_that_differ_by_a_trailing_nul_are_two_patients():
    labels = derive_scan_labels(_table([
        ("a", 0, math.nan, "s", 0.0), ("a\0", 1, math.nan, "s\0", 1.0),
        ("b", 0, math.nan, "s3", 0.0),
    ]))
    assert labels.t_d.tolist() == [1.0, 0.0, 1.0]
    assert labels.y.tolist() == [0, 1, 0]


def test_derive_names_the_broken_patient_in_a_random_cohort():
    rng = np.random.default_rng(11)
    for trial in range(300):
        records = [random_patient_record(rng, pid=f"r{i}") for i in range(int(rng.integers(2, 8)))]
        table = patient_table(*records)
        columns = [list(table.patient_ids), table.is_cancer.tolist(),
                   table.diagnosis_time.tolist(), list(table.scan_ids), table.scan_times.tolist()]
        pid, cancer, diagnosis, sid, times = columns
        kind = trial % 6
        starts = [i for i in range(len(pid)) if i == 0 or pid[i] != pid[i - 1]]
        later = [i for i in range(len(pid)) if i not in starts]  # rows with an earlier own row
        if kind == 0:  # a scan time that is not finite
            row = int(rng.integers(len(pid)))
            times[row] = [math.nan, math.inf, -math.inf][trial // 6 % 3]
        elif kind == 1:  # a scan id of an earlier row
            row = int(rng.integers(1, len(pid)))
            sid[row] = sid[int(rng.integers(row))]
        elif kind == 3:  # a diagnosis on a never-diagnosed patient, or an infinite one
            row = int(rng.integers(len(pid)))
            own = [i for i in range(len(pid)) if pid[i] == pid[row]]
            for i in own:
                diagnosis[i] = math.inf if cancer[i] else 1.0
        elif not later:
            continue
        elif kind == 2:  # a later row of a patient other than the last moved to the end
            row = later[int(rng.integers(len(later)))]
            if row > starts[-1]:
                continue
            for column in columns:
                column.append(column.pop(row))
            row = len(pid) - 1
        elif kind == 4:  # scan times out of order
            row = later[int(rng.integers(len(later)))]
            times[row - 1], times[row] = times[row], times[row - 1]
        else:  # a row that disagrees with its patient's first row
            row = later[int(rng.integers(len(later)))]
            cancer[row] = not cancer[row]
        with pytest.raises(ValueError, match=f"^invalid record '{pid[row]}': "):
            derive_scan_labels(PatientTable(*columns))
    # every untouched random cohort is valid
    assert len(derive_scan_labels(patient_table(*records))) == len(table)


def test_random_records_satisfy_invariants():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rec = random_patient_record(rng)
        labels = derive_scan_labels(patient_table(rec))
        check_label_invariants(rec, labels)
        assert table_columns(derive_scan_labels(patient_table(rec))) == table_columns(labels)


def test_cohort_derivation_equals_concatenated_single_records():
    rng = np.random.default_rng(8)
    records = [random_patient_record(rng, pid=f"r{i}") for i in range(400)]
    # diagnosis exactly at a scan, and at -0.0 on a scan at +0.0
    records.append(Record("edge1", (0.0, 1.0, 2.0), True, diagnosis_time=1.0))
    records.append(Record("edge2", (0.0, 1.0), True, diagnosis_time=-0.0))
    singles = [derive_scan_labels(patient_table(rec)) for rec in records]
    whole = derive_scan_labels(patient_table(*records))
    concatenated = LabelTable(
        *([x for table in singles for x in getattr(table, name)]
          for name in ("scan_ids", "patient_ids")),
        *(np.concatenate([getattr(table, name) for table in singles])
          for name in ("t_d", "p", "y")),
    )
    assert table_columns(whole) == table_columns(concatenated)
    assert len(derive_scan_labels(patient_table())) == 0
