"""Per-scan label derivation from censored longitudinal patient records.

Each patient contributes an ordered series of screening scans. From the
patient-level outcome (cancer / no cancer, optional biopsy time) we derive,
for every scan:

* ``t_d`` -- the defined cancer-free progression time (CFPT), in years:
  time from scan to biopsy for cancer patients (negative for scans taken
  after the biopsy), or time to the last scan plus one year for patients
  never diagnosed (a right-censored lower bound: the next screening round
  is assumed at least a year away).
* ``p`` -- patient-level cancer indicator (1 iff the patient is ultimately
  diagnosed).
* ``y`` -- scan-level malignancy: for cancer patients, the latest scan at
  or before the biopsy time plus every scan after it; all other scans,
  and every scan of a never-diagnosed patient, are negative.
* ``right_censored`` -- true exactly for scans of never-diagnosed patients.

Malignancy is a scan-level notion here, not a subject-level one: an early
scan of a patient who is diagnosed years later carries ``p = 1`` but
``y = 0``.

A cohort is one :class:`PatientTable` and its labels one
:class:`LabelTable`, each a column per field and a row per scan: from the
simulator or the patients CSV, through :func:`derive_scan_labels` and the
labels CSV, to training and evaluation.
"""

from dataclasses import dataclass

import numpy as np


def _check_lengths(table):
    if len({len(column) for column in vars(table).values()}) > 1:
        raise ValueError(f"{type(table).__name__} columns must have matching lengths")


@dataclass(eq=False)
class PatientTable:
    """A cohort's longitudinal records, one row per scan, in the columns of
    ``patients.csv``.

    ``patient_ids`` and ``scan_ids`` are lists of str; ``is_cancer`` is
    bool, ``diagnosis_time`` float64 and ``scan_times`` float64, converted
    on construction. The patient fields repeat on each of the patient's
    rows. Scan times are in years from an arbitrary per-patient origin
    (only differences matter). ``diagnosis_time`` is the biopsy time on
    the same axis, NaN when unknown; it may predate the first scan or fall
    between scans. Values are checked by :func:`derive_scan_labels`.
    """

    patient_ids: list
    is_cancer: np.ndarray
    diagnosis_time: np.ndarray
    scan_ids: list
    scan_times: np.ndarray

    def __post_init__(self):
        self.is_cancer = np.asarray(self.is_cancer, dtype=bool)
        self.diagnosis_time = np.asarray(self.diagnosis_time, dtype=np.float64)
        self.scan_times = np.asarray(self.scan_times, dtype=np.float64)
        _check_lengths(self)

    def __len__(self):
        return len(self.scan_ids)


@dataclass(eq=False)
class LabelTable:
    """Training targets of a cohort, one row per scan, in parallel columns.

    ``scan_ids`` and ``patient_ids`` are lists of str; ``t_d`` is float64,
    ``p`` and ``y`` int64 and ``right_censored`` bool, converted on
    construction. Values are not checked here: the CSV reader checks them
    in the file and ``build_dataset`` before training.
    """

    scan_ids: list
    patient_ids: list
    t_d: np.ndarray
    p: np.ndarray
    y: np.ndarray
    right_censored: np.ndarray

    def __post_init__(self):
        self.t_d = np.asarray(self.t_d, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.right_censored = np.asarray(self.right_censored, dtype=bool)
        _check_lengths(self)

    def __len__(self):
        return len(self.scan_ids)


def _repeats(keys) -> np.ndarray:
    """Whether each of ``keys`` equals an earlier one."""
    out = np.zeros(len(keys), dtype=bool)
    if len(set(keys)) < len(keys):
        out[:] = True
        out[np.unique(np.asarray(keys), return_index=True)[1]] = False
    return out


def _patient_starts(patients: PatientTable) -> np.ndarray:
    """Whether each row starts a patient, once the whole table is checked.

    A table that breaks an invariant raises ValueError naming the patient
    of the first row that breaks one, with all of that patient's problems.
    """
    pid = np.asarray(patients.patient_ids, dtype=str)
    start = np.ones(len(pid), dtype=bool)
    start[1:] = pid[1:] != pid[:-1]
    patient = np.cumsum(start) - 1
    head = np.flatnonzero(start)[patient]
    times, cancer, diag = patients.scan_times, patients.is_cancer, patients.diagnosis_time
    unknown = np.isnan(diag)
    # each invariant as a flag per row that breaks it
    problems = {
        "rows not contiguous": _repeats(pid[start].tolist())[patient],
        "rows disagree on is_cancer or diagnosis_time":
            (cancer != cancer[head]) | ~((diag == diag[head]) | (unknown & unknown[head])),
        "scan_times contains non-finite values": ~np.isfinite(times),
        "scan_times not strictly increasing": ~start & (times <= np.roll(times, 1)),
        "diagnosis_time present for non-cancer patient": ~cancer & ~unknown,
        "diagnosis_time is infinite": np.isinf(diag),
        "scan_id repeats an earlier row": _repeats(patients.scan_ids),
    }
    bad = np.logical_or.reduce(list(problems.values()))
    if bad.any():
        name = pid[bad.argmax()]
        own = pid == name
        raise ValueError(f"invalid record {str(name)!r}: " + "; ".join(
            what for what, flags in problems.items() if flags[own].any()))
    return start


def derive_scan_labels(patients: PatientTable) -> LabelTable:
    """Derive the :class:`LabelTable` of ``patients``, row for row.

    Never-diagnosed patients: ``t_d`` is the gap to the last scan plus one
    year (so the last scan gets exactly 1.0), all labels negative,
    right-censored. Cancer patients: ``t_d`` is the signed gap to the
    biopsy time ``b``, the diagnosis time or else the last scan time;
    malignant scans are the latest one at or before ``b`` (when any scan
    precedes it) together with every scan after ``b``.

    The whole table is checked first: each patient's rows are contiguous
    and agree on ``is_cancer`` and ``diagnosis_time``; scan times are
    finite and strictly increasing within a patient; a diagnosis time is
    finite and belongs to a cancer patient; scan ids are unique. A
    ValueError names the first patient that breaks one.
    """
    start = _patient_starts(patients)
    times, cancer, diag = patients.scan_times, patients.is_cancer, patients.diagnosis_time
    last = np.ones(len(times), dtype=bool)
    last[:-1] = start[1:]
    # the diagnosis time when known, else the patient's last scan time
    ref = np.where(np.isnan(diag), times[last][np.cumsum(start) - 1], diag)
    gap = ref - times
    # scan times increase, so a scan is the latest at or before b, or after
    # b, exactly when it is its patient's last scan or the next one is after
    # b (the roll wraps only on the table's last row, a last scan)
    later = np.roll(times, -1)
    return LabelTable(
        scan_ids=list(patients.scan_ids),
        patient_ids=list(patients.patient_ids),
        t_d=np.where(cancer, gap, gap + 1.0),
        p=cancer,
        y=cancer & (last | (later > ref)),
        right_censored=~cancer,
    )
