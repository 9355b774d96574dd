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

A cohort's labels are one :class:`LabelTable`, a column per field, from
:func:`derive_scan_labels` through the labels CSV to training and
evaluation.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PatientRecord:
    """Raw longitudinal clinical events for one patient.

    ``scan_times`` are in years relative to an arbitrary per-patient origin
    (only differences matter) and must be strictly increasing.
    ``diagnosis_time`` is the biopsy time on the same axis; it may be set
    only for cancer patients and may predate the first scan or fall between
    scans. ``scan_ids`` optionally carries externally assigned scan
    identifiers; when omitted, ids are generated as ``<patient_id>-s<k>``.
    """

    patient_id: str
    scan_times: tuple[float, ...]
    is_cancer: bool
    diagnosis_time: float | None = None
    scan_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        # normalize sequences so records hash/compare predictably
        object.__setattr__(self, "scan_times", tuple(float(t) for t in self.scan_times))
        if self.scan_ids is not None:
            object.__setattr__(self, "scan_ids", tuple(str(s) for s in self.scan_ids))


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
        n = len(self.scan_ids)
        if not all(len(c) == n for c in (self.patient_ids, self.t_d, self.p, self.y,
                                          self.right_censored)):
            raise ValueError("LabelTable columns must have matching lengths")

    def __len__(self):
        return len(self.scan_ids)


def validate_record(record: PatientRecord) -> list[str]:
    """Return the list of violated record invariants (empty when valid).

    Never raises and never mutates; every problem is reported as one
    human-readable string.
    """
    problems = []
    times = record.scan_times
    if len(times) == 0:
        problems.append("scan_times is empty")
    if any(t != t or t in (float("inf"), float("-inf")) for t in times):
        problems.append("scan_times contains non-finite values")
    elif any(b <= a for a, b in zip(times, times[1:])):
        problems.append("scan_times not strictly increasing")
    if record.diagnosis_time is not None and not record.is_cancer:
        problems.append("diagnosis_time present for non-cancer patient")
    if record.diagnosis_time is not None:
        d = float(record.diagnosis_time)
        if d != d or d in (float("inf"), float("-inf")):
            problems.append("diagnosis_time is non-finite")
    if record.scan_ids is not None:
        if len(record.scan_ids) != len(times):
            problems.append("scan_ids length does not match scan_times")
        if len(set(record.scan_ids)) != len(record.scan_ids):
            problems.append("scan_ids contains duplicates")
    return problems


def _check_valid(record: PatientRecord) -> None:
    problems = validate_record(record)
    if problems:
        raise ValueError(
            f"invalid record {record.patient_id!r}: " + "; ".join(problems)
        )


def effective_scan_ids(record: PatientRecord) -> tuple[str, ...]:
    """The record's scan ids, generating ``<patient>-s<k>`` when absent."""
    if record.scan_ids is not None:
        return record.scan_ids
    return tuple(f"{record.patient_id}-s{k}" for k in range(len(record.scan_times)))


def effective_biopsy_time(record: PatientRecord) -> float:
    """Biopsy time for a cancer patient.

    Returns the recorded diagnosis time when present; for confirmed cancer
    patients whose actual diagnosis date is missing, the last scan time
    stands in for it.
    """
    if not record.is_cancer:
        raise ValueError(
            f"patient {record.patient_id!r} is not a cancer patient; "
            "no biopsy time is defined"
        )
    _check_valid(record)
    if record.diagnosis_time is not None:
        return float(record.diagnosis_time)
    return record.scan_times[-1]


def derive_scan_labels(records) -> LabelTable:
    """Derive the :class:`LabelTable` of ``records``: one row per scan,
    patients in the given order and each patient's scans in scan order.

    Never-diagnosed patients: ``t_d`` is the gap to the last scan plus one
    year (so the last scan gets exactly 1.0), all labels negative,
    right-censored. Cancer patients: ``t_d`` is the signed gap to the
    biopsy time ``b``; malignant scans are the latest one at or before
    ``b`` (when any scan precedes it) together with every scan after ``b``.
    An invalid record raises ValueError naming its patient.
    """
    records = list(records)
    for rec in records:
        _check_valid(rec)
    counts = [len(rec.scan_times) for rec in records]
    times = np.array([t for rec in records for t in rec.scan_times], dtype=np.float64)
    cancer = np.repeat(np.array([rec.is_cancer for rec in records], dtype=bool), counts)
    # the biopsy time of a cancer patient (see effective_biopsy_time), the
    # last scan time of anyone else; both are per patient, repeated per scan
    ref = np.repeat(np.array([
        rec.scan_times[-1] if rec.diagnosis_time is None else rec.diagnosis_time
        for rec in records
    ], dtype=np.float64), counts)
    gap = ref - times
    last = np.zeros(len(times), dtype=bool)
    last[np.cumsum(counts, dtype=np.intp) - 1] = True
    # scan times increase, so a scan is the latest at or before b, or after
    # b, exactly when it is its patient's last scan or the next one is after b
    later = np.append(times[1:], np.inf)
    return LabelTable(
        scan_ids=[sid for rec in records for sid in effective_scan_ids(rec)],
        patient_ids=[rec.patient_id for rec, k in zip(records, counts) for _ in range(k)],
        t_d=np.where(cancer, gap, gap + 1.0),
        p=cancer,
        y=cancer & (last | (later > ref)),
        right_censored=~cancer,
    )
