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
  diagnosed); ``t_d`` is right-censored exactly when ``p = 0``.
* ``y`` -- scan-level malignancy: for cancer patients, the latest scan at
  or before the biopsy time plus every scan after it; all other scans,
  and every scan of a never-diagnosed patient, are negative.

Malignancy is a scan-level notion here, not a subject-level one: an early
scan of a patient who is diagnosed years later carries ``p = 1`` but
``y = 0``.

A cohort is one :class:`PatientTable` and its labels one
:class:`LabelTable`, each a :class:`ScanTable`, a column per field and a
row per scan: from the simulator or the patients CSV, through
:func:`derive_scan_labels` and the labels CSV, to training and evaluation. The labels CSV adds a file column,
``right_censored``, written as ``1 - p`` and checked by :func:`contract_break`.
"""

from dataclasses import dataclass, fields

import numpy as np


@dataclass(eq=False)
class ScanTable:
    """A table with a row per scan, a column per field: lists of str and
    numpy arrays of one length.

    A subclass declares its array columns' dtypes in the class attribute
    ``dtypes``; each is converted on construction. A float column bound
    for an int or bool dtype must hold exact integers (0 or 1 for bool): a
    lossy cast raises ValueError naming the table and the column.
    """

    dtypes = {}

    def __post_init__(self):
        name = type(self).__name__
        for column, dtype in self.dtypes.items():
            values = np.asarray(getattr(self, column))
            with np.errstate(invalid="ignore"):  # NaN or inf to int warns
                cast = values.astype(dtype, copy=False)
            to_int = values.dtype.kind == "f" and cast.dtype.kind in "biu"
            if to_int and not np.array_equal(cast, values):
                bad = float(values[cast != values][0])
                raise ValueError(
                    f"{name} column {column}: {bad!r} does not convert to {cast.dtype} exactly"
                )
            setattr(self, column, cast)
        if len({len(getattr(self, f.name)) for f in fields(self)}) > 1:
            raise ValueError(f"{name} columns must have matching lengths")

    def __len__(self):
        return len(getattr(self, fields(self)[0].name))

    def subset(self, rows):
        """The rows at ``rows``, a sequence or an integer array, in that
        order: lists are indexed element by element, arrays fancy-indexed."""
        idx = np.asarray(rows, dtype=np.intp)
        picks = idx.tolist()
        return type(self)(*(
            column[idx] if isinstance(column, np.ndarray)
            else list(map(column.__getitem__, picks))
            for column in (getattr(self, f.name) for f in fields(self))
        ))


@dataclass(eq=False)
class PatientTable(ScanTable):
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

    dtypes = {"is_cancer": bool, "diagnosis_time": np.float64, "scan_times": np.float64}


@dataclass(eq=False)
class LabelTable(ScanTable):
    """Training targets of a cohort, one row per scan, in parallel columns.

    ``scan_ids`` and ``patient_ids`` are lists of str; ``t_d`` is float64,
    ``p`` and ``y`` int64, converted on construction. Values are not
    checked here: the CSV reader checks them in the file, against
    :func:`contract_break` too, and ``build_dataset`` before training.
    """

    scan_ids: list
    patient_ids: list
    t_d: np.ndarray
    p: np.ndarray
    y: np.ndarray

    dtypes = {"t_d": np.float64, "p": np.int64, "y": np.int64}


def _repeats(keys) -> np.ndarray:
    """Whether each of ``keys`` equals an earlier one."""
    out = np.zeros(len(keys), dtype=bool)
    if len(set(keys)) < len(keys):
        out[:] = True
        out[np.unique(np.asarray(keys), return_index=True)[1]] = False
    return out


def outcome_disagrees(cancer, diag, head) -> np.ndarray:
    """Whether each row's is_cancer ``cancer`` or diagnosis_time ``diag``
    differs from that of row ``head``, its patient's first; NaNs agree."""
    unknown = np.isnan(diag)
    return (cancer != cancer[head]) | ~((diag == diag[head]) | (unknown & unknown[head]))


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
    # each invariant as a flag per row that breaks it
    problems = {
        "rows not contiguous": _repeats(pid[start].tolist())[patient],
        "rows disagree on is_cancer or diagnosis_time": outcome_disagrees(cancer, diag, head),
        "scan_times contains non-finite values": ~np.isfinite(times),
        "scan_times not strictly increasing": ~start & (times <= np.roll(times, 1)),
        "diagnosis_time present for non-cancer patient": ~cancer & ~np.isnan(diag),
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
    year (so the last scan gets exactly 1.0), all labels negative. Cancer
    patients: ``t_d`` is the signed gap to the biopsy time ``b``, the
    diagnosis time or else the last scan time; malignant scans are the
    latest one at or before ``b`` (when any scan precedes it) together with
    every scan after ``b``.

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
    )


def contract_break(labels: LabelTable, right_censored):
    """The first cell of a labels file that breaks the labels contract, as
    ``(row, column, rule)`` with ``row`` counted from 0, or None.

    ``right_censored`` is the file's column of that name. The contract,
    which :func:`derive_scan_labels` meets by construction: a scan with
    ``p = 0`` has ``t_d >= 1``, ``y = 0`` and ``right_censored = 1``; a
    scan with ``p = 1`` has ``right_censored = 0``. Of the cells that
    break it in one row, the leftmost in the file is named.
    """
    never = labels.p == 0
    breaks = {  # file column -> (rule, whether each row breaks it)
        "t_d": ("p = 0 requires t_d >= 1", never & (labels.t_d < 1.0)),
        "y": ("p = 0 requires y = 0", never & (labels.y != 0)),
        "right_censored": ("right_censored must be 1 - p", np.asarray(right_censored) != never),
    }
    bad = np.logical_or.reduce([flags for _, flags in breaks.values()])
    if not bad.any():
        return None
    row = int(bad.argmax())
    return next((row, column, rule) for column, (rule, flags) in breaks.items() if flags[row])
