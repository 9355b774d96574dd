"""Synthetic censored screening cohorts with a learnable time-to-event signal.

Each patient gets a standard-normal baseline feature vector ``x``, a latent
risk score ``r = w . x`` (fixed unit ``w``), and a latent onset time drawn
from a Weibull whose scale shrinks exponentially with risk. Scans run on a
regular schedule from time 0 up to the study horizon, cut short by a
per-scan dropout (loss to follow-up). The patient is diagnosed at the
first scan at or after onset when one exists in the realized schedule;
otherwise the onset is right-censored past their follow-up and the patient
is recorded as non-cancer.

Per-scan model features are ``x`` plus one progression channel: a noisy
clipped ramp ``gain * max(0, 1 - (onset - scan_time)/horizon)`` that rises
as the scan approaches onset (and stays at pure noise when onset lies far
beyond the schedule). This channel is what makes the defined CFPT
learnable. True onset times are returned in a separate table for
evaluation only and must never be fed to training.

Aggregate shape targets (cohort size, roughly one quarter of patients
ultimately diagnosed, a few scans per patient a year apart) mimic a real
annual-screening cohort; all finer structure is invented.
"""

import math
from dataclasses import dataclass

import numpy as np

from .labels import PatientTable, derive_scan_labels, first_rows


# generate_cohort draws each scan's dropout check in a Python loop, so a
# schedule may run at most this many scan intervals past its first scan
MAX_SCAN_INTERVALS = 1000


@dataclass(frozen=True)
class CohortConfig:
    n_patients: int = 1500
    feature_dim: int = 8
    scan_interval: float = 1.0
    study_horizon: float = 6.0
    dropout_prob: float = 0.1
    # calibrate_onset_scale's scale for a 0.26 cancer fraction at these
    # defaults, the reference cohort of the acceptance suite (seeds 0-4)
    onset_scale: float = 10.464
    onset_shape: float = 1.5
    risk_coeff: float = 0.5
    progression_gain: float = 2.0
    noise_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError(f"n_patients must be >= 1, got {self.n_patients}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 0 < self.scan_interval < math.inf:
            raise ValueError(
                f"scan_interval must be positive and finite, got {self.scan_interval}"
            )
        if not self.scan_interval <= self.study_horizon < math.inf:
            raise ValueError(
                f"study_horizon must be finite and at least one scan_interval, "
                f"got {self.study_horizon}"
            )
        if not self.study_horizon <= MAX_SCAN_INTERVALS * self.scan_interval:
            raise ValueError(
                f"study_horizon must be at most {MAX_SCAN_INTERVALS} scan_intervals, "
                f"got {self.study_horizon} with scan_interval {self.scan_interval}"
            )
        if not 0 <= self.dropout_prob < 1:
            raise ValueError(f"dropout_prob must lie in [0, 1), got {self.dropout_prob}")
        if not (0 < self.onset_scale < math.inf and 0 < self.onset_shape < math.inf):
            raise ValueError(
                "Weibull onset parameters onset_scale and onset_shape must be positive and "
                f"finite, got {self.onset_scale} and {self.onset_shape}"
            )
        if not math.isfinite(self.risk_coeff):
            raise ValueError(f"risk_coeff must be finite, got {self.risk_coeff}")
        if not math.isfinite(self.progression_gain):
            raise ValueError(f"progression_gain must be finite, got {self.progression_gain}")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")


@dataclass(frozen=True)
class CohortSummary:
    n_patients: int
    n_scans: int
    n_cancer_patients: int
    n_malignant_scans: int
    censored_fraction: float
    scans_per_patient: dict

    @property
    def cancer_fraction(self) -> float:
        return self.n_cancer_patients / self.n_patients


def _risk_direction(dim: int) -> np.ndarray:
    return np.ones(dim) / np.sqrt(dim)


def generate_cohort(cfg: CohortConfig):
    """Draw one cohort; returns (patients, features, onsets).

    ``patients`` is a :class:`PatientTable`, one row per scan, patient by
    patient and each patient's scans in time order; ``features`` the pair
    ``(scan_ids, matrix)``: the same scan ids in the same order and one
    matrix row per scan (baseline ``x`` plus the progression channel, so
    ``feature_dim + 1`` columns), and ``onsets`` maps patient_id to the
    latent onset time (ground truth, evaluation only). Output is a pure
    function of the config, including its seed.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.feature_dim
    n_max = int(np.floor(cfg.study_horizon / cfg.scan_interval + 1e-9)) + 1

    # the random draws, patient by patient: baseline features, the onset's
    # Weibull factor, a dropout check after each scan but the last one
    # possible, and the noise of each scan that is taken. The risk is each
    # patient's own ``w @ x``: a matrix product over all patients sums in
    # another order and moves its last bits
    w = _risk_direction(d)
    x = np.empty((cfg.n_patients, d))
    risk = np.empty(cfg.n_patients)
    weibull = np.empty(cfg.n_patients)
    n_scans = np.full(cfg.n_patients, n_max)
    noise = []
    for i in range(cfg.n_patients):
        x[i] = rng.standard_normal(d)
        risk[i] = w @ x[i]
        weibull[i] = rng.weibull(cfg.onset_shape)
        for k in range(n_max - 1):
            if rng.random() < cfg.dropout_prob:
                n_scans[i] = k + 1
                break
        noise.append(rng.normal(0.0, cfg.noise_sd, size=n_scans[i]))

    # everything else at once, over all patients and scans
    onset = weibull * (cfg.onset_scale * np.exp(-cfg.risk_coeff * risk))
    grid = np.arange(n_max) * cfg.scan_interval
    first = np.searchsorted(grid, onset)  # the first scan time at or after onset
    cancer = first < n_scans  # a scan the patient had
    diagnosis = np.where(cancer, grid[np.minimum(first, n_max - 1)], np.nan)
    # each scan's patient, and its place in that patient's schedule
    patient = np.repeat(np.arange(cfg.n_patients), n_scans)
    scan = np.arange(len(patient)) - np.repeat(np.cumsum(n_scans) - n_scans, n_scans)
    times = grid[scan]
    ramp = np.maximum(0.0, 1.0 - (onset[patient] - times) / cfg.study_horizon)
    matrix = np.empty((len(patient), d + 1))
    matrix[:, :-1] = x[patient]
    matrix[:, -1] = cfg.progression_gain * ramp + np.concatenate(noise)

    width = len(str(cfg.n_patients - 1))
    pids = [f"p{i:0{width}d}" for i in range(cfg.n_patients)]
    patient_ids = [pid for pid, n in zip(pids, n_scans.tolist()) for _ in range(n)]
    scan_ids = [f"{pid}-s{k}" for pid, k in zip(patient_ids, scan.tolist())]
    patients = PatientTable(patient_ids, cancer[patient], diagnosis[patient], scan_ids, times)
    return patients, (list(scan_ids), matrix), dict(zip(pids, onset.tolist()))


def cohort_summary(patients: PatientTable) -> CohortSummary:
    """Aggregate counts over a cohort; malignancy via label derivation."""
    if not len(patients):
        raise ValueError("cohort_summary of an empty cohort is undefined")
    labels = derive_scan_labels(patients)
    first = first_rows(patients.patient_ids)
    heads = np.flatnonzero(first == np.arange(len(first)))  # each patient's first row
    n_patients = len(heads)
    n_cancer = int(patients.is_cancer[heads].sum())
    size, count = np.unique(np.bincount(first)[heads], return_counts=True)
    return CohortSummary(
        n_patients=n_patients,
        n_scans=len(patients),
        n_cancer_patients=n_cancer,
        n_malignant_scans=int(labels.y.sum()),
        censored_fraction=(n_patients - n_cancer) / n_patients,
        scans_per_patient=dict(zip(size.tolist(), count.tolist())),
    )


def calibrate_onset_scale(
    cfg: CohortConfig,
    target: float,
    lo: float = 0.5,
    hi: float = 200.0,
    iterations: int = 40,
) -> float:
    """Bisect ``onset_scale`` until the realized cancer fraction of ``cfg``
    matches ``target`` (larger scale pushes onsets later, so the fraction
    is monotone decreasing in the scale)."""
    from dataclasses import replace

    if not 0 < target < 1:
        raise ValueError(f"target cancer fraction must lie in (0, 1), got {target}")

    def fraction(scale: float) -> float:
        patients, _, _ = generate_cohort(replace(cfg, onset_scale=scale))
        return cohort_summary(patients).cancer_fraction

    if fraction(lo) < target or fraction(hi) > target:
        raise ValueError("calibration target not bracketed by [lo, hi]")
    for _ in range(iterations):
        mid = np.sqrt(lo * hi)  # bisect in log space
        if fraction(mid) > target:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))
