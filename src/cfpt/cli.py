"""File-based experiment pipeline: cohort synthesis, label derivation,
cross-validated training, and evaluation, glued together by flat CSV files
so every stage stays inspectable and diff-able.

Subcommands::

    cfpt synth     --config exp.cfg --out DIR       cohort -> patients/scans/truth CSVs
    cfpt label     PATIENTS_CSV --out LABELS_CSV    derive per-scan labels
    cfpt crossval  --config exp.cfg --out DIR       pooled out-of-fold predictions
    cfpt eval      PREDICTIONS LABELS --out DIR     report + roc/km/scatter CSVs
    cfpt km        LABELS_CSV --out KM_CSV          survival curve of the labels
    cfpt losscheck [--seed N]                       loss/gradient self-verification

Experiment configs are flat text files of dotted keys (``train.lr0 = 1e-3``),
``#`` comments, and nothing else; unknown keys are rejected. All floats are
written with ``repr`` so a rerun with the same config is byte-identical.
Errors print a single ``error:<class>: message`` line and exit nonzero.
"""

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .labels import PatientRecord, ScanLabel, derive_scan_labels, effective_scan_ids
from .losses import LossConfig, Prediction, cel, cel_grad_logit, crl, crl_grad, joint_loss
from .metrics import EvalReport, KMCurve, evaluate, km_estimate
from .model import ModelConfig, TrainConfig, build_dataset, run_crossval
from .simulate import CohortConfig, CohortSummary, cohort_summary, generate_cohort


class CliError(Exception):
    """Base for errors that map to the one-line ``error:<token>`` output."""

    token = "data"


class ConfigError(CliError):
    token = "config"


class SchemaError(CliError):
    token = "schema"


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, loadable from a flat config file.

    ``mode`` selects the objective: ``single_task`` forces the regression
    weight lambda to 0 (classification only), ``multi_task`` requires a
    positive lambda. ``paths`` points at the labels/scans inputs consumed
    by the crossval stage.
    """

    mode: str = "multi_task"
    k_folds: int = 5
    thresholds: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    cohort: CohortConfig = field(default_factory=CohortConfig)
    hidden_dims: tuple[int, ...] = (64, 64)
    model_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    paths: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("single_task", "multi_task"):
            raise ConfigError(f"mode must be single_task or multi_task, got {self.mode!r}")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if any(t <= 0 for t in self.thresholds):
            raise ConfigError(f"thresholds must be positive, got {self.thresholds}")
        if self.mode == "single_task":
            if self.train.loss.lam != 0.0:
                object.__setattr__(
                    self,
                    "train",
                    replace(self.train, loss=replace(self.train.loss, lam=0.0)),
                )
        elif not self.train.loss.lam > 0:
            raise ConfigError("multi_task requires loss.lambda > 0")


def _to_int(s: str) -> int:
    return int(s)


def _to_float(s: str) -> float:
    return float(s)


def _to_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _to_int_tuple(s: str) -> tuple[int, ...]:
    s = s.strip()
    return tuple(int(part) for part in s.split(",")) if s else ()


def _to_float_tuple(s: str) -> tuple[float, ...]:
    s = s.strip()
    return tuple(float(part) for part in s.split(",")) if s else ()


def _to_str(s: str) -> str:
    return s


# key -> (bucket, constructor kwarg, converter)
_CONFIG_KEYS = {
    "mode": ("top", "mode", _to_str),
    "k_folds": ("top", "k_folds", _to_int),
    "thresholds": ("top", "thresholds", _to_float_tuple),
    "paths.labels": ("paths", "labels", _to_str),
    "paths.scans": ("paths", "scans", _to_str),
    "cohort.n_patients": ("cohort", "n_patients", _to_int),
    "cohort.cancer_fraction_target": ("cohort", "cancer_fraction_target", _to_float),
    "cohort.feature_dim": ("cohort", "feature_dim", _to_int),
    "cohort.scan_interval": ("cohort", "scan_interval", _to_float),
    "cohort.study_horizon": ("cohort", "study_horizon", _to_float),
    "cohort.dropout_prob": ("cohort", "dropout_prob", _to_float),
    "cohort.onset_scale": ("cohort", "onset_scale", _to_float),
    "cohort.onset_shape": ("cohort", "onset_shape", _to_float),
    "cohort.risk_coeff": ("cohort", "risk_coeff", _to_float),
    "cohort.progression_gain": ("cohort", "progression_gain", _to_float),
    "cohort.noise_sd": ("cohort", "noise_sd", _to_float),
    "cohort.seed": ("cohort", "seed", _to_int),
    "model.hidden_dims": ("model", "hidden_dims", _to_int_tuple),
    "model.seed": ("model", "seed", _to_int),
    "train.max_epochs": ("train", "max_epochs", _to_int),
    "train.lr0": ("train", "lr0", _to_float),
    "train.lr_decay_factor": ("train", "lr_decay_factor", _to_float),
    "train.lr_decay_epochs": ("train", "lr_decay_epochs", _to_int_tuple),
    "train.weight_decay": ("train", "weight_decay", _to_float),
    "train.batch_size": ("train", "batch_size", _to_int),
    "train.seed": ("train", "seed", _to_int),
    "train.init_reg_bias_to_mean": ("train", "init_reg_bias_to_mean", _to_bool),
    "loss.lambda": ("loss", "lam", _to_float),
    "loss.epsilon": ("loss", "epsilon", _to_float),
    "loss.prob_clamp": ("loss", "prob_clamp", _to_float),
}


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines with ``#`` comments into a raw dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def build_experiment_config(kv: dict) -> ExperimentConfig:
    buckets = {"top": {}, "paths": {}, "cohort": {}, "model": {}, "train": {}, "loss": {}}
    for key, raw in kv.items():
        spec = _CONFIG_KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown config key {key!r}")
        bucket, name, conv = spec
        try:
            buckets[bucket][name] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    try:
        loss = LossConfig(**buckets["loss"])
        train = TrainConfig(loss=loss, **buckets["train"])
        cohort = CohortConfig(**buckets["cohort"])
        return ExperimentConfig(
            cohort=cohort,
            train=train,
            hidden_dims=buckets["model"].get("hidden_dims", (64, 64)),
            model_seed=buckets["model"].get("seed", 0),
            paths=buckets["paths"],
            **buckets["top"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path=None, seed=None, mode=None) -> ExperimentConfig:
    """Read a config file (defaults when ``path`` is None) and apply the
    command-line ``--seed`` / ``--mode`` overrides."""
    if path is None:
        cfg = ExperimentConfig()
    else:
        with open(path, encoding="utf-8") as fh:
            cfg = build_experiment_config(parse_config_text(fh.read()))
    if mode is not None:
        cfg = replace(cfg, mode=mode)
    if seed is not None:
        cfg = replace(
            cfg,
            cohort=replace(cfg.cohort, seed=seed),
            model_seed=seed,
            train=replace(cfg.train, seed=seed),
        )
    return cfg


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(x) -> str:
    """Lossless float-to-text: repr round-trips doubles exactly."""
    return repr(float(x))


def _fmt_bool(b) -> str:
    return "1" if b else "0"


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="")


class _Reader:
    """CSV reader that reports the file line number on every complaint."""

    def __init__(self, path, expected_header):
        self.path = path
        try:
            fh = open(path, encoding="utf-8", newline="")
        except FileNotFoundError as exc:
            raise SchemaError(f"{path}: {exc.strerror}") from exc
        with fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise SchemaError(f"{path} row 1: missing header")
        if rows[0] != expected_header:
            raise SchemaError(
                f"{path} row 1: expected header {','.join(expected_header)}, "
                f"got {','.join(rows[0])}"
            )
        self.header = rows[0]
        self.rows = rows[1:]

    def cells(self):
        for i, row in enumerate(self.rows, start=2):
            if len(row) != len(self.header):
                raise SchemaError(
                    f"{self.path} row {i}: expected {len(self.header)} fields, got {len(row)}"
                )
            yield i, row

    def floatc(self, i, value, col):
        try:
            x = float(value)
        except ValueError as exc:
            raise SchemaError(f"{self.path} row {i}: column {col}: not a number: {value!r}") from exc
        if not math.isfinite(x):
            raise SchemaError(f"{self.path} row {i}: column {col}: not a finite number: {value!r}")
        return x

    def bitc(self, i, value, col):
        if value not in ("0", "1"):
            raise SchemaError(f"{self.path} row {i}: column {col}: expected 0 or 1, got {value!r}")
        return int(value)

    def intc(self, i, value, col):
        try:
            return int(value)
        except ValueError as exc:
            raise SchemaError(f"{self.path} row {i}: column {col}: not an integer: {value!r}") from exc


PATIENTS_HEADER = ["patient_id", "is_cancer", "diagnosis_time", "scan_id", "scan_time"]
LABELS_HEADER = ["scan_id", "patient_id", "t_d", "p", "y", "right_censored"]
PREDICTIONS_HEADER = ["scan_id", "y_hat", "t_pred", "fold"]
TRUTH_HEADER = ["patient_id", "onset_time"]
KM_HEADER = ["time", "survival", "at_risk", "events"]
ROC_HEADER = ["threshold", "fpr", "tpr"]


def write_patients_csv(path, records) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PATIENTS_HEADER)
        for rec in records:
            diag = "" if rec.diagnosis_time is None else _fmt(rec.diagnosis_time)
            for sid, t in zip(effective_scan_ids(rec), rec.scan_times):
                w.writerow([rec.patient_id, _fmt_bool(rec.is_cancer), diag, sid, _fmt(t)])


def read_patients_csv(path) -> list:
    """One row per scan, patient fields repeated; rows of one patient must
    agree on is_cancer/diagnosis_time but may appear in any order."""
    r = _Reader(path, PATIENTS_HEADER)
    per_patient = {}
    for i, (pid, cancer, diag, sid, t) in r.cells():
        if not pid:
            raise SchemaError(f"{path} row {i}: empty patient_id")
        entry = per_patient.setdefault(pid, {"is_cancer": None, "diag": None, "scans": [], "row": i})
        is_cancer = bool(r.bitc(i, cancer, "is_cancer"))
        diagnosis = None if diag == "" else r.floatc(i, diag, "diagnosis_time")
        if entry["scans"] and (entry["is_cancer"] != is_cancer or entry["diag"] != diagnosis):
            raise SchemaError(
                f"{path} row {i}: patient {pid!r} contradicts its earlier rows"
            )
        entry["is_cancer"] = is_cancer
        entry["diag"] = diagnosis
        entry["scans"].append((r.floatc(i, t, "scan_time"), sid, i))
    records = []
    for pid, entry in per_patient.items():
        scans = sorted(entry["scans"])
        ids = [sid for _, sid, _ in scans]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"{path}: duplicate scan_id for patient {pid!r}")
        try:
            records.append(
                PatientRecord(
                    patient_id=pid,
                    scan_times=tuple(t for t, _, _ in scans),
                    is_cancer=entry["is_cancer"],
                    diagnosis_time=entry["diag"],
                    scan_ids=tuple(ids),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{path} row {entry['row']}: patient {pid!r}: {exc}") from exc
    return records


def write_scans_csv(path, features: dict, order) -> None:
    """Feature table in the given scan order; column count from the data."""
    dims = {len(features[sid]) for sid in order}
    if len(dims) > 1:
        raise ValueError(f"inconsistent feature lengths: {sorted(dims)}")
    d = dims.pop() if dims else 0
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scan_id"] + [f"f{j}" for j in range(d)])
        for sid in order:
            w.writerow([sid] + [_fmt(v) for v in features[sid]])


def read_scans_csv(path) -> dict:
    """scan_id -> feature vector; each vector is a row view of one matrix,
    and a NaN or inf anywhere fails with its row and column."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise SchemaError(f"{path}: {exc.strerror}") from exc
    with fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SchemaError(f"{path} row 1: missing header")
    header = rows[0]
    if len(header) < 2 or header[0] != "scan_id" or header[1:] != [f"f{j}" for j in range(len(header) - 1)]:
        raise SchemaError(f"{path} row 1: expected header scan_id,f0,...,f{{d-1}}")
    ids, seen = [], set()
    mat = np.empty((len(rows) - 1, len(header) - 1))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise SchemaError(f"{path} row {i}: expected {len(header)} fields, got {len(row)}")
        sid = row[0]
        if sid in seen:
            raise SchemaError(f"{path} row {i}: duplicate scan_id {sid!r}")
        seen.add(sid)
        ids.append(sid)
        try:
            mat[i - 2] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise SchemaError(f"{path} row {i}: not a number in feature columns") from exc
    finite = np.isfinite(mat)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise SchemaError(
            f"{path} row {r + 2}: column {header[c + 1]}: "
            f"not a finite number: {rows[r + 1][c + 1]!r}"
        )
    return dict(zip(ids, mat))


def write_truth_csv(path, onsets: dict, order) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRUTH_HEADER)
        for pid in order:
            w.writerow([pid, _fmt(onsets[pid])])


def write_labels_csv(path, labels) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(LABELS_HEADER)
        for lb in labels:
            w.writerow(
                [lb.scan_id, lb.patient_id, _fmt(lb.t_d), lb.p, lb.y, _fmt_bool(lb.right_censored)]
            )


def read_labels_csv(path) -> list:
    r = _Reader(path, LABELS_HEADER)
    labels = []
    seen = set()
    for i, (sid, pid, t_d, p, y, rc) in r.cells():
        if sid in seen:
            raise SchemaError(f"{path} row {i}: duplicate scan_id {sid!r}")
        seen.add(sid)
        labels.append(
            ScanLabel(
                scan_id=sid,
                patient_id=pid,
                t_d=r.floatc(i, t_d, "t_d"),
                p=r.bitc(i, p, "p"),
                y=r.bitc(i, y, "y"),
                right_censored=bool(r.bitc(i, rc, "right_censored")),
            )
        )
    return labels


def write_predictions_csv(path, predictions, folds) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PREDICTIONS_HEADER)
        for pr, f in zip(predictions, folds):
            w.writerow([pr.scan_id, _fmt(pr.y_hat), _fmt(pr.t_pred), f])


def read_predictions_csv(path):
    r = _Reader(path, PREDICTIONS_HEADER)
    preds, folds = [], []
    seen = set()
    for i, (sid, y_hat, t_pred, fold) in r.cells():
        if sid in seen:
            raise SchemaError(f"{path} row {i}: duplicate scan_id {sid!r}")
        seen.add(sid)
        preds.append(
            Prediction(sid, r.floatc(i, y_hat, "y_hat"), r.floatc(i, t_pred, "t_pred"))
        )
        folds.append(r.intc(i, fold, "fold"))
    return preds, folds


def write_km_csv(path, km: KMCurve) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(KM_HEADER)
        for t, s, n, d in zip(km.times, km.survival, km.n_at_risk, km.n_events):
            w.writerow([_fmt(t), _fmt(s), n, d])


def write_roc_csv(path, points) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(ROC_HEADER)
        for pt in points:
            w.writerow([_fmt(pt.threshold), _fmt(pt.fpr), _fmt(pt.tpr)])


def write_scatter_csv(path, points) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t_pred", "x_time"])
        for t_pred, x in np.asarray(points).reshape(-1, 2):
            w.writerow([_fmt(t_pred), _fmt(x)])


def write_threshold_csv(path, rows) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["threshold", "recall", "noncancer_beyond"])
        for row in rows:
            w.writerow([_fmt(row.threshold), _fmt(row.recall), _fmt(row.noncancer_beyond)])


def write_history_csv(path, history) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epoch", "train_loss", "val_loss", "val_auc", "selected"])
        for e, (tr, vl, va) in enumerate(
            zip(history.train_loss, history.val_loss, history.val_auc), start=1
        ):
            w.writerow([e, _fmt(tr), _fmt(vl), _fmt(va), _fmt_bool(e == history.selected_epoch)])


def write_folds_csv(path, assignments) -> None:
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["patient_id", "test_fold"])
        for fa in assignments:
            for pid in fa.test:
                w.writerow([pid, fa.fold])


# ---------------------------------------------------------------------------
# commands (path-level, callable without argparse)


def cmd_synth(cfg: ExperimentConfig, out_dir) -> CohortSummary:
    """Generate the cohort and write patients/scans/truth CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    records, features, onsets = generate_cohort(cfg.cohort)
    scan_order = [sid for rec in records for sid in rec.scan_ids]
    write_patients_csv(os.path.join(out_dir, "patients.csv"), records)
    write_scans_csv(os.path.join(out_dir, "scans.csv"), features, scan_order)
    write_truth_csv(
        os.path.join(out_dir, "truth.csv"), onsets, [rec.patient_id for rec in records]
    )
    return cohort_summary(records)


def cmd_label(patients_csv, labels_csv) -> int:
    """Derive per-scan labels from a patients CSV; returns the row count."""
    records = read_patients_csv(patients_csv)
    labels = [lb for rec in records for lb in derive_scan_labels(rec)]
    write_labels_csv(labels_csv, labels)
    return len(labels)


def cmd_crossval(cfg: ExperimentConfig, out_dir):
    """Patient-level k-fold cross-validation from the config's labels/scans
    paths; writes pooled predictions, per-fold histories, and the fold map."""
    for name in ("labels", "scans"):
        if name not in cfg.paths:
            raise ConfigError(f"config is missing paths.{name} (required by crossval)")
    labels = read_labels_csv(cfg.paths["labels"])
    features = read_scans_csv(cfg.paths["scans"])
    try:
        ds = build_dataset(labels, features)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if len(ds) == 0:
        raise SchemaError(f"{cfg.paths['labels']}: no scans to train on")
    mcfg = ModelConfig(
        input_dim=ds.input_dim, hidden_dims=cfg.hidden_dims, seed=cfg.model_seed
    )
    result = run_crossval(ds, mcfg, cfg.train, cfg.k_folds)
    os.makedirs(out_dir, exist_ok=True)
    write_predictions_csv(
        os.path.join(out_dir, "predictions.csv"), result.predictions, result.prediction_folds
    )
    write_folds_csv(os.path.join(out_dir, "folds.csv"), result.folds)
    for fa, hist in zip(result.folds, result.histories):
        write_history_csv(os.path.join(out_dir, f"history_fold{fa.fold}.csv"), hist)
    return result


def cmd_eval(
    predictions_csv,
    labels_csv,
    out_dir,
    thresholds=(1.0, 2.0, 3.0, 4.0, 5.0),
    predictions_b_csv=None,
    operating_point: float = 0.5,
) -> EvalReport:
    """Full evaluation battery over pooled predictions; writes the report
    plus roc/km/scatter/threshold CSVs."""
    preds, _ = read_predictions_csv(predictions_csv)
    labels = read_labels_csv(labels_csv)
    preds_b = None
    if predictions_b_csv is not None:
        preds_b, _ = read_predictions_csv(predictions_b_csv)
    report = evaluate(
        preds, labels, thresholds, operating_point=operating_point, predictions_b=preds_b
    )
    os.makedirs(out_dir, exist_ok=True)
    with _open_out(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(report.to_text())
    write_roc_csv(os.path.join(out_dir, "roc.csv"), report.roc_points)
    write_km_csv(os.path.join(out_dir, "km.csv"), report.km)
    write_scatter_csv(os.path.join(out_dir, "scatter_cancer.csv"), report.cancer_points)
    write_scatter_csv(os.path.join(out_dir, "scatter_noncancer.csv"), report.noncancer_points)
    write_threshold_csv(os.path.join(out_dir, "threshold_table.csv"), report.threshold_rows)
    return report


def cmd_km(labels_csv, out_csv) -> tuple[KMCurve, int]:
    """Kaplan-Meier fit of the label distribution (t_d with event p);
    post-biopsy scans (negative t_d) are excluded and counted."""
    labels = read_labels_csv(labels_csv)
    kept = [(lb.t_d, lb.p) for lb in labels if lb.t_d >= 0]
    if not kept:
        raise SchemaError(f"{labels_csv}: no scans with non-negative t_d")
    times, events = zip(*kept)
    km = km_estimate(times, events)
    write_km_csv(out_csv, km)
    return km, len(labels) - len(kept)


def cmd_losscheck(seed: int = 0, n: int = 500):
    """Self-verification of the joint objective: recompute loss values from
    the branch definitions, and check both analytic gradients against
    central finite differences. Returns (ok, report lines)."""
    rng = np.random.default_rng(seed)
    lines = []
    ok = True

    n_val = 0
    worst_val = 0.0
    while n_val < 2000:
        t_pred = rng.uniform(-5, 10)
        t_d = rng.uniform(-5, 10)
        p = int(rng.integers(0, 2))
        eps = rng.uniform(1e-3, 3.0)
        if p == 0:
            u = t_pred - t_d - eps
            direct = u * u if u < 0 else 0.0
        else:
            v = t_pred - t_d + eps
            direct = v * v if (t_d > eps or v > 0) else 0.0
        worst_val = max(worst_val, abs(crl(t_pred, t_d, p, eps) - direct))
        n_val += 1
    val_ok = worst_val <= 1e-12
    ok &= val_ok
    lines.append(
        f"crl three-branch recomputation: {'ok' if val_ok else 'FAIL'} "
        f"(2000 samples, worst abs err {worst_val:.3g})"
    )

    h = 1e-5
    n_done = 0
    worst = 0.0
    while n_done < n:
        t_pred = rng.uniform(-5, 10)
        t_d = rng.uniform(-5, 10)
        p = int(rng.integers(0, 2))
        eps = rng.uniform(0.05, 3.0)
        kink = t_d + eps if p == 0 else t_d - eps
        if p == 1 and t_d > eps:
            kink = None
        if kink is not None and abs(t_pred - kink) < 1e-3:
            continue
        fd = (crl(t_pred + h, t_d, p, eps) - crl(t_pred - h, t_d, p, eps)) / (2 * h)
        an = crl_grad(t_pred, t_d, p, eps)
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
        n_done += 1
    grad_ok = worst <= 1e-5
    ok &= grad_ok
    lines.append(
        f"crl_grad vs central differences: {'ok' if grad_ok else 'FAIL'} "
        f"({n} samples, worst rel err {worst:.3g})"
    )

    from scipy.special import expit

    worst = 0.0
    for _ in range(n):
        logit = rng.uniform(-10, 10)
        y = int(rng.integers(0, 2))
        fd = (cel(float(expit(logit + h)), y) - cel(float(expit(logit - h)), y)) / (2 * h)
        an = cel_grad_logit(logit, y)
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
    cel_ok = worst <= 1e-5
    ok &= cel_ok
    lines.append(
        f"cel_grad_logit vs central differences: {'ok' if cel_ok else 'FAIL'} "
        f"({n} samples, worst rel err {worst:.3g})"
    )

    cfg = LossConfig(lam=0.5, epsilon=1.0)
    worst = 0.0
    for i in range(n):
        pred = Prediction(f"s{i}", float(rng.uniform(0.01, 0.99)), float(rng.uniform(-5, 10)))
        label = ScanLabel(
            f"s{i}", "p", float(rng.uniform(-5, 10)), int(rng.integers(0, 2)),
            int(rng.integers(0, 2)), False,
        )
        direct = cfg.lam * crl(pred.t_pred, label.t_d, label.p, cfg.epsilon) + cel(
            pred.y_hat, label.y, cfg.prob_clamp
        )
        worst = max(worst, abs(joint_loss(pred, label, cfg) - direct))
    joint_ok = worst <= 1e-12
    ok &= joint_ok
    lines.append(
        f"joint composition lambda*crl + cel: {'ok' if joint_ok else 'FAIL'} "
        f"({n} samples, worst abs err {worst:.3g})"
    )

    lines.append("losscheck: PASS" if ok else "losscheck: FAIL")
    return bool(ok), lines


# ---------------------------------------------------------------------------
# argparse wiring


def _summary_lines(s: CohortSummary) -> list:
    per = " ".join(f"{k}:{v}" for k, v in s.scans_per_patient.items())
    return [
        f"patients: {s.n_patients}",
        f"scans: {s.n_scans}",
        f"cancer patients: {s.n_cancer_patients}",
        f"malignant scans: {s.n_malignant_scans}",
        f"censored fraction: {s.censored_fraction:.4f}",
        f"scans per patient: {per}",
    ]


def _run_synth(args) -> int:
    cfg = load_experiment_config(args.config, args.seed, args.mode)
    summary = cmd_synth(cfg, args.out)
    for line in _summary_lines(summary):
        print(line)
    return 0


def _run_label(args) -> int:
    n = cmd_label(args.patients_csv, args.out)
    print(f"wrote {n} label rows to {args.out}")
    return 0


def _run_crossval(args) -> int:
    cfg = load_experiment_config(args.config, args.seed, args.mode)
    result = cmd_crossval(cfg, args.out)
    for fa, hist in zip(result.folds, result.histories):
        print(
            f"fold {fa.fold}: {len(fa.train)}/{len(fa.val)}/{len(fa.test)} "
            f"train/val/test patients, selected epoch {hist.selected_epoch}, "
            f"val loss {hist.val_loss[hist.selected_epoch - 1]:.6f}"
        )
    print(f"wrote {len(result.predictions)} pooled predictions to {args.out}")
    return 0


def _run_eval(args) -> int:
    cfg = load_experiment_config(args.config, None, None)
    report = cmd_eval(
        args.predictions_csv,
        args.labels_csv,
        args.out,
        thresholds=cfg.thresholds,
        predictions_b_csv=args.predictions_b,
    )
    print(f"auc: {report.auc:.6f}")
    if report.mcnemar_result is not None:
        m = report.mcnemar_result
        print(f"mcnemar: b={m.b} c={m.c} p={m.p_value:.6g} ({m.method})")
    print(f"wrote report and csv files to {args.out}")
    return 0


def _run_km(args) -> int:
    km, excluded = cmd_km(args.labels_csv, args.out)
    print(f"km steps: {len(km.times)}")
    if excluded:
        print(f"excluded post-biopsy scans: {excluded}")
    print(f"wrote curve to {args.out}")
    return 0


def _run_losscheck(args) -> int:
    ok, lines = cmd_losscheck(seed=args.seed if args.seed is not None else 0)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfpt",
        description="Censored-time cohort simulation, training, and evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("--config", default=None, help="experiment config file (flat dotted keys)")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--seed", type=int, default=None, help="override every seed in the config")
        p.add_argument(
            "--mode", choices=("single_task", "multi_task"), default=None,
            help="override the config's objective mode",
        )

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    common(p, "output directory for patients/scans/truth CSVs")
    p.set_defaults(func=_run_synth)

    p = sub.add_parser("label", help="derive per-scan labels from a patients CSV")
    p.add_argument("patients_csv")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.set_defaults(func=_run_label)

    p = sub.add_parser("crossval", help="patient-level k-fold training")
    common(p, "output directory for predictions/folds/history CSVs")
    p.set_defaults(func=_run_crossval)

    p = sub.add_parser("eval", help="evaluation report from pooled predictions")
    p.add_argument("predictions_csv")
    p.add_argument("labels_csv")
    p.add_argument("--predictions-b", default=None, help="second prediction set for McNemar")
    p.add_argument("--config", default=None, help="config supplying eval thresholds")
    p.add_argument("--out", required=True, help="output directory for report files")
    p.set_defaults(func=_run_eval)

    p = sub.add_parser("km", help="Kaplan-Meier curve of a labels CSV")
    p.add_argument("labels_csv")
    p.add_argument("--out", required=True, help="KM CSV to write")
    p.set_defaults(func=_run_km)

    p = sub.add_parser("losscheck", help="loss and gradient self-verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_run_losscheck)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error:{exc.token}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
