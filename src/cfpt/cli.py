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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter

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
        if not all(t > 0 for t in self.thresholds):
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


def _to_int_tuple(s: str) -> tuple[int, ...]:
    s = s.strip()
    return tuple(int(part) for part in s.split(",")) if s else ()


def _to_float_tuple(s: str) -> tuple[float, ...]:
    s = s.strip()
    return tuple(float(part) for part in s.split(",")) if s else ()


# key -> (bucket, constructor kwarg, converter)
_CONFIG_KEYS = {
    "mode": ("top", "mode", str),
    "k_folds": ("top", "k_folds", int),
    "thresholds": ("top", "thresholds", _to_float_tuple),
    "paths.labels": ("paths", "labels", str),
    "paths.scans": ("paths", "scans", str),
    "cohort.n_patients": ("cohort", "n_patients", int),
    "cohort.cancer_fraction_target": ("cohort", "cancer_fraction_target", float),
    "cohort.feature_dim": ("cohort", "feature_dim", int),
    "cohort.scan_interval": ("cohort", "scan_interval", float),
    "cohort.study_horizon": ("cohort", "study_horizon", float),
    "cohort.dropout_prob": ("cohort", "dropout_prob", float),
    "cohort.onset_scale": ("cohort", "onset_scale", float),
    "cohort.onset_shape": ("cohort", "onset_shape", float),
    "cohort.risk_coeff": ("cohort", "risk_coeff", float),
    "cohort.progression_gain": ("cohort", "progression_gain", float),
    "cohort.noise_sd": ("cohort", "noise_sd", float),
    "cohort.seed": ("cohort", "seed", int),
    "model.hidden_dims": ("top", "hidden_dims", _to_int_tuple),
    "model.seed": ("top", "model_seed", int),
    "train.max_epochs": ("train", "max_epochs", int),
    "train.lr0": ("train", "lr0", float),
    "train.lr_decay_factor": ("train", "lr_decay_factor", float),
    "train.lr_decay_epochs": ("train", "lr_decay_epochs", _to_int_tuple),
    "train.weight_decay": ("train", "weight_decay", float),
    "train.batch_size": ("train", "batch_size", int),
    "train.seed": ("train", "seed", int),
    "loss.lambda": ("loss", "lam", float),
    "loss.epsilon": ("loss", "epsilon", float),
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
    buckets = {"top": {}, "paths": {}, "cohort": {}, "train": {}, "loss": {}}
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
            cohort=cohort, train=train, paths=buckets["paths"], **buckets["top"]
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
# CSV files
#
# Each file is its header and a kind per column:
#   str     any text
#   key     text that appears once in the file
#   float   a finite number, written with repr so it round-trips exactly
#   float?  empty (None) or a finite number
#   bit     0 or 1
#   int     an integer


def _unique(cells):
    if len(set(cells)) != len(cells):
        raise ValueError
    return cells


def _floats(cells):
    out = list(map(float, cells))
    if not all(map(math.isfinite, out)):
        raise ValueError
    return out


def _optional_floats(cells):
    out = [None if c == "" else float(c) for c in cells]
    # filter(None, ...) skips the Nones, and the 0.0s, which are finite
    if not all(map(math.isfinite, filter(None, out))):
        raise ValueError
    return out


# kind -> (parse a column of cells or raise ValueError, complaint about a bad cell)
_PARSE = {
    "str": (lambda cells: cells, None),
    "key": (_unique, "duplicate {!r}"),
    "float": (_floats, "not a finite number: {!r}"),
    "float?": (_optional_floats, "neither empty nor a finite number: {!r}"),
    "bit": (lambda cells: list(map(("0", "1").index, cells)), "expected 0 or 1, got {!r}"),
    "int": (lambda cells: list(map(int, cells)), "not an integer: {!r}"),
}

# kind -> column of values to column of cells
_FORMAT = {
    "str": lambda values: values,
    "key": lambda values: values,
    "float": lambda values: map(repr, map(float, values)),
    "float?": lambda values: ["" if v is None else repr(float(v)) for v in values],
    "bit": lambda values: map(("0", "1").__getitem__, values),
    "int": lambda values: map(str, map(int, values)),
}

_PATIENTS = {
    "patient_id": "str", "is_cancer": "bit", "diagnosis_time": "float?",
    "scan_id": "key", "scan_time": "float",
}
_LABELS = {
    "scan_id": "key", "patient_id": "str", "t_d": "float", "p": "bit", "y": "bit",
    "right_censored": "bit",
}
_PREDICTIONS = {"scan_id": "key", "y_hat": "float", "t_pred": "float", "fold": "int"}
_TRUTH = {"patient_id": "str", "onset_time": "float"}
_KM = {"time": "float", "survival": "float", "at_risk": "int", "events": "int"}
_ROC = {"threshold": "float", "fpr": "float", "tpr": "float"}
_SCATTER = {"t_pred": "float", "x_time": "float"}
_THRESHOLDS = {"threshold": "float", "recall": "float", "noncancer_beyond": "float"}
_HISTORY = {
    "epoch": "int", "train_loss": "float", "val_loss": "float", "val_auc": "float",
    "selected": "bit",
}
_FOLDS = {"patient_id": "str", "test_fold": "int"}


def _parse_column(path, name, kind, cells):
    parse, complaint = _PARSE[kind]
    try:
        return parse(cells)
    except ValueError:
        pass
    # a column's check fails on a prefix of it exactly when the prefix holds
    # a bad cell, so the shortest failing prefix ends at the first one
    good, bad = 0, len(cells)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse(cells[:mid])
            good = mid
        except ValueError:
            bad = mid
    raise SchemaError(f"{path} row {bad + 1}: column {name}: " + complaint.format(cells[bad - 1]))


def _read_csv(path, schema) -> list:
    """The columns of a CSV file whose header is ``schema``'s names, each
    parsed by its kind; a bad row or cell fails naming its row and column."""
    header = list(schema)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        rows = list(reader)
    if got is None:
        raise SchemaError(f"{path} row 1: missing header")
    if got != header:
        raise SchemaError(f"{path} row 1: expected header {','.join(header)}, got {','.join(got)}")
    if set(map(len, rows)) - {len(header)}:
        i, row = next((i, r) for i, r in enumerate(rows, 2) if len(r) != len(header))
        raise SchemaError(f"{path} row {i}: expected {len(header)} fields, got {len(row)}")
    return [
        _parse_column(path, name, kind, list(map(itemgetter(j), rows)))
        for j, (name, kind) in enumerate(schema.items())
    ]


def _write_csv(path, schema, columns) -> None:
    """Write ``columns`` of values, one per column of ``schema``, under its header."""
    cells = (_FORMAT[kind](values) for kind, values in zip(schema.values(), columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(schema)
        w.writerows(zip(*cells))


def _fields(items, names) -> list:
    """One column per attribute name: the named attribute of each item."""
    items = list(items)
    return [map(attrgetter(name), items) for name in names]


def write_patients_csv(path, records) -> None:
    rows = [
        (rec.patient_id, rec.is_cancer, rec.diagnosis_time, sid, t)
        for rec in records
        for sid, t in zip(effective_scan_ids(rec), rec.scan_times)
    ]
    _write_csv(path, _PATIENTS, [map(itemgetter(j), rows) for j in range(len(_PATIENTS))])


def read_patients_csv(path) -> list:
    """One row per scan, patient fields repeated; rows of one patient must
    agree on is_cancer/diagnosis_time but may appear in any order."""
    columns = _read_csv(path, _PATIENTS)
    if "" in columns[0]:
        raise SchemaError(f"{path} row {columns[0].index('') + 2}: empty patient_id")
    per_patient = {}
    for i, (pid, cancer, diag, sid, t) in enumerate(zip(*columns), start=2):
        entry = per_patient.get(pid)
        if entry is None:
            entry = per_patient[pid] = (cancer, diag, [])
        elif entry[0] != cancer or entry[1] != diag:
            raise SchemaError(f"{path} row {i}: patient {pid!r} contradicts its earlier rows")
        entry[2].append((t, sid))
    records = []
    for pid, (cancer, diag, scans) in per_patient.items():
        scans.sort()
        records.append(PatientRecord(
            patient_id=pid,
            scan_times=tuple(t for t, _ in scans),
            is_cancer=bool(cancer),
            diagnosis_time=diag,
            scan_ids=tuple(sid for _, sid in scans),
        ))
    return records


def write_scans_csv(path, features: dict, order) -> None:
    """Feature table in the given scan order; column count from the data."""
    vectors = [features[sid] for sid in order]
    dims = set(map(len, vectors))
    if len(dims) > 1:
        raise ValueError(f"inconsistent feature lengths: {sorted(dims)}")
    d = dims.pop() if dims else 0
    schema = {"scan_id": "key", **{f"f{j}": "float" for j in range(d)}}
    _write_csv(path, schema, [order, *(map(itemgetter(j), vectors) for j in range(d))])


def read_scans_csv(path) -> dict:
    """scan_id -> feature vector; each vector is a row view of one matrix,
    and a NaN or inf anywhere fails with its row and column."""
    with open(path, encoding="utf-8", newline="") as fh:
        width = len(next(csv.reader(fh), ()))
    names = [f"f{j}" for j in range(max(width - 1, 1))]
    ids, *columns = _read_csv(path, {"scan_id": "key", **dict.fromkeys(names, "str")})
    # parsed a column at a time, so one column of Python floats is alive at once
    mat = np.empty((len(ids), len(names)))
    for j, (name, cells) in enumerate(zip(names, columns)):
        mat[:, j] = _parse_column(path, name, "float", cells)
    return dict(zip(ids, mat))


def write_truth_csv(path, onsets: dict, order) -> None:
    order = list(order)
    _write_csv(path, _TRUTH, [order, [onsets[pid] for pid in order]])


def write_labels_csv(path, labels) -> None:
    _write_csv(path, _LABELS, _fields(labels, _LABELS))


def read_labels_csv(path) -> list:
    sid, pid, t_d, p, y, rc = _read_csv(path, _LABELS)
    return list(map(ScanLabel, sid, pid, t_d, p, y, map(bool, rc)))


def write_predictions_csv(path, predictions, folds) -> None:
    _write_csv(path, _PREDICTIONS, [*_fields(predictions, ("scan_id", "y_hat", "t_pred")), folds])


def read_predictions_csv(path):
    sid, y_hat, t_pred, folds = _read_csv(path, _PREDICTIONS)
    return list(map(Prediction, sid, y_hat, t_pred)), folds


def write_km_csv(path, km: KMCurve) -> None:
    _write_csv(path, _KM, [km.times, km.survival, km.n_at_risk, km.n_events])


def write_roc_csv(path, points) -> None:
    _write_csv(path, _ROC, points.T.tolist())


def write_scatter_csv(path, points) -> None:
    _write_csv(path, _SCATTER, np.asarray(points).reshape(-1, 2).T.tolist())


def write_threshold_csv(path, rows) -> None:
    _write_csv(path, _THRESHOLDS, _fields(rows, _THRESHOLDS))


def write_history_csv(path, history) -> None:
    epochs = range(1, len(history.train_loss) + 1)
    _write_csv(path, _HISTORY, [
        epochs, history.train_loss, history.val_loss, history.val_auc,
        [e == history.selected_epoch for e in epochs],
    ])


def write_folds_csv(path, assignments) -> None:
    assignments = list(assignments)
    _write_csv(path, _FOLDS, [
        [pid for fa in assignments for pid in fa.test],
        [fa.fold for fa in assignments for _ in fa.test],
    ])


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
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8", newline="") as fh:
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
        direct = cfg.lam * crl(pred.t_pred, label.t_d, label.p, cfg.epsilon)
        direct += cel(pred.y_hat, label.y)
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
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:  # a crossval worker process died
        print(f"error:worker: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
