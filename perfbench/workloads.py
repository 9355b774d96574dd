"""The benchmark workloads and the checks on their outputs.

Each workload writes its inputs in :meth:`Workload.setup`, runs one
operation through ``cfpt.cli.main`` (plus, for cohort-io, the crossval
loader) in :meth:`Workload.run`, and checks that operation's outputs in
:meth:`Workload.check`. Only ``run`` is timed; ``prepare`` clears the
previous outputs first, so a stage that writes nothing is caught. The
workload seed becomes the cohort, model and train seed of the generated
config; cfpt sees nothing but the files written here.
"""

import contextlib
import csv
import hashlib
import io
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit
from scipy.stats import mannwhitneyu

from spans import data_rows

PREDICTIONS_HEADER = ["scan_id", "y_hat", "t_pred", "fold"]
LABELS_HEADER = ["scan_id", "patient_id", "t_d", "p", "y", "right_censored"]
HISTORY_HEADER = ["epoch", "train_loss", "val_loss", "val_auc", "selected"]
KM_HEADER = ["time", "survival", "at_risk", "events"]
BASE_CONFIG = "configs/reference.cfg"  # both workloads use the reference cohort


class CheckFailed(Exception):
    """An operation exited nonzero or produced wrong output."""


@dataclass
class OpResult:
    """What one checked operation produced."""

    digest: str  # sha256 of the workload's primary output file
    auc: float  # pooled AUC, from the benchmark's own Mann-Whitney oracle
    epochs_run: int = 0
    selected_epochs: int = 0
    train_scan_epochs: int = 0


@dataclass
class Labels:
    scan_ids: list
    patient_ids: list
    y: np.ndarray


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_table(path, header) -> list:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path}: header {rows[:1]} is not {header}")
    return rows[1:]


def read_labels(path) -> Labels:
    rows = read_table(path, LABELS_HEADER)
    return Labels([r[0] for r in rows], [r[1] for r in rows],
                  np.array([int(r[4]) for r in rows]))


def oracle_auc(scores, y) -> float:
    pos, neg = scores[y == 1], scores[y == 0]
    return float(mannwhitneyu(pos, neg).statistic) / (len(pos) * len(neg))


def check_scan_count(data_dir, labels: Labels):
    """synth wrote one patients row and one scans row per scan; label must
    have written one label per scan."""
    counts = {name: data_rows(Path(data_dir) / name) for name in ("patients.csv", "scans.csv")}
    if set(counts.values()) != {len(labels.scan_ids)}:
        raise CheckFailed(f"{len(labels.scan_ids)} labels for scan rows {counts}")


def check_predictions(path, labels: Labels, k: int) -> float:
    """Predictions cover every labelled scan once, are finite, have y_hat in
    [0, 1] and a fold in [0, k); returns their pooled AUC."""
    rows = read_table(path, PREDICTIONS_HEADER)
    by_id = {r[0]: r for r in rows}
    if len(rows) != len(labels.scan_ids) or set(by_id) != set(labels.scan_ids):
        raise CheckFailed(
            f"{path}: {len(rows)} predictions for {len(labels.scan_ids)} scans, "
            "or scan ids differ")
    try:
        vals = np.array([[float(by_id[s][1]), float(by_id[s][2])] for s in labels.scan_ids])
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if not np.isfinite(vals).all():
        raise CheckFailed(f"{path}: non-finite prediction")
    if ((vals[:, 0] < 0) | (vals[:, 0] > 1)).any():
        raise CheckFailed(f"{path}: y_hat outside [0, 1]")
    if {r[3] for r in rows} - {str(f) for f in range(k)}:
        raise CheckFailed(f"{path}: fold outside [0, {k})")
    return oracle_auc(vals[:, 0], labels.y)


def check_eval_auc(stdout: str, auc: float):
    """``cfpt eval`` prints the AUC to 6 decimals; it must agree with the oracle."""
    found = re.search(r"^auc: ([0-9.]+)$", stdout, re.M)
    if found is None or abs(float(found.group(1)) - auc) > 6e-7:
        raise CheckFailed(f"eval AUC {found and found.group(1)} != oracle {auc:.9f}")


def read_histories(out_dir, k: int) -> list:
    """(epochs run, selected epoch or 0) for each fold's history file."""
    out = []
    for fold in range(k):
        rows = read_table(Path(out_dir) / f"history_fold{fold}.csv", HISTORY_HEADER)
        selected = [int(r[0]) for r in rows if r[4] == "1"]
        out.append((len(rows), selected[0] if selected else 0))
    return out


def cli(cfpt, *argv) -> str:
    """``cfpt.cli.main(argv)`` with its output captured; returns stdout."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cfpt.cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"cfpt {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


@dataclass
class Workload:
    """One workload at one seed, living in its own work directory."""

    cfpt: object
    root: Path
    work: Path
    seed: int
    tiny: bool = False
    kv: dict = field(default_factory=dict)  # the generated config
    outputs: list = field(default_factory=list)  # directories one operation writes
    stages: dict = field(default_factory=dict)  # stage -> seconds, last run
    sizes: dict = field(default_factory=dict)

    name = ""
    primary = ""  # output file whose sha256 must repeat across operations

    def config(self) -> dict:
        return {}

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """Remove the outputs of the previous operation (untimed)."""
        for d in self.outputs:
            shutil.rmtree(d, ignore_errors=True)

    def run(self):
        raise NotImplementedError

    def check(self) -> OpResult:
        raise NotImplementedError

    def write_config(self, path, data_dir):
        kv = self.cfpt.cli.parse_config_text((self.root / BASE_CONFIG).read_text())
        kv.update({
            "paths.labels": data_dir / "labels.csv",
            "paths.scans": data_dir / "scans.csv",
            "cohort.seed": self.seed,
            "model.seed": self.seed,
            "train.seed": self.seed,
        })
        kv.update(self.config())
        path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
        self.kv = kv

    def stage(self, name, *argv) -> str:
        t = time.perf_counter()
        out = cli(self.cfpt, *argv)
        self.stages[name] = time.perf_counter() - t
        return out

    def record_sizes(self, labels: Labels):
        self.sizes = {
            "patients": len(set(labels.patient_ids)),
            "scans": len(labels.scan_ids),
            # the cohort's features plus the progression channel
            "feature_dim": int(self.kv["cohort.feature_dim"]) + 1,
        }


class ReferenceTrain(Workload):
    name = "reference-train"
    primary = "predictions.csv"
    epochs = 4

    def config(self):
        if self.tiny:
            return {"cohort.n_patients": 60, "train.max_epochs": 2}
        return {"train.max_epochs": self.epochs}

    def setup(self):
        data = self.work / "data"
        self.cfg = self.work / "reference-train.cfg"
        self.out = self.work / "run"
        self.write_config(self.cfg, data)
        cli(self.cfpt, "synth", "--config", self.cfg, "--out", data)
        cli(self.cfpt, "label", data / "patients.csv", "--out", data / "labels.csv")
        self.labels = read_labels(data / "labels.csv")
        check_scan_count(data, self.labels)
        self.k = int(self.kv["k_folds"])
        self.record_sizes(self.labels)
        self.sizes.update({
            "folds": self.k,
            "train_scans_per_fold": self.train_scans_per_fold(),
            "epochs": int(self.kv["train.max_epochs"]),
            "hidden_dims": self.kv["model.hidden_dims"],
            "batch_size": int(self.kv["train.batch_size"]),
        })
        self.outputs = [self.out]

    def train_scans_per_fold(self) -> list:
        """Training scans in each fold, from cfpt's own patient split."""
        pids = self.labels.patient_ids
        folds = self.cfpt.model.crossval_split(list(dict.fromkeys(pids)), self.k, self.seed)
        return [sum(pid in train for pid in pids) for train in (set(fa.train) for fa in folds)]

    def run(self):
        self.stage("crossval", "crossval", "--config", self.cfg, "--out", self.out)

    def check(self):
        auc = check_predictions(self.out / "predictions.csv", self.labels, self.k)
        hist = read_histories(self.out, self.k)
        return OpResult(
            digest=sha256(self.out / "predictions.csv"),
            auc=auc,
            epochs_run=sum(e for e, _ in hist),
            selected_epochs=sum(s for _, s in hist),
            train_scan_epochs=sum(
                n * e for n, (e, _) in zip(self.sizes["train_scans_per_fold"], hist)),
        )


class CohortIo(Workload):
    name = "cohort-io"
    primary = "labels.csv"
    n_patients = 5000

    def config(self):
        return {"cohort.n_patients": 80 if self.tiny else self.n_patients}

    def setup(self):
        """Write the config, then a seeded predictions file for the cohort's
        scans, scored with noise around each scan's label."""
        self.cfg = self.work / "cohort-io.cfg"
        self.data = self.work / "data"
        self.ref = self.work / "reference"
        self.predictions = self.work / "predictions.csv"
        self.write_config(self.cfg, self.data)
        cli(self.cfpt, "synth", "--config", self.cfg, "--out", self.ref)
        cli(self.cfpt, "label", self.ref / "patients.csv", "--out", self.ref / "labels.csv")
        rows = read_table(self.ref / "labels.csv", LABELS_HEADER)
        rng = np.random.default_rng([self.seed, 1])
        y = np.array([int(r[4]) for r in rows])
        y_hat = expit(1.5 * (2 * y - 1) + rng.normal(0.0, 1.5, len(rows)))
        t_pred = np.array([float(r[2]) for r in rows]) + rng.normal(0.0, 1.0, len(rows))
        with open(self.predictions, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(PREDICTIONS_HEADER)
            for i, r in enumerate(rows):
                w.writerow([r[0], repr(float(y_hat[i])), repr(float(t_pred[i])), i % 5])
        self.labels_digest = sha256(self.ref / "labels.csv")
        self.labels = Labels([r[0] for r in rows], [r[1] for r in rows], y)
        check_scan_count(self.ref, self.labels)
        self.auc = oracle_auc(y_hat, y)
        self.record_sizes(self.labels)
        self.outputs = [self.data]

    def run(self):
        data, cfpt = self.data, self.cfpt
        self.stage("synth", "synth", "--config", self.cfg, "--out", data)
        self.stage("label", "label", data / "patients.csv", "--out", data / "labels.csv")
        self.stage("km", "km", data / "labels.csv", "--out", data / "km.csv")
        self.eval_stdout = self.stage(
            "eval", "eval", self.predictions, data / "labels.csv",
            "--config", self.cfg, "--out", data / "report")
        t = time.perf_counter()
        self.dataset = cfpt.model.build_dataset(
            cfpt.cli.read_labels_csv(data / "labels.csv"),
            cfpt.cli.read_scans_csv(data / "scans.csv"))
        self.stages["load"] = time.perf_counter() - t

    def check(self):
        labels_csv = self.data / "labels.csv"
        if sha256(labels_csv) != self.labels_digest:
            raise CheckFailed(f"{labels_csv} differs from the set-up labels")
        check_scan_count(self.data, self.labels)
        ds = self.dataset
        if list(ds.scan_ids) != self.labels.scan_ids:
            raise CheckFailed("build_dataset scan order differs from labels.csv")
        if ds.features.shape != (self.sizes["scans"], self.sizes["feature_dim"]) \
                or not np.isfinite(ds.features).all():
            raise CheckFailed(f"dataset features have shape {ds.features.shape} "
                              "or non-finite values")
        km = np.array([[float(v) for v in r[:2]]
                       for r in read_table(self.data / "km.csv", KM_HEADER)])
        if len(km) == 0 or (km[:, 1] < 0).any() or (km[:, 1] > 1).any() \
                or (np.diff(km[:, 1]) > 0).any():
            raise CheckFailed("km.csv survival is empty, outside [0, 1] or increasing")
        check_eval_auc(self.eval_stdout, self.auc)
        return OpResult(digest=sha256(labels_csv), auc=self.auc)


WORKLOADS = {w.name: w for w in (ReferenceTrain, CohortIo)}
