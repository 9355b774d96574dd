"""File-based experiment pipeline: cohort synthesis, label derivation,
cross-validated training, and evaluation, glued together by flat CSV files
so every stage stays inspectable and diff-able.

Subcommands::

    cfpt synth     --config exp.cfg --out DIR       cohort -> patients/scans/truth CSVs
    cfpt label     PATIENTS_CSV --out LABELS_CSV    derive per-scan labels
    cfpt crossval  --config exp.cfg --out DIR       pooled out-of-fold predictions
    cfpt eval      PREDICTIONS LABELS --out DIR     report + roc/km/scatter CSVs
    cfpt km        LABELS_CSV --out KM_CSV          survival curve of the labels

Experiment configs are flat text files of dotted keys (``train.lr0 = 1e-3``),
``#`` comments, and nothing else; unknown keys are rejected. All floats are
written with ``repr`` so a rerun with the same config is byte-identical.
Errors print a single ``error:<class>: message`` line and exit nonzero.

Every per-scan file is read and written as a column table, never as an
object per row: the cohort as a :class:`~cfpt.labels.PatientTable`, labels
as a :class:`~cfpt.labels.LabelTable`, predictions as a
:class:`~cfpt.model.PredictionTable`, and scan features as a
``(scan_ids, matrix)`` pair.
"""

import argparse
import csv
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .labels import LabelTable, PatientTable, contract_break, derive_scan_labels, outcome_disagrees
from .losses import LossConfig
from .metrics import THRESHOLDS, EvalReport, KMCurve, evaluate, km_estimate
from .model import (
    ModelConfig, PredictionTable, TrainConfig, _feature_matrix, build_dataset, run_crossval,
)
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
    thresholds: tuple[float, ...] = THRESHOLDS
    cohort: CohortConfig = field(default_factory=CohortConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
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


def _to_tuple(item):
    """The converter of comma-separated text to a tuple of ``item``s."""
    return lambda s: tuple(map(item, s.split(","))) if s.strip() else ()


# field type -> converter of a setting's text
_CONVERTERS = {
    int: int, float: float, str: str,
    tuple[int, ...]: _to_tuple(int), tuple[float, ...]: _to_tuple(float),
}


# fields that hold a nested config, each one a bucket of its own
_NESTED = ("paths", "cohort", "model", "train", "loss")


def _section_keys(section, cls) -> dict:
    """A key per field of ``cls`` but those holding a nested config, named
    ``section.field``, or ``field`` for the ``top`` section; the field
    ``lam`` is the key ``lambda``, a Python keyword."""
    prefix = "" if section == "top" else f"{section}."
    return {
        prefix + ("lambda" if f.name == "lam" else f.name):
            (section, f.name, _CONVERTERS[f.type])
        for f in fields(cls) if f.name not in _NESTED
    }


# key -> (bucket, constructor kwarg, converter)
_CONFIG_KEYS = {
    **_section_keys("top", ExperimentConfig),
    "paths.labels": ("paths", "labels", str),
    "paths.scans": ("paths", "scans", str),
    **_section_keys("cohort", CohortConfig),
    **_section_keys("model", ModelConfig),
    **_section_keys("train", TrainConfig),
    **_section_keys("loss", LossConfig),
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
    buckets = {"top": {}, **{name: {} for name in _NESTED}}
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
        return ExperimentConfig(
            cohort=CohortConfig(**buckets["cohort"]), model=ModelConfig(**buckets["model"]),
            train=train, paths=buckets["paths"], **buckets["top"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path=None, seed=None, mode=None) -> ExperimentConfig:
    """Read a config file (defaults when ``path`` is None) with the
    command-line ``--seed`` / ``--mode`` overrides in place of its keys."""
    kv = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            kv = parse_config_text(fh.read())
    if mode is not None:
        kv["mode"] = mode
    if seed is not None:
        kv.update({key: str(seed) for key in _CONFIG_KEYS if key.endswith(".seed")})
    return build_experiment_config(kv)


# ---------------------------------------------------------------------------
# CSV files
#
# A file is a header line and a line per row, its cells joined by commas; a
# text cell holding a comma, quote, CR or LF is quoted, its quotes doubled.
# Each file is its header and a kind per column:
#   str     any text
#   key     text that appears once in the file
#   float   a finite number, written with repr so it round-trips exactly
#   float?  empty (NaN) or a finite number
#   prob    a float in [0, 1]
#   bit     0 or 1
#   int     an integer
#   index   an integer >= 0
# A numeric column is read into a numpy array, each cell parsed by float()
# or int(). Float columns repeat their values (a patient's features on each
# of its scans), so a block's floats are formatted once per bit pattern.
# Files are read and written a block of rows at a time, so the cells of one
# block, not of the whole file, are held at once.

_ROWS = 2048  # rows per block


def _floats(cells, optional=False):
    """The finite floats of ``cells`` as a float64 array; an empty cell
    reads as NaN when ``optional``."""
    out = np.array([c or "nan" for c in cells] if optional else cells, dtype=np.float64)
    bad = ~np.isfinite(out)
    if optional:
        bad &= np.array(cells, dtype=str) != ""
    if bad.any():
        raise ValueError
    return out


def _probabilities(cells):
    out = _floats(cells)
    if len(out) and not 0.0 <= out.min() <= out.max() <= 1.0:
        raise ValueError
    return out


def _indices(cells):
    out = np.array(cells, dtype=np.int64)
    if len(out) and out.min() < 0:
        raise ValueError
    return out


# numeric kind -> (parse cells or raise ValueError/OverflowError, complaint about a bad cell)
_PARSE = {
    "float": (_floats, "not a finite number: {!r}"),
    "float?": (lambda cells: _floats(cells, True), "neither empty nor a finite number: {!r}"),
    "prob": (_probabilities, "not a number in [0, 1]: {!r}"),
    "bit": (lambda cells: np.fromiter(map(("0", "1").index, cells), np.int64),
            "expected 0 or 1, got {!r}"),
    "int": (lambda cells: np.array(cells, dtype=np.int64), "not an integer: {!r}"),
    "index": (_indices, "not an integer >= 0: {!r}"),
}


def _needs_quotes(text):
    return any(map(text.__contains__, ',"\r\n'))


def _text(values):
    """Text cells, each one that holds a comma, quote, CR or LF quoted and its
    quotes doubled; one search of the whole column finds none in most files."""
    cells = list(map(str, values))
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in cells]


def _float_text(values, nan="nan"):
    """The repr of each float of ``values``, a NaN written as ``nan``: one
    repr per distinct bit pattern, so -0.0 and 0.0 stay apart."""
    bits, rows = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                           return_inverse=True)
    distinct = bits.view(np.float64)
    texts = np.array(list(map(repr, distinct.tolist())), dtype=object)
    texts[np.isnan(distinct)] = nan
    return texts[rows].tolist()


# kind -> column of values to column of cells; a number never needs quotes
_FORMAT = {
    "str": _text,
    "key": _text,
    "float": _float_text,
    "float?": lambda values: _float_text(values, ""),
    "bit": lambda values: map(("0", "1").__getitem__, values),
    "int": lambda values: map(str, map(int, values)),
}
# the writers do not check ranges: a probability is written as any float, an
# index as any int
_FORMAT.update(prob=_FORMAT["float"], index=_FORMAT["int"])

_PATIENTS = {
    "patient_id": "str", "is_cancer": "bit", "diagnosis_time": "float?",
    "scan_id": "key", "scan_time": "float",
}
_LABELS = {
    "scan_id": "key", "patient_id": "str", "t_d": "float", "p": "bit", "y": "bit",
    "right_censored": "bit",
}
_PREDICTIONS = {"scan_id": "key", "y_hat": "prob", "t_pred": "float", "fold": "index"}
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


def _parse_column(path, name, kind, cells, row):
    """A column of ``cells``, the first of them row ``row`` of the file,
    parsed by ``kind``."""
    parse, complaint = _PARSE[kind]
    try:
        return parse(cells)
    except (ValueError, OverflowError):
        pass
    # each kind checks each cell on its own: the first to fail alone is the first bad one
    for i, cell in enumerate(cells):
        try:
            parse([cell])
        except (ValueError, OverflowError):
            raise SchemaError(f"{path} row {row + i}: column {name}: {complaint.format(cell)}")


def _blocks(path):
    """A CSV file's header (None in an empty file), then its data rows in
    blocks of up to ``_ROWS``: each the number of its first row and its
    columns of cells. A row not as wide as the header, a record the csv
    module refuses or a byte not UTF-8 raises SchemaError naming its row; a
    UTF-8 byte order mark before the header is skipped. The caller is done
    with a block when it asks for the next one."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        row, block = 1, []  # the row being read is row + len(block)
        try:
            header = next(csv.reader(fh), None)
            yield header
            width, row, records = len(header or ()), 2, None
            while True:
                block = []
                block += islice(records or fh, _ROWS)  # a failed read keeps the rows before it
                if not block:
                    return
                n = len(block)
                if records is not None:
                    misfit = next((i for i, r in enumerate(block) if len(r) != width), None)
                    if misfit is not None:
                        raise SchemaError(f"{path} row {row + misfit}: expected {width} fields, "
                                          f"got {len(block[misfit])}")
                    columns = [list(map(itemgetter(j), block)) for j in range(width)]
                    del block  # its rows: the columns hold their cells
                elif ('"' in (text := "".join(block)) or "\r" in text or "\n" in block
                      or set(map(str.count, block, repeat(","))) != {width - 1}
                      or max(map(len, block)) > csv.field_size_limit()):
                    # quoted cells, CR line ends, empty lines, rows of the wrong
                    # width or a line that may hold a cell over the csv module's
                    # field limit: the csv module reads the rest, from this block
                    # on, where a quoted cell may span lines
                    records, text = csv.reader(chain(block, fh)), None
                    continue
                else:
                    # a row per line, a cell per comma and every row as wide as
                    # the header: one split of the block and a slice per column
                    del block  # before the split, which holds every cell of the block
                    cells = text.replace("\n", ",").split(",")
                    if text[-1] == "\n":
                        cells.pop()  # the last line's terminator
                    del text
                    columns = [cells[j::width] for j in range(width)]
                    del cells
                yield row, columns
                columns.clear()  # the block's cells go before the next is read
                row += n
        except csv.Error as exc:
            raise SchemaError(f"{path} row {row + len(block)}: {exc}") from None
        except UnicodeDecodeError as exc:
            # a chunk fails to decode once every line before it is read: a row
            # per line, the bad byte's adds the line ends before it in the chunk
            row += len(block) + exc.object[:exc.start].count(b"\n")
            raise SchemaError(f"{path} row {row}: not UTF-8: {exc.reason}, "
                              f"got {exc.object[exc.start:exc.end]!r}") from None


def _read_csv(path, schema) -> list:
    """The columns of a CSV file whose header is ``schema``'s names, each
    parsed by its kind a block of rows at a time; a bad row or cell fails
    naming its row and column, and then a key repeated in the file its row."""
    header, blocks = list(schema), _blocks(path)
    got = next(blocks)
    if got is None:
        raise SchemaError(f"{path} row 1: missing header")
    if got != header:
        raise SchemaError(f"{path} row 1: expected header {','.join(header)}, got {','.join(got)}")
    kinds = list(schema.values())
    parts = [[] for _ in kinds]  # a text column's cells; a number column's arrays, one per block
    for row, columns in blocks:
        for name, kind, cells, part in zip(header, kinds, columns, parts):
            if kind in ("str", "key"):
                part.extend(cells)
            else:
                part.append(_parse_column(path, name, kind, cells, row))
    for j, (name, kind) in enumerate(schema.items()):
        if kind == "key":
            # only a repeated hash builds a set of the keys: a good file holds none
            keys = parts[j]
            hashes = np.fromiter(map(hash, keys), np.int64, len(keys))
            if len(np.unique(hashes)) < len(hashes):
                seen = set()
                for i, key in enumerate(keys):
                    if key in seen:
                        raise SchemaError(f"{path} row {i + 2}: column {name}: duplicate {key!r}")
                    seen.add(key)
        elif kind != "str":
            parts[j] = np.concatenate(parts[j]) if parts[j] else _PARSE[kind][0]([])
    return parts


def _write_csv(path, schema, columns) -> None:
    """Write ``columns`` of values, one per column of ``schema``, under its
    header: a line per row, its cells joined by commas, formatted and
    written a block of rows at a time."""
    formats = [_FORMAT[kind] for kind in schema.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(schema) + "\n")
        for start in range(0, len(columns[0]), _ROWS):
            cells = [fmt(values[start:start + _ROWS]) for fmt, values in zip(formats, columns)]
            if len(cells) == 1:
                # a row of one empty cell is written "", as csv writes it, not
                # as an empty line, which reads back as a row of no cells
                cells = [['""' if c == "" else c for c in cells[0]]]
            # one join of a block costs less than a newline added to each row
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_patients_csv(path, patients: PatientTable) -> None:
    _write_csv(path, _PATIENTS, [
        patients.patient_ids, patients.is_cancer.tolist(), patients.diagnosis_time,
        patients.scan_ids, patients.scan_times,
    ])


def read_patients_csv(path) -> PatientTable:
    """The cohort of a patients file, whose rows may come in any order:
    patients in order of first appearance, each one's scans in time order.
    A patient's rows must agree on is_cancer and diagnosis_time."""
    pids, cancer, diag, sids, times = _read_csv(path, _PATIENTS)
    if "" in pids:
        raise SchemaError(f"{path} row {pids.index('') + 2}: empty patient_id")
    _, first, patient = np.unique(
        np.asarray(pids, dtype=str), return_index=True, return_inverse=True
    )
    head = first[patient]  # each row's patient's first row
    clash = outcome_disagrees(cancer, diag, head)
    if clash.any():
        i = int(clash.argmax())
        raise SchemaError(f"{path} row {i + 2}: patient {pids[i]!r} contradicts its earlier rows")
    # each patient's diagnosis time from its first row: the other rows
    # equal it, though a zero's sign may differ
    table = PatientTable(pids, cancer, diag[head], sids, times)
    return table.subset(np.lexsort((table.scan_times, head)))


def write_scans_csv(path, features) -> None:
    """Write ``features``, a ``(scan_ids, matrix)`` pair, one row per scan
    in the pair's order; the column count is the matrix's. A matrix of
    another shape than ``(len(scan_ids), d >= 1)``, or with a NaN or inf,
    raises ValueError naming the file before it is opened."""
    scan_ids, matrix = _feature_matrix(features, path)
    bad = ~np.isfinite(matrix)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{path} row {i + 2}: column f{j}: not a finite number: {float(matrix[i, j])!r}"
        )
    schema = {"scan_id": "key", **{f"f{j}": "float" for j in range(matrix.shape[1])}}
    _write_csv(path, schema, [scan_ids, *matrix.T])


def read_scans_csv(path) -> tuple:
    """The ``(scan_ids, matrix)`` pair of a scans file, one matrix row per
    scan in file order; a NaN or inf anywhere fails with its row and column."""
    width = len(next(_blocks(path)) or ())  # the header's
    names = [f"f{j}" for j in range(max(width - 1, 1))]
    ids, *columns = _read_csv(path, {"scan_id": "key", **dict.fromkeys(names, "float")})
    return ids, np.column_stack(columns)


def write_truth_csv(path, onsets: dict) -> None:
    _write_csv(path, _TRUTH, [list(onsets), list(onsets.values())])


def write_labels_csv(path, labels: LabelTable) -> None:
    _write_csv(path, _LABELS, [
        labels.scan_ids, labels.patient_ids, labels.t_d, labels.p.tolist(),
        labels.y.tolist(), (1 - labels.p).tolist(),
    ])


def read_labels_csv(path) -> LabelTable:
    """The labels of a labels file; its ``right_censored`` column is checked
    and dropped. A row that breaks the labels contract of
    :func:`~cfpt.labels.contract_break` fails naming its row and column."""
    columns = _read_csv(path, _LABELS)
    labels = LabelTable(*columns[:-1])
    broken = contract_break(labels, columns[-1])
    if broken:
        row, column, rule = broken
        # the value as cfpt writes it: a bit as read, t_d by its repr
        (cell,) = _FORMAT[_LABELS[column]](columns[list(_LABELS).index(column)][row:row + 1])
        raise SchemaError(f"{path} row {row + 2}: column {column}: {rule}, got {cell!r}")
    return labels


def write_predictions_csv(path, predictions: PredictionTable) -> None:
    _write_csv(path, _PREDICTIONS, [
        predictions.scan_ids, predictions.y_hat, predictions.t_pred,
        predictions.fold.tolist(),
    ])


def read_predictions_csv(path) -> PredictionTable:
    return PredictionTable(*_read_csv(path, _PREDICTIONS))


def write_km_csv(path, km: KMCurve) -> None:
    _write_csv(path, _KM, [km.times, km.survival, km.n_at_risk, km.n_events])


def write_roc_csv(path, points) -> None:
    _write_csv(path, _ROC, points.T)


def write_scatter_csv(path, points) -> None:
    _write_csv(path, _SCATTER, np.asarray(points).reshape(-1, 2).T)


def write_threshold_csv(path, rows) -> None:
    _write_csv(path, _THRESHOLDS, [list(map(attrgetter(name), rows)) for name in _THRESHOLDS])


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


def _make_parent(path) -> None:
    """Create the directory an output file goes in, as the commands that
    write a directory create it."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)


def cmd_synth(cfg: ExperimentConfig, out_dir) -> CohortSummary:
    """Generate the cohort and write patients/scans/truth CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    patients, features, onsets = generate_cohort(cfg.cohort)
    # scans first: its writer refuses non-finite features before writing
    write_scans_csv(os.path.join(out_dir, "scans.csv"), features)
    write_patients_csv(os.path.join(out_dir, "patients.csv"), patients)
    write_truth_csv(os.path.join(out_dir, "truth.csv"), onsets)
    return cohort_summary(patients)


def cmd_label(patients_csv, labels_csv) -> int:
    """Derive per-scan labels from a patients CSV; returns the row count."""
    labels = derive_scan_labels(read_patients_csv(patients_csv))
    _make_parent(labels_csv)
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
    result = run_crossval(ds, cfg.model, cfg.train, cfg.k_folds)
    os.makedirs(out_dir, exist_ok=True)
    write_predictions_csv(os.path.join(out_dir, "predictions.csv"), result.predictions)
    write_folds_csv(os.path.join(out_dir, "folds.csv"), result.folds)
    for fa, hist in zip(result.folds, result.histories):
        write_history_csv(os.path.join(out_dir, f"history_fold{fa.fold}.csv"), hist)
    return result


def cmd_eval(
    predictions_csv,
    labels_csv,
    out_dir,
    thresholds=THRESHOLDS,
    predictions_b_csv=None,
) -> EvalReport:
    """Full evaluation battery over pooled predictions; writes the report
    plus roc/km/scatter/threshold CSVs."""
    preds = read_predictions_csv(predictions_csv)
    labels = read_labels_csv(labels_csv)
    preds_b = None
    if predictions_b_csv is not None:
        preds_b = read_predictions_csv(predictions_b_csv)
    report = evaluate(preds, labels, thresholds, predictions_b=preds_b)
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
    kept = labels.t_d >= 0
    if not kept.any():
        raise SchemaError(f"{labels_csv}: no scans with non-negative t_d")
    km = km_estimate(labels.t_d[kept], labels.p[kept])
    _make_parent(out_csv)
    write_km_csv(out_csv, km)
    return km, len(labels) - int(kept.sum())


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
    cfg = load_experiment_config(args.config, args.seed)
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
    cfg = load_experiment_config(args.config)
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

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    common(p, "output directory for patients/scans/truth CSVs")
    p.set_defaults(func=_run_synth)

    p = sub.add_parser("label", help="derive per-scan labels from a patients CSV")
    p.add_argument("patients_csv")
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.set_defaults(func=_run_label)

    p = sub.add_parser("crossval", help="patient-level k-fold training")
    common(p, "output directory for predictions/folds/history CSVs")
    p.add_argument(
        "--mode", choices=("single_task", "multi_task"), default=None,
        help="override the config's objective mode",
    )
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
    except MemoryError as exc:  # numpy's allocation failures too
        print(f"error:memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
