import csv
import math
import multiprocessing
import os
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cfpt.model
from cfpt import cli
from cfpt.cli import (
    _CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    SchemaError,
    build_experiment_config,
    cmd_eval,
    cmd_km,
    cmd_label,
    cmd_synth,
    load_experiment_config,
    main,
    parse_config_text,
    read_labels_csv,
    read_patients_csv,
    read_predictions_csv,
    read_scans_csv,
    write_labels_csv,
    write_patients_csv,
    write_predictions_csv,
    write_scans_csv,
)
from cfpt.labels import LabelTable, PatientTable, derive_scan_labels
from cfpt.losses import LossConfig
from cfpt.model import ModelConfig, PredictionTable, TrainConfig
from cfpt.simulate import CohortConfig
from helpers import patient_table, random_patient_record, table_columns


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text():
    kv = parse_config_text(
        "# a comment\n"
        "\n"
        "mode = multi_task\n"
        "train.lr0 = 1e-3\n"
        "model.hidden_dims = 16,8\n"
    )
    assert kv == {"mode": "multi_task", "train.lr0": "1e-3", "model.hidden_dims": "16,8"}


def test_parse_config_rejects_malformed():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_build_experiment_config_full():
    cfg = build_experiment_config(
        {
            "mode": "multi_task",
            "k_folds": "4",
            "thresholds": "1,2,3",
            "paths.labels": "a.csv",
            "paths.scans": "b.csv",
            "cohort.n_patients": "77",
            "cohort.seed": "9",
            "model.hidden_dims": "16,8",
            "model.seed": "3",
            "train.max_epochs": "50",
            "train.lr0": "2e-3",
            "train.lr_decay_epochs": "10,20",
            "loss.lambda": "0.25",
            "loss.epsilon": "0.5",
        }
    )
    assert cfg.k_folds == 4
    assert cfg.thresholds == (1.0, 2.0, 3.0)
    assert cfg.paths == {"labels": "a.csv", "scans": "b.csv"}
    assert cfg.cohort.n_patients == 77
    assert cfg.cohort.seed == 9
    assert cfg.model == ModelConfig(hidden_dims=(16, 8), seed=3)
    assert cfg.train.max_epochs == 50
    assert cfg.train.lr0 == 2e-3
    assert cfg.train.lr_decay_epochs == (10, 20)
    assert cfg.train.loss.lam == 0.25
    assert cfg.train.loss.epsilon == 0.5


def test_config_unknown_key_and_bad_value():
    # the last three are settings that became constants or were removed
    for key in (
        "train.momentum", "loss.prob_clamp", "train.init_reg_bias_to_mean",
        "cohort.cancer_fraction_target",
    ):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_experiment_config({key: "0.9"})
    with pytest.raises(ConfigError, match="train.lr0"):
        build_experiment_config({"train.lr0": "fast"})
    for key, value in [
        ("train.max_epochs", "0"),
        ("train.lr0", "0"),
        ("train.lr0", "-1e-3"),
        ("train.lr0", "nan"),
        ("train.lr0", "inf"),
        ("train.weight_decay", "nan"),
        ("cohort.noise_sd", "nan"),
        ("thresholds", "1,nan"),
    ]:
        with pytest.raises(ConfigError):
            build_experiment_config({key: value})


def test_config_keys_name_fields_of_their_targets():
    # a key left behind for a deleted field would raise TypeError, which
    # main reports as a traceback rather than error:config:
    targets = {
        "top": ExperimentConfig, "cohort": CohortConfig, "model": ModelConfig,
        "train": TrainConfig, "loss": LossConfig,
    }
    for key, (bucket, name, _) in _CONFIG_KEYS.items():
        if bucket != "paths":
            assert name in {f.name for f in fields(targets[bucket])}, key


def _setting_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("section, cls", [
    ("top", ExperimentConfig), ("cohort", CohortConfig), ("model", ModelConfig),
    ("train", TrainConfig), ("loss", LossConfig),
])
def test_every_section_field_is_a_key_that_parses_its_default(section, cls):
    keys = {
        name: (key, conv) for key, (bucket, name, conv) in _CONFIG_KEYS.items()
        if bucket == section
    }
    nested = {"paths", "cohort", "model", "train", "loss"}
    names = [f.name for f in fields(cls) if f.name not in nested]
    assert sorted(keys) == sorted(names)
    prefix = "" if section == "top" else f"{section}."
    for f in fields(cls):
        if f.name in keys:
            key, conv = keys[f.name]
            assert key == prefix + ("lambda" if f.name == "lam" else f.name)
            assert conv(_setting_text(f.default)) == f.default, key


def test_config_mode_invariants():
    single = build_experiment_config({"mode": "single_task", "loss.lambda": "0.5"})
    assert single.train.loss.lam == 0.0
    with pytest.raises(ConfigError, match="multi_task"):
        build_experiment_config({"mode": "multi_task", "loss.lambda": "0"})
    with pytest.raises(ConfigError):
        build_experiment_config({"mode": "dual"})
    assert ExperimentConfig().train.loss.lam == 0.5


def test_config_rejects_a_single_fold():
    with pytest.raises(ConfigError, match=r"^k_folds must be >= 2, got 1$"):
        build_experiment_config({"k_folds": "1"})


def test_experiment_config_takes_its_model_defaults_from_model_config():
    assert ExperimentConfig().model == ModelConfig()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key", [key for key, (_, _, conv) in _CONFIG_KEYS.items() if conv is float]
)
def test_non_finite_float_setting_loads_or_is_one_config_error(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"cohort.n_patients = 10\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    if main(["synth", "--config", str(cfg_path), "--out", str(out)]) != 0:
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:config: ")
        assert not out.exists()
    elif key.startswith("cohort."):
        scan_ids, matrix = read_scans_csv(out / "scans.csv")
        assert len(scan_ids) == len(matrix) > 0


def test_mode_override_replaces_the_configured_mode_before_validation(tmp_path, capsys):
    # a single-task config with lambda 0.5 run as multi-task keeps lambda 0.5
    cfg_path = _crossval_inputs(tmp_path, "mode = single_task\nloss.lambda = 0.5\n")
    assert load_experiment_config(cfg_path).train.loss.lam == 0.0
    assert load_experiment_config(cfg_path, mode="multi_task").train.loss.lam == 0.5
    argv = ["crossval", "--config", str(cfg_path), "--mode", "multi_task"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0, capsys.readouterr().err


def test_crossval_rejects_a_decay_epoch_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("train.lr_decay_epochs = -1\n", encoding="utf-8")
    assert main(["crossval", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:config: lr_decay_epochs must be >= 1")
    assert not (tmp_path / "run").exists()


def test_synth_has_no_mode_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--mode", "multi_task", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_experiment_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = multi_task\ncohort.seed = 1\ntrain.seed = 2\n", encoding="utf-8")
    cfg = load_experiment_config(str(path), seed=42, mode="single_task")
    assert cfg.mode == "single_task"
    assert cfg.train.loss.lam == 0.0
    assert cfg.cohort.seed == 42
    assert cfg.train.seed == 42
    assert cfg.model.seed == 42
    plain = load_experiment_config(str(path))
    assert plain.cohort.seed == 1
    assert plain.train.seed == 2


# ---------------------------------------------------------------------------
# CSV round-trips


def _patients():
    nan = float("nan")
    return PatientTable(
        ["pa", "pa", "pa", "pb", "pb", "pc"],
        [True, True, True, False, False, True],
        [1.8, 1.8, 1.8, nan, nan, nan],
        ["pa-s0", "pa-s1", "pa-s2", "pb-s0", "pb-s1", "pc-s0"],
        [0.0, 1.0, 2.5, 0.0, 2.0, 0.5],
    )


def test_patients_csv_round_trip(tmp_path):
    path = tmp_path / "patients.csv"
    patients = _patients()
    patients.diagnosis_time[:3] = 0.1 + 0.2  # a float that needs all 17 digits
    patients.scan_times[3] = -0.0
    write_patients_csv(path, patients)
    assert path.read_text(encoding="utf-8").splitlines()[4:] == [
        "pb,0,,pb-s0,-0.0", "pb,0,,pb-s1,2.0", "pc,1,,pc-s0,0.5",
    ]
    back = read_patients_csv(path)
    assert table_columns(back) == table_columns(patients)
    write_patients_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_labels_csv_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = derive_scan_labels(_patients())
    labels.t_d[0] = 0.1 + 0.2  # a float that needs all 17 digits
    labels.t_d[1] = -0.0
    write_labels_csv(path, labels)
    back = read_labels_csv(path)
    assert table_columns(back) == table_columns(labels)
    again = tmp_path / "again.csv"
    write_labels_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_predictions_csv_round_trip(tmp_path):
    path = tmp_path / "predictions.csv"
    preds = PredictionTable(["s0", "s1", "s2"], [0.1234567890123456, 1.0, 0.1 + 0.2],
                            [-1.5, 3.0, -0.0], [0, 3, 1])
    write_predictions_csv(path, preds)
    back = read_predictions_csv(path)
    assert table_columns(back) == table_columns(preds)
    again = tmp_path / "again.csv"
    write_predictions_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_scans_csv_round_trip(tmp_path):
    path = tmp_path / "scans.csv"
    rng = np.random.default_rng(41)
    ids, mat = [f"s{i}" for i in (3, 0, 4, 1, 2)], rng.normal(size=(5, 3))
    write_scans_csv(path, (ids, mat))
    back_ids, back_mat = read_scans_csv(path)
    assert back_ids == ids
    assert back_mat.dtype == np.float64 and back_mat.tobytes() == mat.tobytes()


def test_scans_csv_writer_refuses_non_finite_cells(tmp_path, capsys):
    path = tmp_path / "scans.csv"
    mat = np.ones((3, 2))
    mat[1, 1] = np.inf
    with pytest.raises(ValueError, match=r"scans\.csv row 3: column f1: not a finite number: inf$"):
        write_scans_csv(path, (["a", "b", "c"], mat))
    assert not path.exists()
    # a finite noise scale whose draws overflow
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 10\ncohort.noise_sd = 1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error:data: {out / 'scans.csv'} row ")
    assert not (out / "scans.csv").exists()


@pytest.mark.parametrize("ids, shape", [
    (["a", "b"], (2,)),  # not 2-d
    (["a", "b"], (2, 0)),  # no feature column
    (["a", "b", "c"], (2, 3)),  # a scan without a row
    (["a", "b"], (3, 3)),  # a row without a scan
])
def test_scans_csv_writer_refuses_a_misshapen_matrix(tmp_path, ids, shape):
    path = tmp_path / "scans.csv"
    match = re.escape(f"{path}: ") + ".*" + re.escape(f"got shape {shape}")
    with pytest.raises(ValueError, match=match):
        write_scans_csv(path, (ids, np.ones(shape)))
    assert not path.exists()


def test_csv_schema_errors_name_rows(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "scan_id,patient_id,t_d,p,y,right_censored\n"
        "s0,pa,1.0,1,1,0\n"
        "s1,pa,oops,1,1,0\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="row 3"):
        read_labels_csv(path)
    path.write_text(
        "scan_id,patient_id,t_d,p,y,right_censored\ns0,pa,1.0,2,1,0\n", encoding="utf-8"
    )
    with pytest.raises(SchemaError, match="row 2"):
        read_labels_csv(path)
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("scan,id\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="row 1"):
        read_labels_csv(bad_header)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_scans_csv_rejects_non_finite_with_row_and_column(tmp_path, bad):
    path = tmp_path / "scans.csv"
    path.write_text(f"scan_id,f0,f1\ns0,1.0,2.0\ns1,0.5,{bad}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"scans\.csv row 3: column f1: .*{bad}"):
        read_scans_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_labels_csv_rejects_non_finite_with_row_and_column(tmp_path, bad):
    path = tmp_path / "labels.csv"
    path.write_text(
        "scan_id,patient_id,t_d,p,y,right_censored\n"
        "s0,pa,1.0,1,1,0\n"
        f"s1,pa,{bad},1,1,0\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=rf"labels\.csv row 3: column t_d: .*{bad}"):
        read_labels_csv(path)


_CLEAN_CSV = {
    "patients.csv": ["patient_id,is_cancer,diagnosis_time,scan_id,scan_time",
                     "pa,1,2.0,s0,0.0", "pb,0,,s1,1.0"],
    "labels.csv": ["scan_id,patient_id,t_d,p,y,right_censored",
                   "s0,pa,1.0,1,1,0", "s1,pb,2.0,0,0,1"],
    "predictions.csv": ["scan_id,y_hat,t_pred,fold", "s0,0.5,1.0,0", "s1,0.25,2.0,1"],
    "scans.csv": ["scan_id,f0,f1", "s0,1.0,2.0", "s1,0.5,1.5"],
}
_READERS = {
    "patients.csv": read_patients_csv,
    "labels.csv": read_labels_csv,
    "predictions.csv": read_predictions_csv,
    "scans.csv": read_scans_csv,
}


@pytest.mark.parametrize(
    "name, column, bad",
    [
        ("patients.csv", "is_cancer", "2"),
        ("patients.csv", "is_cancer", "x"),
        ("patients.csv", "diagnosis_time", "x"),
        ("patients.csv", "diagnosis_time", "nan"),
        ("patients.csv", "diagnosis_time", "inf"),
        ("patients.csv", "scan_time", "x"),
        ("patients.csv", "scan_time", "nan"),
        ("patients.csv", "scan_time", "inf"),
        ("patients.csv", "scan_time", ""),
        ("patients.csv", "scan_id", "s0"),
        ("labels.csv", "t_d", "x"),
        ("labels.csv", "t_d", "nan"),
        ("labels.csv", "t_d", "-inf"),
        ("labels.csv", "p", "2"),
        ("labels.csv", "y", "x"),
        ("labels.csv", "right_censored", "2"),
        # the labels contract, on the p = 0 row
        ("labels.csv", "y", "1"),
        ("labels.csv", "t_d", "0.5"),
        ("labels.csv", "right_censored", "0"),
        ("labels.csv", "scan_id", "s0"),
        ("predictions.csv", "y_hat", "x"),
        ("predictions.csv", "y_hat", "nan"),
        ("predictions.csv", "y_hat", "7.5"),
        ("predictions.csv", "y_hat", "-0.25"),
        ("predictions.csv", "y_hat", "1.0000000000000002"),
        ("predictions.csv", "t_pred", "inf"),
        ("predictions.csv", "fold", "x"),
        ("predictions.csv", "fold", "1.5"),
        ("predictions.csv", "fold", "-1"),
        ("predictions.csv", "scan_id", "s0"),
        ("scans.csv", "f0", "x"),
        ("scans.csv", "f1", "nan"),
        ("scans.csv", "scan_id", "s0"),
    ],
)
def test_readers_name_row_and_column_of_a_bad_cell(tmp_path, name, column, bad):
    header, *rows = _CLEAN_CSV[name]
    cells = rows[1].split(",")
    cells[header.split(",").index(column)] = bad
    path = tmp_path / name
    path.write_text("\n".join([header, rows[0], ",".join(cells)]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"{re.escape(name)} row 3: column {column}: .*'{bad}'"):
        _READERS[name](path)


def test_labels_reader_refuses_a_censored_cancer_scan(tmp_path):
    header, cancer, control = _CLEAN_CSV["labels.csv"]
    path = tmp_path / "labels.csv"
    path.write_text("\n".join([header, cancer[:-1] + "1", control]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"labels\.csv row 2: column right_censored: .*'1'"):
        read_labels_csv(path)


def test_label_files_of_random_cohorts_meet_the_contract_and_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    path, again = tmp_path / "labels.csv", tmp_path / "again.csv"
    for _ in range(300):
        n = int(rng.integers(1, 6))
        labels = derive_scan_labels(patient_table(
            *(random_patient_record(rng, pid=f"r{i}") for i in range(n))
        ))
        write_labels_csv(path, labels)
        back = read_labels_csv(path)
        assert table_columns(back) == table_columns(labels)
        write_labels_csv(again, back)
        assert again.read_bytes() == path.read_bytes()


def test_patients_csv_contradictory_rows(tmp_path):
    path = tmp_path / "patients.csv"
    path.write_text(
        "patient_id,is_cancer,diagnosis_time,scan_id,scan_time\n"
        "pa,1,2.0,pa-s0,0.0\n"
        "pa,0,,pa-s1,1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="row 3"):
        read_patients_csv(path)


def test_patients_csv_refuses_an_empty_patient_id(tmp_path):
    path = tmp_path / "patients.csv"
    header, *rows = _CLEAN_CSV["patients.csv"]
    path.write_text("\n".join([header, rows[0], "," + rows[1].split(",", 1)[1]]) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))} row 3: empty patient_id$"):
        read_patients_csv(path)


# ---------------------------------------------------------------------------
# the CSV text core against the csv module it replaced

_SCHEMAS = [
    cli._PATIENTS, cli._LABELS, cli._PREDICTIONS, cli._TRUTH, cli._KM, cli._ROC,
    cli._SCATTER, cli._THRESHOLDS, cli._HISTORY, cli._FOLDS,
    {"scan_id": "key", "f0": "float", "f1": "float", "f2": "float"},
]
_PIECES = ["a", "B7", "", " ", ",", '"', "\n", "é", "日本"]
_FINITE = [-0.0, 0.0, 5e-324, 1e16, 9.999999999999999e15, 1e-4, 9.9e-05, 0.1 + 0.2]


def _random_floats(rng, n, specials=_FINITE):
    """Random finite bit patterns, with ``specials`` at random places."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 1.5
    out = bits.tolist()
    for i, v in zip(rng.permutation(n).tolist(), specials):
        out[i] = v
    return out


def _random_column(rng, kind, n):
    if kind in ("str", "key"):
        return ["".join(rng.choice(_PIECES, size=rng.integers(0, 4))) for _ in range(n)]
    if kind in ("float", "float?"):
        values = _random_floats(rng, n, [*_FINITE, math.inf])  # inf: the ROC anchor
        return values if kind == "float" else [
            math.nan if rng.random() < 0.3 else v for v in values
        ]
    if kind == "prob":
        return [0.0, 1.0, *rng.random(max(n - 2, 0)).tolist()][:n]  # both ends
    if kind == "bit":
        return (rng.random(n) < 0.5).tolist()
    return rng.integers(0 if kind == "index" else -10**6, 10**6, size=n).tolist()


_CELL = {
    "str": str, "key": str, "float": repr, "float?": lambda v: "" if math.isnan(v) else repr(v),
    "prob": repr, "bit": lambda v: "01"[v], "int": str, "index": str,
}


@pytest.mark.parametrize("n", [0, 3, 2500])
@pytest.mark.parametrize("schema", _SCHEMAS, ids=lambda schema: ",".join(schema))
def test_writer_bytes_equal_csv_writer(tmp_path, schema, n):
    rng = np.random.default_rng([61, n, len(schema)])
    columns = [_random_column(rng, kind, n) for kind in schema.values()]
    cli._write_csv(tmp_path / "text.csv", schema, columns)
    with open(tmp_path / "csv.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(schema)
        w.writerows(zip(*[map(_CELL[kind], col) for kind, col in zip(schema.values(), columns)]))
    assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


# a pool of awkward floats that columns repeat, as a cohort's features and
# scan times do: the writer formats each distinct bit pattern once
_POOL = [-0.0, 0.0, 5e-324, 1e16, 9.999999999999999e15, 0.1 + 0.2, -2.5]
_NANS = np.array(  # quiet, payload, negative and signalling NaNs
    [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
    dtype=np.uint64,
).view(np.float64)
_POOLED = {"scan_id": "key", "f": "float", "g": "float?", "p": "prob"}


def _pooled_columns(rng, n, finite=False):
    """Columns of ``_POOLED``: floats drawn from ``_POOL`` (and inf unless
    ``finite``), optional floats from ``_POOL`` and ``_NANS``."""
    floats = np.array(_POOL if finite else [*_POOL, math.inf])
    return [
        [f"s{i}" for i in range(n)],
        rng.choice(floats, n),
        rng.choice(np.concatenate([_POOL, _NANS]), n),
        rng.choice([0.0, -0.0, 0.5, 1.0], n),
    ]


@pytest.mark.parametrize("n", [0, 3, 2500])
def test_writer_bytes_of_repeated_floats_equal_csv_writer(tmp_path, n):
    columns = _pooled_columns(np.random.default_rng([67, n]), n)
    lists = [columns[0], *(c.tolist() for c in columns[1:])]
    cli._write_csv(tmp_path / "arrays.csv", _POOLED, columns)
    cli._write_csv(tmp_path / "lists.csv", _POOLED, lists)
    with open(tmp_path / "csv.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_POOLED)
        w.writerows(zip(*[map(_CELL[kind], col) for kind, col in zip(_POOLED.values(), lists)]))
    expected = (tmp_path / "csv.csv").read_bytes()
    assert (tmp_path / "arrays.csv").read_bytes() == expected
    assert (tmp_path / "lists.csv").read_bytes() == expected


@pytest.mark.parametrize("n", [3, 2500])
def test_repeated_float_bits_round_trip(tmp_path, n):
    rng = np.random.default_rng([71, n])
    columns = _pooled_columns(rng, n, finite=True)
    path = tmp_path / "pooled.csv"
    cli._write_csv(path, _POOLED, columns)
    ids, f, g, p = cli._read_csv(path, _POOLED)
    assert ids == columns[0]
    assert np.array(f).tobytes() == columns[1].tobytes()
    assert np.array(p).tobytes() == columns[3].tobytes()
    g, nan = np.array(g), np.isnan(columns[2])
    assert np.isnan(g).tolist() == nan.tolist()
    assert g[~nan].tobytes() == columns[2][~nan].tobytes()

    matrix = rng.choice(_POOL, (n, 3))
    write_scans_csv(tmp_path / "scans.csv", (columns[0], matrix))
    back_ids, back = read_scans_csv(tmp_path / "scans.csv")
    assert back_ids == columns[0] and back.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("kind, bad", [
    ("float", "nan"), ("float", "x"), ("float", ""), ("float?", "nan"), ("float?", "x"),
])
def test_a_bad_cell_among_repeats_is_named_by_its_first_row(tmp_path, kind, bad):
    # four texts repeated over 300 cells, as in a cohort's feature columns
    texts = ["1.0", "-0.0", "2.5", "" if kind == "float?" else "3.0"]
    cells = np.random.default_rng(73).choice(texts, 300).tolist()
    for i in (137, 211, 250):
        cells[i] = bad
    path = tmp_path / "repeats.csv"
    path.write_text("k,v\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells)),
                    encoding="utf-8")
    complaint = cli._PARSE[kind][1].format(bad)
    with pytest.raises(SchemaError) as err:
        cli._read_csv(path, {"k": "key", "v": kind})
    assert str(err.value) == f"{path} row 139: column v: {complaint}"


def _python_parse(kind, text):
    """What Python makes of a ``kind`` cell: float() or int() of it, NaN for
    an empty optional float, or None when the kind refuses the text."""
    try:
        if kind == "bit":
            return ("0", "1").index(text)
        if kind in ("int", "index"):
            value = int(text)
            low = 0 if kind == "index" else -2**63
            return value if low <= value < 2**63 else None
        if kind == "float?" and text == "":
            return math.nan
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value) or (kind == "prob" and not 0.0 <= value <= 1.0):
        return None
    return value


_NUMERIC_TEXTS = [
    "0", "1", "-1", "2", "0.5", "1.5", " 1", "1_0", "\u0661\u0662", "1e400", "nan", "0x10", "",
    "99999999999999999999", "-9223372036854775809", "9223372036854775807",
]


@pytest.mark.parametrize("text", _NUMERIC_TEXTS)
@pytest.mark.parametrize("kind", ["float", "float?", "prob", "int", "index", "bit"])
def test_a_numeric_column_accepts_exactly_what_python_parses(tmp_path, kind, text):
    path = tmp_path / "cells.csv"
    path.write_text(f"k,v\na,1\nb,{text}\n", encoding="utf-8")
    expected = _python_parse(kind, text)
    if expected is None:
        complaint = cli._PARSE[kind][1].format(text)
        with pytest.raises(SchemaError) as err:
            cli._read_csv(path, {"k": "key", "v": kind})
        assert str(err.value) == f"{path} row 3: column v: {complaint}"
        return
    _, column = cli._read_csv(path, {"k": "key", "v": kind})
    dtype = np.float64 if kind in ("float", "float?", "prob") else np.int64
    assert isinstance(column, np.ndarray) and column.dtype == dtype
    assert column[1] == expected or (math.isnan(expected) and math.isnan(column[1]))


_LABELS_HEADER = "scan_id,patient_id,t_d,p,y,right_censored"


def test_writer_quotes_a_bare_cr(tmp_path):
    # csv.writer with lineterminator "\n" leaves a lone CR bare, and its
    # reader then ends the row there
    path = tmp_path / "labels.csv"
    labels = LabelTable(["a\rb", "c"], ["p\r", "p\r"], [1.0, 2.0], [0, 0], [0, 0])
    write_labels_csv(path, labels)
    assert path.read_bytes() == (
        f"{_LABELS_HEADER}\n" '"a\rb","p\r",1.0,0,0,1\n' 'c,"p\r",2.0,0,0,1\n'
    ).encode("utf-8")
    assert table_columns(read_labels_csv(path)) == table_columns(labels)


def _labels_of_rows(rows):
    """The labels the csv module reads from ``rows``, parsed cell by cell."""
    sids, pids, t_d, p, y, _ = map(list, zip(*rows)) if rows else [[]] * 6
    return LabelTable(sids, pids, list(map(float, t_d)), list(map(int, p)), list(map(int, y)))


@pytest.mark.parametrize("nl", ["\n", "\r\n"])
@pytest.mark.parametrize("text, problem", [
    ("{h}{nl}s0,pa,1.0,1,1,0{nl}s1,pb,-0.0,1,0,0{nl}", None),
    ('{h}{nl}"s,0",pa,1.0,1,1,0{nl}"s""1","p{nl}b",2.0,0,0,1{nl}', None),
    ("{h}{nl}s0,pa,1.0,1,1,0{nl}s1, pb ,2.0,0,0,1", None),  # no final line end
    ("{h}{nl}", None),
    ("{h}", None),
    ("", "row 1: missing header"),
    ("{nl}", "row 1: expected header " + _LABELS_HEADER + ", got "),
    ("scan_id,patient_id{nl}s0,pa,1.0{nl}", "row 1: expected header " + _LABELS_HEADER
     + ", got scan_id,patient_id"),
    ("{h}{nl}s0,pa,1.0,1,1,0{nl}{nl}s1,pb,2.0,0,0,1{nl}", "row 3: expected 6 fields, got 0"),
    ("{h}{nl}s0,pa,1.0,1,1,0{nl}{nl}", "row 3: expected 6 fields, got 0"),
    ("{h}{nl}s0,pa,1.0,1,1{nl}s1,pb,2.0,0,0,1{nl}", "row 2: expected 6 fields, got 5"),
    ("{h}{nl}s0,pa,1.0,1,1,0{nl}s1,pb,2.0,0,0,1,9{nl}", "row 3: expected 6 fields, got 7"),
    # rows, not lines, are counted
    ('{h}{nl}"s{nl}0",pa,1.0,1,1,0{nl}s1,pb,2.0,0,0{nl}', "row 3: expected 6 fields, got 5"),
    ('{h}{nl}"s{nl}0",pa,1.0,1,1,0{nl}s1,pb,x,0,0,1{nl}',
     "row 3: column t_d: not a finite number: 'x'"),
])
def test_labels_reader_reads_what_the_csv_module_reads(tmp_path, nl, text, problem):
    path = tmp_path / "labels.csv"
    path.write_bytes(text.format(h=_LABELS_HEADER, nl=nl).encode("utf-8"))
    if problem is not None:
        with pytest.raises(SchemaError) as exc:
            read_labels_csv(path)
        assert str(exc.value) == f"{path} {problem}"
        return
    with open(path, encoding="utf-8", newline="") as fh:
        _, *rows = csv.reader(fh)
    assert table_columns(read_labels_csv(path)) == table_columns(_labels_of_rows(rows))


def test_text_and_float_bits_round_trip(tmp_path):
    rng = np.random.default_rng(83)
    n = 400
    alphabet = list('ab,"\r\n é')
    words = ["".join(rng.choice(alphabet, size=rng.integers(0, 5))) for _ in range(n)]
    assert all(any(ch in w for w in words) for ch in ',"\r\n')
    scan_ids = [f"{w}#{i}" for i, w in enumerate(words)]
    t_d = _random_floats(rng, n)
    # rows that meet the labels contract: p = 0 only where t_d >= 1, y = 1 only where p = 1
    p = np.where(np.less(t_d, 1.0), 1, rng.integers(0, 2, n))
    labels = LabelTable(scan_ids, words[::-1], t_d, p, p & rng.integers(0, 2, n))
    path, again = tmp_path / "labels.csv", tmp_path / "again.csv"
    write_labels_csv(path, labels)
    back = read_labels_csv(path)
    assert table_columns(back) == table_columns(labels)
    write_labels_csv(again, back)
    assert again.read_bytes() == path.read_bytes()

    matrix = np.reshape(_random_floats(rng, 3 * n), (n, 3))
    write_scans_csv(tmp_path / "scans.csv", (scan_ids, matrix))
    back_ids, back_matrix = read_scans_csv(tmp_path / "scans.csv")
    assert back_ids == scan_ids
    assert back_matrix.tobytes() == matrix.tobytes()


# ---------------------------------------------------------------------------
# files of several blocks of rows

_ROWS = cli._ROWS
_EVERY_KIND = {
    "k": "key", "s": "str", "f": "float", "g": "float?", "p": "prob", "b": "bit", "i": "int",
    "x": "index",
}


def _csv_module_bytes(path, schema, columns):
    """The bytes ``csv.writer`` writes for ``columns`` under ``schema``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(schema)
        w.writerows(zip(*[map(_CELL[kind], col) for kind, col in zip(schema.values(), columns)]))
    return path.read_bytes()


@pytest.mark.parametrize("text", ["plain", "quoted"])
@pytest.mark.parametrize("n", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1])
def test_files_of_up_to_three_blocks_round_trip_byte_for_byte(tmp_path, n, text):
    rng = np.random.default_rng([89, n])
    words = _random_column(rng, "str", n) if text == "quoted" else [f"w{i % 7}" for i in range(n)]
    columns = [
        [f"{w}#{i}" for i, w in enumerate(words)], words, _random_floats(rng, n),
        [math.nan if rng.random() < 0.3 else v for v in _random_floats(rng, n)],
        *(_random_column(rng, kind, n) for kind in ("prob", "bit", "int", "index")),
    ]
    path, again = tmp_path / "blocks.csv", tmp_path / "again.csv"
    cli._write_csv(path, _EVERY_KIND, columns)
    assert path.read_bytes() == _csv_module_bytes(tmp_path / "csv.csv", _EVERY_KIND, columns)
    back = cli._read_csv(path, _EVERY_KIND)
    assert back[:2] == columns[:2]
    for got, sent in zip(back[2:], columns[2:]):
        assert got.tobytes() == np.asarray(sent, dtype=got.dtype).tobytes()
    cli._write_csv(again, _EVERY_KIND, back)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("fault", ["cell", "repeat", "width"])
@pytest.mark.parametrize("at", [_ROWS, _ROWS + 1, 2 * _ROWS + 1])  # data rows from 1
def test_a_fault_in_any_block_names_its_row(tmp_path, at, fault, quoted):
    rows = [[f"s{i}", repr(i / 4), "01"[i % 2]] for i in range(2 * _ROWS + 2)]
    if quoted:
        rows[0][0] = "s\n0"  # a record over two lines: rows, not lines, are counted
    target = rows[at - 1]
    if fault == "cell":
        target[1], complaint = "x", "column v: not a finite number: 'x'"
    elif fault == "repeat":  # of a key in the first block
        target[0], complaint = "s1", "column k: duplicate 's1'"
    else:
        target.append("9")
        complaint = "expected 3 fields, got 4"
    path = tmp_path / "faulty.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([["k", "v", "b"], *rows])
    with pytest.raises(SchemaError) as err:
        cli._read_csv(path, {"k": "key", "v": "float", "b": "bit"})
    assert str(err.value) == f"{path} row {at + 1}: {complaint}"


@pytest.mark.parametrize("at", [_ROWS - 1, _ROWS, 2 * _ROWS - 1])  # data rows from 0
def test_a_quoted_line_feed_across_a_block_boundary_round_trips(tmp_path, at):
    ids = [f"s{i}" for i in range(2 * _ROWS + 1)]
    ids[at] = "a\nb"  # its record starts on one line and ends on the next
    values = np.arange(len(ids)) / 8
    path, again = tmp_path / "ids.csv", tmp_path / "again.csv"
    schema = {"k": "key", "v": "float"}
    cli._write_csv(path, schema, [ids, values])
    back_ids, back_values = cli._read_csv(path, schema)
    assert back_ids == ids and back_values.tobytes() == values.tobytes()
    cli._write_csv(again, schema, [back_ids, back_values])
    assert again.read_bytes() == path.read_bytes()


def _peak_above_result(call):
    """What ``call()`` returns, and the most memory it held beyond that."""
    call()  # lazy imports and caches come first
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def test_scans_reader_peak_above_its_result_barely_grows_with_the_file(tmp_path):
    # the peak above the result: a whole-file reader's grows with the file
    rng = np.random.default_rng(97)
    above = {}
    for n in (4000, 40000):
        ids = [f"p{i // 5:05d}-s{i % 5}" for i in range(n)]
        path = tmp_path / f"scans{n}.csv"
        write_scans_csv(path, (ids, np.repeat(rng.normal(size=(n // 5, 9)), 5, axis=0)))
        (ids_back, _), above[n] = _peak_above_result(lambda: read_scans_csv(path))
        assert len(ids_back) == n
    assert above[40000] < 1.5 * above[4000], above


def test_one_long_patient_id_costs_its_length_not_rows_times_it(tmp_path):
    # a numpy string copy of the ids gives every row the longest id's width
    ids = ["x" * 5000, *(f"p{i // 5}" for i in range(999))]
    patients = PatientTable(ids, [False] * 1000, [math.nan] * 1000,
                            [f"s{i}" for i in range(1000)], list(range(1000)))
    path = tmp_path / "patients.csv"
    write_patients_csv(path, patients)
    labels, above = _peak_above_result(lambda: derive_scan_labels(read_patients_csv(path)))
    assert labels.patient_ids == ids
    assert above < 8 * 2**20, above


def test_one_long_optional_float_cell_costs_its_length_not_rows_times_it(tmp_path):
    cells = ["1." + "0" * 4998, *([""] * (_ROWS - 1))]
    path = tmp_path / "floats.csv"
    path.write_text("k,v\n" + "".join(f"k{i},{c}\n" for i, c in enumerate(cells)),
                    encoding="utf-8")
    (_, values), above = _peak_above_result(
        lambda: cli._read_csv(path, {"k": "key", "v": "float?"}))
    assert values[0] == 1.0 and np.isnan(values[1:]).all()
    assert above < 8 * 2**20, above


def test_a_key_repeated_in_one_block_is_named_at_its_second_copy(tmp_path):
    path = tmp_path / "keys.csv"
    path.write_text("k,v\na,1\nb,2\nc,3\nb,4\na,5\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        cli._read_csv(path, {"k": "key", "v": "float"})
    assert str(err.value) == f"{path} row 5: column k: duplicate 'b'"


def test_a_bad_cell_of_a_later_block_comes_before_a_repeated_key(tmp_path):
    rows = [[f"s{i}", repr(i / 4)] for i in range(2 * _ROWS)]
    rows[5][0] = "s1"  # in the first block
    rows[_ROWS + 5][1] = "x"  # in the second
    path = tmp_path / "faults.csv"
    path.write_text("\n".join(map(",".join, [["k", "v"], *rows])) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        cli._read_csv(path, {"k": "key", "v": "float"})
    assert str(err.value) == f"{path} row {_ROWS + 7}: column v: not a finite number: 'x'"


def test_distinct_keys_whose_hashes_repeat_are_read(tmp_path, monkeypatch):
    path = tmp_path / "keys.csv"
    path.write_text("k,v\na,1\nb,2\nc,3\n", encoding="utf-8")
    monkeypatch.setattr(cli, "hash", lambda key: 7, raising=False)
    keys, _ = cli._read_csv(path, {"k": "key", "v": "float"})
    assert keys == ["a", "b", "c"]


def test_a_field_over_the_csv_limit_in_a_later_block_names_its_record(tmp_path, capsys):
    limit = csv.field_size_limit()
    rows = [f"s{i},0.5,1.0,0" for i in range(_ROWS + 10)]
    rows[_ROWS + 1] = '"s\n1",0.5,1.0,0'  # one record over two lines
    rows[_ROWS + 4] = '"' + "x" * (limit + 1) + '",0.5,1.0,0'
    path = tmp_path / "predictions.csv"
    path.write_text("\n".join([_CLEAN_CSV["predictions.csv"][0], *rows]) + "\n",
                    encoding="utf-8")
    assert main(["eval", str(path), str(path), "--out", str(tmp_path / "out")]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error:schema: {path} row {_ROWS + 6}: field larger than field limit ({limit})"
    ]


def test_a_header_over_the_csv_limit_is_one_schema_line(tmp_path, capsys):
    limit = csv.field_size_limit()
    path = tmp_path / "labels.csv"
    path.write_text('"' + "x" * (limit + 1) + '",patient_id\n', encoding="utf-8")
    assert main(["km", str(path), "--out", str(tmp_path / "km.csv")]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error:schema: {path} row 1: field larger than field limit ({limit})"
    ]


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("at", [1, _ROWS + 100])  # data rows from 1
def test_an_undecodable_byte_names_its_file_and_row(tmp_path, capsys, at, quoted):
    header, *rows = _CLEAN_CSV["labels.csv"]
    lines = [header.encode()] + [f"s{i},pa,1.0,1,1,0".encode() for i in range(_ROWS + 200)]
    if quoted:  # the csv module reads the file from its first block on
        lines[2] = b'"s1",pa,1.0,1,1,0'
    lines[at] = b"s\xff,pa,1.0,1,1,0"
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["km", str(path), "--out", str(tmp_path / "km.csv")]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error:schema: {path} row {at + 1}: not UTF-8: invalid start byte, got b'\\xff'"
    ]


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("name", ["patients.csv", "labels.csv", "predictions.csv"])
def test_a_byte_order_mark_before_the_header_is_skipped(tmp_path, name, quoted):
    header, *rows = _CLEAN_CSV[name]
    if quoted:  # the csv module reads the file
        rows[0] = '"' + rows[0].replace(",", '",', 1)
    text = "\n".join([header, *rows]) + "\n"
    plain, marked = tmp_path / name, tmp_path / f"marked_{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    read = _READERS[name]
    assert table_columns(read(marked)) == table_columns(read(plain))


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_a_cell_over_the_csv_limit_fails_whatever_else_its_block_holds(tmp_path, quoted):
    limit = csv.field_size_limit()
    header = _CLEAN_CSV["predictions.csv"][0]
    path = tmp_path / "predictions.csv"
    for n, fails in ((limit, False), (limit + 1, True)):
        rows = ["x" * n + ",0.5,1.0,0", '"s1",0.5,1.0,0' if quoted else "s1,0.5,1.0,0"]
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        if fails:
            with pytest.raises(SchemaError) as err:
                read_predictions_csv(path)
            assert str(err.value) == f"{path} row 2: field larger than field limit ({limit})"
        else:
            assert read_predictions_csv(path).scan_ids == ["x" * n, "s1"]


def _count_opens(monkeypatch):
    """The paths the cli module opens from now on, one entry per open."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    return opened


def test_a_labels_contract_break_is_reported_from_one_read(tmp_path, monkeypatch):
    header, *rows = _CLEAN_CSV["labels.csv"]
    path = tmp_path / "labels.csv"
    path.write_text("\n".join([header, *rows, "s2,pc,0.50,0,0,1"]) + "\n", encoding="utf-8")
    opened = _count_opens(monkeypatch)
    with pytest.raises(SchemaError) as err:
        read_labels_csv(path)
    assert str(err.value) == f"{path} row 4: column t_d: p = 0 requires t_d >= 1, got '0.5'"
    assert opened == [path]


@pytest.mark.parametrize("name, column", [
    ("patients.csv", "scan_time"), ("labels.csv", "t_d"), ("predictions.csv", "t_pred"),
])
def test_a_bad_cell_is_reported_from_one_read(tmp_path, monkeypatch, name, column):
    header, *rows = _CLEAN_CSV[name]
    cells = rows[1].split(",")
    cells[header.split(",").index(column)] = "x"
    path = tmp_path / name
    path.write_text("\n".join([header, rows[0], ",".join(cells)]) + "\n", encoding="utf-8")
    opened = _count_opens(monkeypatch)
    with pytest.raises(SchemaError) as err:
        _READERS[name](path)
    assert str(err.value) == f"{path} row 3: column {column}: not a finite number: 'x'"
    assert opened == [path]


# ---------------------------------------------------------------------------
# commands


def test_cmd_label_matches_in_memory_derivation(tmp_path):
    patients = tmp_path / "patients.csv"
    labels_out = tmp_path / "labels.csv"
    write_patients_csv(patients, _patients())
    n = cmd_label(patients, labels_out)
    expected = derive_scan_labels(_patients())
    assert n == len(expected)
    assert table_columns(read_labels_csv(labels_out)) == table_columns(expected)


def test_cmd_label_reads_patients_rows_in_any_order(tmp_path):
    cfg = build_experiment_config({"cohort.n_patients": "12", "cohort.seed": "4"})
    cmd_synth(cfg, tmp_path)
    header, *rows = (tmp_path / "patients.csv").read_text(encoding="utf-8").splitlines()
    per_patient = {}
    for row in rows:
        per_patient.setdefault(row.split(",")[0], []).append(row)
    # round robin over the patients, each patient's scans latest first:
    # patients interleave, scans run backwards in time, and the patients
    # still appear first in their original order
    scans = [list(reversed(own)) for own in per_patient.values()]
    shuffled = [own[r] for r in range(max(map(len, scans))) for own in scans if r < len(own)]
    assert shuffled != rows and sorted(shuffled) == sorted(rows)
    (tmp_path / "shuffled.csv").write_text("\n".join([header, *shuffled]) + "\n", encoding="utf-8")
    cmd_label(tmp_path / "patients.csv", tmp_path / "sorted_labels.csv")
    cmd_label(tmp_path / "shuffled.csv", tmp_path / "shuffled_labels.csv")
    assert (tmp_path / "shuffled_labels.csv").read_bytes() == (
        tmp_path / "sorted_labels.csv").read_bytes()


@pytest.mark.parametrize("cancer", [0, 1])
def test_cmd_label_keeps_ids_that_differ_by_a_trailing_nul_apart(tmp_path, cancer):
    # "a" and "a\0" are two patients, each with its last scan alone
    (tmp_path / "patients.csv").write_text(
        "patient_id,is_cancer,diagnosis_time,scan_id,scan_time\n"
        f"a,0,,s1,0.0\na\0,{cancer},,s2,1.0\nb,0,,s3,0.0\n", encoding="utf-8")
    cmd_label(tmp_path / "patients.csv", tmp_path / "labels.csv")
    labels = read_labels_csv(tmp_path / "labels.csv")
    assert labels.patient_ids == ["a", "a\0", "b"]
    assert labels.t_d.tolist() == [1.0, 1.0 - cancer, 1.0]


def test_cmd_label_empty_input(tmp_path):
    patients = tmp_path / "patients.csv"
    labels_out = tmp_path / "labels.csv"
    write_patients_csv(patients, patient_table())
    assert cmd_label(patients, labels_out) == 0
    assert labels_out.read_text(encoding="utf-8") == "scan_id,patient_id,t_d,p,y,right_censored\n"


def test_cmd_synth_counts_and_determinism(tmp_path):
    cfg = build_experiment_config({"cohort.n_patients": "40", "cohort.seed": "5"})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    s1 = cmd_synth(cfg, out1)
    s2 = cmd_synth(cfg, out2)
    assert s1 == s2
    for name in ("patients.csv", "scans.csv", "truth.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    patients = read_patients_csv(out1 / "patients.csv")
    assert len(set(patients.patient_ids)) == s1.n_patients == 40
    assert len(patients) == s1.n_scans
    scan_ids, features = read_scans_csv(out1 / "scans.csv")
    assert len(scan_ids) == len(features) == s1.n_scans
    truth_lines = (out1 / "truth.csv").read_text(encoding="utf-8").splitlines()
    assert len(truth_lines) == 41  # header + one row per patient


def _pipeline_cfg(tmp_path, mode="multi_task", seed=0):
    out = tmp_path / "data"
    return build_experiment_config(
        {
            "mode": mode,
            "k_folds": "3",
            "paths.labels": str(out / "labels.csv"),
            "paths.scans": str(out / "scans.csv"),
            "cohort.n_patients": "45",
            "cohort.feature_dim": "3",
            "cohort.seed": str(seed),
            "model.hidden_dims": "6",
            "train.max_epochs": "4",
            "train.lr_decay_epochs": "3",
            "train.batch_size": "16",
        }
    ), out


def test_cmd_crossval_pipeline(tmp_path):
    from cfpt.cli import cmd_crossval

    cfg, out = _pipeline_cfg(tmp_path)
    cmd_synth(cfg, out)
    cmd_label(out / "patients.csv", out / "labels.csv")
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    cmd_crossval(cfg, run1)
    cmd_crossval(cfg, run2)
    assert (run1 / "predictions.csv").read_bytes() == (run2 / "predictions.csv").read_bytes()

    labels = read_labels_csv(out / "labels.csv")
    preds = read_predictions_csv(run1 / "predictions.csv")
    assert len(preds) == len(labels)
    assert sorted(preds.scan_ids) == sorted(labels.scan_ids)

    # each scan's fold must equal its patient's test fold
    fold_rows = (run1 / "folds.csv").read_text(encoding="utf-8").splitlines()[1:]
    test_fold = dict(row.split(",") for row in fold_rows)
    patient_of = dict(zip(labels.scan_ids, labels.patient_ids))
    for sid, f in zip(preds.scan_ids, preds.fold.tolist()):
        assert int(test_fold[patient_of[sid]]) == f

    for k in range(3):
        hist = (run1 / f"history_fold{k}.csv").read_text(encoding="utf-8").splitlines()
        assert hist[0] == "epoch,train_loss,val_loss,val_auc,selected"
        assert len(hist) == 5  # header + 4 epochs
    assert sum(line.endswith(",1") for k in range(3)
               for line in (run1 / f"history_fold{k}.csv").read_text(encoding="utf-8").splitlines()[1:]) == 3


def test_cmd_crossval_requires_paths(tmp_path):
    from cfpt.cli import cmd_crossval

    with pytest.raises(ConfigError, match="paths.labels"):
        cmd_crossval(ExperimentConfig(), tmp_path / "x")


def test_cmd_crossval_refuses_a_labels_file_with_no_rows(tmp_path):
    from cfpt.cli import cmd_crossval

    labels, scans = tmp_path / "labels.csv", tmp_path / "scans.csv"
    labels.write_text(_CLEAN_CSV["labels.csv"][0] + "\n", encoding="utf-8")
    scans.write_text(_CLEAN_CSV["scans.csv"][0] + "\n", encoding="utf-8")
    cfg = ExperimentConfig(paths={"labels": str(labels), "scans": str(scans)})
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(labels))}: no scans to train on$"):
        cmd_crossval(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def _perfect_predictions(labels):
    return PredictionTable(labels.scan_ids, labels.y, np.maximum(labels.t_d, 0.0),
                           np.zeros(len(labels)))


def test_cmd_eval_outputs(tmp_path):
    labels = derive_scan_labels(_patients())
    labels_csv = tmp_path / "labels.csv"
    write_labels_csv(labels_csv, labels)
    preds = _perfect_predictions(labels)
    preds_csv = tmp_path / "preds.csv"
    write_predictions_csv(preds_csv, preds)
    out = tmp_path / "report"
    report = cmd_eval(preds_csv, labels_csv, out)
    assert report.auc == 1.0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "auc: 1.000000" in text
    table = (out / "threshold_table.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "threshold,recall,noncancer_beyond"
    assert len(table) == 6  # header + thresholds 1..5
    for name in ("roc.csv", "km.csv", "scatter_cancer.csv", "scatter_noncancer.csv"):
        assert (out / name).exists()


def test_cmd_eval_mcnemar_and_mismatch(tmp_path):
    labels = derive_scan_labels(_patients())
    labels_csv = tmp_path / "labels.csv"
    write_labels_csv(labels_csv, labels)
    preds = _perfect_predictions(labels)
    preds_csv = tmp_path / "preds.csv"
    write_predictions_csv(preds_csv, preds)
    report = cmd_eval(preds_csv, labels_csv, tmp_path / "r2", predictions_b_csv=preds_csv)
    assert report.mcnemar_result is not None
    assert "mcnemar" in (tmp_path / "r2" / "report.txt").read_text(encoding="utf-8")

    short_csv = tmp_path / "short.csv"
    write_predictions_csv(short_csv, PredictionTable(
        preds.scan_ids[:-1], preds.y_hat[:-1], preds.t_pred[:-1], preds.fold[:-1]))
    with pytest.raises(ValueError, match=preds.scan_ids[-1]):
        cmd_eval(short_csv, labels_csv, tmp_path / "r3")


def test_cmd_km(tmp_path):
    labels = derive_scan_labels(_patients())
    labels_csv = tmp_path / "labels.csv"
    write_labels_csv(labels_csv, labels)
    out = tmp_path / "km.csv"
    km, excluded = cmd_km(labels_csv, out)
    assert excluded == sum(labels.t_d < 0)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time,survival,at_risk,events"
    assert len(lines) == len(km.times) + 1


def test_cmd_km_refuses_labels_with_only_post_biopsy_scans(tmp_path):
    labels_csv, out = tmp_path / "labels.csv", tmp_path / "km.csv"
    labels_csv.write_text(
        "\n".join([_CLEAN_CSV["labels.csv"][0], "s0,pa,-1.0,1,1,0", "s1,pa,-0.5,1,1,0"]) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="no scans with non-negative t_d$"):
        cmd_km(labels_csv, out)
    assert not out.exists()


# ---------------------------------------------------------------------------
# entry point and exit codes


def test_main_success_and_errors(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 10\ncohort.seed = 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "patients.csv").exists()
    captured = capsys.readouterr()
    assert "patients: 10" in captured.out

    assert main(["synth", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:io:")

    bad = tmp_path / "bad.cfg"
    bad.write_text("no.such.key = 1\n", encoding="utf-8")
    assert main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:config:")
    # removed settings, and the input width, which comes from the data
    for line in (
        "loss.prob_clamp = 1e-7\n", "train.init_reg_bias_to_mean = true\n",
        "model.input_dim = 8\n",
    ):
        bad.write_text(line, encoding="utf-8")
        assert main(["crossval", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:config: unknown config key")
    fresh = tmp_path / "fresh"
    for command, line, message in (
        ("synth", "cohort.noise_sd = inf\n", "noise_sd must be finite"),
        ("crossval", "train.weight_decay = inf\n", "weight_decay must be finite"),
    ):
        bad.write_text(line, encoding="utf-8")
        assert main([command, "--config", str(bad), "--out", str(fresh)]) == 1
        assert capsys.readouterr().err.startswith(f"error:config: {message}")
        assert not fresh.exists()

    assert main(["label", str(out / "scans.csv"), "--out", str(out / "l.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:schema:")

    assert main(["label", str(tmp_path / "nope.csv"), "--out", str(out / "l.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:io:")


def test_main_eval_rejects_predictions_outside_their_range(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(_CLEAN_CSV["labels.csv"]) + "\n", encoding="utf-8")
    predictions = tmp_path / "predictions.csv"
    for rows, column in (
        (["s0,7.5,1.0,0", "s1,0.25,2.0,1"], "y_hat"),
        (["s0,0.5,1.0,0", "s1,0.25,2.0,-1"], "fold"),
    ):
        predictions.write_text("\n".join(["scan_id,y_hat,t_pred,fold", *rows]) + "\n",
                               encoding="utf-8")
        assert main(["eval", str(predictions), str(labels), "--out", str(tmp_path / "r")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error:schema: {predictions} row ")
        assert f"column {column}: " in line
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("fold", ["99999999999999999999", "-9223372036854775809"])
def test_main_eval_names_an_integer_beyond_int64(tmp_path, capsys, fold):
    labels, predictions = tmp_path / "labels.csv", tmp_path / "predictions.csv"
    labels.write_text("\n".join(_CLEAN_CSV["labels.csv"]) + "\n", encoding="utf-8")
    header, *rows = _CLEAN_CSV["predictions.csv"]
    predictions.write_text("\n".join([header, rows[0], f"s1,0.25,2.0,{fold}"]) + "\n",
                           encoding="utf-8")
    assert main(["eval", str(predictions), str(labels), "--out", str(tmp_path / "r")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error:schema: {predictions} row 3: column fold: not an integer >= 0: {fold!r}"
    assert not (tmp_path / "r").exists()


# each integer column of an input file, and a command that reads the file
_INTEGER_COLUMNS = [
    (name, column, kind)
    for name, schema in (
        ("patients.csv", cli._PATIENTS), ("labels.csv", cli._LABELS),
        ("predictions.csv", cli._PREDICTIONS),
    )
    for column, kind in schema.items() if kind in ("int", "index", "bit")
]
_READING_COMMAND = {
    "patients.csv": ["label", "{patients}", "--out", "{out}/labels.csv"],
    "labels.csv": ["km", "{labels}", "--out", "{out}/km.csv"],
    "predictions.csv": ["eval", "{predictions}", "{labels}", "--out", "{out}/eval"],
}


@pytest.mark.parametrize("token", ["99999999999999999999", "-9223372036854775809"])
@pytest.mark.parametrize("name, column, kind", _INTEGER_COLUMNS)
def test_main_names_an_integer_beyond_int64_in_every_integer_column(
    tmp_path, capsys, name, column, kind, token
):
    files = {}
    for file, lines in _CLEAN_CSV.items():
        header, *rows = lines
        if file == name:
            cells = rows[1].split(",")
            cells[header.split(",").index(column)] = token
            rows[1] = ",".join(cells)
        files[file.removesuffix(".csv")] = tmp_path / file
        (tmp_path / file).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    argv = [a.format(out=tmp_path / "out", **files) for a in _READING_COMMAND[name]]
    assert main(argv) == 1
    complaint = cli._PARSE[kind][1].format(token)
    assert capsys.readouterr().err.splitlines() == [
        f"error:schema: {tmp_path / name} row 3: column {column}: {complaint}"
    ]
    assert not (tmp_path / "out").exists()


def test_main_eval_prints_mcnemar_of_a_second_prediction_set(tmp_path, capsys):
    labels = derive_scan_labels(_patients())
    labels_csv, preds_csv, b_csv = (tmp_path / name for name in ("l.csv", "a.csv", "b.csv"))
    write_labels_csv(labels_csv, labels)
    preds = _perfect_predictions(labels)
    write_predictions_csv(preds_csv, preds)
    preds.y_hat[0] = 1.0 - preds.y_hat[0]  # set b misclassifies one scan
    write_predictions_csv(b_csv, preds)
    argv = ["eval", str(preds_csv), str(labels_csv), "--predictions-b", str(b_csv)]
    assert main([*argv, "--out", str(tmp_path / "r")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[:2] == [
        "auc: 1.000000", "mcnemar: b=1 c=0 p=1 (exact-binomial)",
    ]


@pytest.mark.parametrize("row, column", [
    ("s2,pc,3.0,0,1,1", "y"),
    ("s2,pc,0.5,0,0,1", "t_d"),
    ("s2,pc,3.0,0,0,0", "right_censored"),
    ("s2,pc,3.0,1,0,1", "right_censored"),
])
def test_main_km_and_eval_refuse_labels_that_break_the_contract(tmp_path, capsys, row, column):
    header, *rows = _CLEAN_CSV["labels.csv"]
    labels, predictions = tmp_path / "labels.csv", tmp_path / "predictions.csv"
    labels.write_text("\n".join([header, *rows, row]) + "\n", encoding="utf-8")
    predictions.write_text(
        "\n".join([*_CLEAN_CSV["predictions.csv"], "s2,0.75,3.0,2"]) + "\n", encoding="utf-8"
    )
    for argv, out in (
        (["km", str(labels)], tmp_path / "km.csv"),
        (["eval", str(predictions), str(labels)], tmp_path / "report"),
    ):
        assert main([*argv, "--out", str(out)]) == 1
        (line,) = _error_lines(capsys.readouterr().err)
        assert line.startswith(f"error:schema: {labels} row 4: column {column}: ")
        assert not out.exists()


def test_main_synth_refused_features_leave_no_csv(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 10\ncohort.noise_sd = 1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:data: ")
    assert list(out.glob("*.csv")) == []


def test_main_synth_rejects_a_schedule_too_long_to_build(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "cohort.n_patients = 2\ncohort.dropout_prob = 0\ncohort.study_horizon = 1e12\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:config: study_horizon")
    assert not out.exists()


def test_main_label_rejects_scan_id_shared_by_two_patients(tmp_path, capsys):
    patients = tmp_path / "patients.csv"
    patients.write_text(
        "patient_id,is_cancer,diagnosis_time,scan_id,scan_time\n"
        "pa,0,,s1,0.0\n"
        "pb,0,,s1,1.0\n",
        encoding="utf-8",
    )
    labels = tmp_path / "labels.csv"
    assert main(["label", str(patients), "--out", str(labels)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:schema:")
    assert f"{patients} row 3: column scan_id" in err
    assert not labels.exists()


def test_main_label_and_km_keep_ids_that_need_quotes(tmp_path, capsys):
    ids = {"p,1": ["s,0", 's"1'], 'p"2': ["s\r2", "s\n3"], "p\r\n3": ["s\r\n4", ""]}
    rows = [
        f"{_quoted(pid)},0,,{_quoted(sid)},{float(t)}"
        for pid, sids in ids.items() for t, sid in enumerate(sids)
    ]
    patients, labels = tmp_path / "patients.csv", tmp_path / "labels.csv"
    patients.write_bytes("\n".join([_CLEAN_CSV["patients.csv"][0], *rows, ""]).encode("utf-8"))
    assert main(["label", str(patients), "--out", str(labels)]) == 0
    assert main(["km", str(labels), "--out", str(tmp_path / "km.csv")]) == 0, capsys.readouterr().err
    back = read_labels_csv(labels)
    assert back.scan_ids == [sid for sids in ids.values() for sid in sids]
    assert back.patient_ids == [pid for pid, sids in ids.items() for _ in sids]


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


def test_main_crossval_nan_input_fails_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    data = tmp_path / "data"
    cfg_path.write_text(
        f"cohort.n_patients = 12\nk_folds = 3\n"
        f"paths.labels = {data / 'labels.csv'}\npaths.scans = {data / 'scans.csv'}\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["label", str(data / "patients.csv"), "--out", str(data / "labels.csv")]) == 0
    capsys.readouterr()
    clean = {name: (data / name).read_text(encoding="utf-8") for name in ("scans.csv", "labels.csv")}

    lines = clean["scans.csv"].splitlines()
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    (data / "scans.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    run = tmp_path / "run"
    assert main(["crossval", "--config", str(cfg_path), "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:schema:")
    assert f"{data / 'scans.csv'} row 4: column f1" in err
    assert not run.exists()

    (data / "scans.csv").write_text(clean["scans.csv"], encoding="utf-8")
    lines = clean["labels.csv"].splitlines()
    cells = lines[1].split(",")
    cells[2] = "inf"
    lines[1] = ",".join(cells)
    (data / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["crossval", "--config", str(cfg_path), "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:schema:")
    assert f"{data / 'labels.csv'} row 2: column t_d" in err
    assert not run.exists()


def _crossval_inputs(tmp_path, extra=""):
    """A 60-patient cohort on disk and a crossval config over it."""
    cfg_path = tmp_path / "exp.cfg"
    data = tmp_path / "data"
    cfg_path.write_text(
        f"cohort.n_patients = 60\nk_folds = 3\nmodel.hidden_dims = 8\n"
        f"train.max_epochs = 3\ntrain.lr_decay_epochs = 2\n{extra}"
        f"paths.labels = {data / 'labels.csv'}\npaths.scans = {data / 'scans.csv'}\n",
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["label", str(data / "patients.csv"), "--out", str(data / "labels.csv")]) == 0
    return cfg_path


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_crossval_fold_error_is_one_line_and_leaves_no_worker(tmp_path, capfd):
    # a step size of 1e300 overflows the first minibatch of every fold
    cfg_path = _crossval_inputs(tmp_path, "train.lr0 = 1e300\n")
    capfd.readouterr()
    run = tmp_path / "run"
    assert main(["crossval", "--config", str(cfg_path), "--out", str(run)]) == 1
    # fd-level capture: worker processes write to the same stderr
    assert _error_lines(capfd.readouterr().err) == [
        "error:data: fold 0: training diverged: non-finite predictions in a minibatch"
    ]
    assert multiprocessing.active_children() == []
    assert not run.exists()


def test_main_crossval_of_one_class_is_one_line_before_any_fold_trains(tmp_path, capfd):
    # onsets a million years out: no cancer is found, so every scan has y = 0
    cfg_path = _crossval_inputs(tmp_path, "cohort.onset_scale = 1e6\n")
    assert "malignant scans: 0" in capfd.readouterr().out.splitlines()
    run = tmp_path / "run"
    assert main(["crossval", "--config", str(cfg_path), "--out", str(run)]) == 1
    assert _error_lines(capfd.readouterr().err) == [
        "error:data: every scan has y = 0: crossval needs both classes"
    ]
    assert multiprocessing.active_children() == []
    assert not run.exists()


@pytest.mark.skipif(
    cfpt.model._available_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods(),
    reason="crossval runs in-process here: no worker to lose",
)
def test_main_crossval_dead_worker_is_one_line_and_leaves_no_worker(tmp_path, capfd, monkeypatch):
    cfg_path = _crossval_inputs(tmp_path)
    capfd.readouterr()
    parent = os.getpid()
    real_train = cfpt.model.train

    def dies_in_a_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real_train(*args)

    monkeypatch.setattr(cfpt.model, "train", dies_in_a_worker)
    run = tmp_path / "run"
    assert main(["crossval", "--config", str(cfg_path), "--out", str(run)]) == 1
    err = capfd.readouterr().err
    (line,) = _error_lines(err)
    assert line.startswith("error:worker: ")
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not run.exists()


def test_main_label_and_km_flow(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 12\ncohort.seed = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["label", str(out / "patients.csv"), "--out", str(out / "labels.csv")]) == 0
    assert main(["km", str(out / "labels.csv"), "--out", str(out / "km.csv")]) == 0
    captured = capsys.readouterr()
    assert "wrote curve to" in captured.out


@pytest.mark.parametrize("command", ["label", "km"])
def test_main_label_and_km_create_their_out_directory(tmp_path, capsys, command):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 12\ncohort.seed = 3\n", encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["label", str(data / "patients.csv"), "--out", str(data / "labels.csv")]) == 0
    source = data / ("patients.csv" if command == "label" else "labels.csv")
    out = tmp_path / "missing" / "deeper" / "out.csv"
    capsys.readouterr()
    assert main([command, str(source), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8").startswith(
        "scan_id,patient_id" if command == "label" else "time,survival")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 8.00 TiB for an array"),
     "Unable to allocate 8.00 TiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_main_memory_error_is_one_line(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(cli, "cmd_label", exhausted)
    assert main(["label", str(tmp_path / "p.csv"), "--out", str(tmp_path / "l.csv")]) == 1
    assert capsys.readouterr().err == f"error:memory: {message}\n"


def test_main_crossval_worker_memory_error_is_one_line(tmp_path, capfd, monkeypatch):
    cfg_path = _crossval_inputs(tmp_path)
    capfd.readouterr()

    def exhausted(*args):  # in the fold's worker process, where there are workers
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cfpt.model, "train", exhausted)
    run = tmp_path / "run"
    assert main(["crossval", "--config", str(cfg_path), "--out", str(run)]) == 1
    err = capfd.readouterr().err
    assert _error_lines(err) == ["error:memory: Unable to allocate 8.00 TiB for an array"]
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not run.exists()


def test_main_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 15\ncohort.seed = 1\n", encoding="utf-8")
    a, b, c = (tmp_path / x for x in "abc")
    main(["synth", "--config", str(cfg_path), "--out", str(a)])
    main(["synth", "--config", str(cfg_path), "--out", str(b), "--seed", "99"])
    main(["synth", "--config", str(cfg_path), "--out", str(c), "--seed", "99"])
    assert (a / "patients.csv").read_bytes() != (b / "patients.csv").read_bytes()
    assert (b / "patients.csv").read_bytes() == (c / "patients.csv").read_bytes()


# ---------------------------------------------------------------------------
# bundled configs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_smoke_config_round_trip(tmp_path, monkeypatch, capsys):
    # the README's command-line round trip, paths relative to the work directory
    monkeypatch.chdir(tmp_path)
    smoke = str(CONFIGS / "smoke.cfg")
    assert main(["synth", "--config", smoke, "--out", "data"]) == 0
    assert main(["label", "data/patients.csv", "--out", "data/labels.csv"]) == 0
    assert main(["crossval", "--config", smoke, "--out", "run"]) == 0
    capsys.readouterr()
    assert main(["eval", "run/predictions.csv", "data/labels.csv", "--out", "report"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "auc: 0.940292", "wrote report and csv files to report",
    ]


def test_reference_config_loads():
    cfg = load_experiment_config(CONFIGS / "reference.cfg")
    assert cfg.cohort.n_patients == 1500
    assert cfg.paths == {"labels": "data/labels.csv", "scans": "data/scans.csv"}
