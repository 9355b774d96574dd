import multiprocessing
import os
import re
from dataclasses import fields

import numpy as np
import pytest

import cfpt.model
from cfpt.cli import (
    _CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    SchemaError,
    build_experiment_config,
    cmd_eval,
    cmd_km,
    cmd_label,
    cmd_losscheck,
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
from cfpt.labels import PatientRecord, derive_scan_labels
from cfpt.losses import LossConfig, Prediction
from cfpt.model import TrainConfig
from cfpt.simulate import CohortConfig


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
    assert cfg.hidden_dims == (16, 8)
    assert cfg.model_seed == 3
    assert cfg.train.max_epochs == 50
    assert cfg.train.lr0 == 2e-3
    assert cfg.train.lr_decay_epochs == (10, 20)
    assert cfg.train.loss.lam == 0.25
    assert cfg.train.loss.epsilon == 0.5


def test_config_unknown_key_and_bad_value():
    # the last two are settings that became constants
    for key in ("train.momentum", "loss.prob_clamp", "train.init_reg_bias_to_mean"):
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
        "top": ExperimentConfig, "cohort": CohortConfig, "train": TrainConfig,
        "loss": LossConfig,
    }
    for key, (bucket, name, _) in _CONFIG_KEYS.items():
        if bucket != "paths":
            assert name in {f.name for f in fields(targets[bucket])}, key


def test_config_mode_invariants():
    single = build_experiment_config({"mode": "single_task", "loss.lambda": "0.5"})
    assert single.train.loss.lam == 0.0
    with pytest.raises(ConfigError, match="multi_task"):
        build_experiment_config({"mode": "multi_task", "loss.lambda": "0"})
    with pytest.raises(ConfigError):
        build_experiment_config({"mode": "dual"})
    assert ExperimentConfig().train.loss.lam == 0.5


def test_load_experiment_config_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = multi_task\ncohort.seed = 1\ntrain.seed = 2\n", encoding="utf-8")
    cfg = load_experiment_config(str(path), seed=42, mode="single_task")
    assert cfg.mode == "single_task"
    assert cfg.train.loss.lam == 0.0
    assert cfg.cohort.seed == 42
    assert cfg.train.seed == 42
    assert cfg.model_seed == 42
    plain = load_experiment_config(str(path))
    assert plain.cohort.seed == 1
    assert plain.train.seed == 2


# ---------------------------------------------------------------------------
# CSV round-trips


def _records():
    return [
        PatientRecord("pa", (0.0, 1.0, 2.5), True, diagnosis_time=1.8,
                      scan_ids=("pa-s0", "pa-s1", "pa-s2")),
        PatientRecord("pb", (0.0, 2.0), False, scan_ids=("pb-s0", "pb-s1")),
        PatientRecord("pc", (0.5,), True, diagnosis_time=None, scan_ids=("pc-s0",)),
    ]


def test_patients_csv_round_trip(tmp_path):
    path = tmp_path / "patients.csv"
    recs = _records()
    write_patients_csv(path, recs)
    assert read_patients_csv(path) == recs


def test_labels_csv_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = [lb for rec in _records() for lb in derive_scan_labels(rec)]
    write_labels_csv(path, labels)
    assert read_labels_csv(path) == labels


def test_predictions_csv_round_trip(tmp_path):
    path = tmp_path / "predictions.csv"
    preds = [Prediction("s0", 0.1234567890123456, -1.5), Prediction("s1", 1.0, 3.0)]
    write_predictions_csv(path, preds, [0, 3])
    back, folds = read_predictions_csv(path)
    assert back == preds
    assert folds == [0, 3]


def test_scans_csv_round_trip(tmp_path):
    path = tmp_path / "scans.csv"
    rng = np.random.default_rng(41)
    feats = {f"s{i}": rng.normal(size=3) for i in range(5)}
    write_scans_csv(path, feats, sorted(feats))
    back = read_scans_csv(path)
    assert sorted(back) == sorted(feats)
    for sid in feats:
        assert np.array_equal(back[sid], feats[sid])


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
        ("labels.csv", "scan_id", "s0"),
        ("predictions.csv", "y_hat", "x"),
        ("predictions.csv", "y_hat", "nan"),
        ("predictions.csv", "t_pred", "inf"),
        ("predictions.csv", "fold", "x"),
        ("predictions.csv", "fold", "1.5"),
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


# ---------------------------------------------------------------------------
# commands


def test_cmd_label_matches_in_memory_derivation(tmp_path):
    recs = _records()
    patients = tmp_path / "patients.csv"
    labels_out = tmp_path / "labels.csv"
    write_patients_csv(patients, recs)
    n = cmd_label(patients, labels_out)
    expected = [lb for rec in recs for lb in derive_scan_labels(rec)]
    assert n == len(expected)
    assert read_labels_csv(labels_out) == expected


def test_cmd_label_empty_input(tmp_path):
    patients = tmp_path / "patients.csv"
    labels_out = tmp_path / "labels.csv"
    write_patients_csv(patients, [])
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
    records = read_patients_csv(out1 / "patients.csv")
    assert len(records) == s1.n_patients == 40
    assert sum(len(r.scan_times) for r in records) == s1.n_scans
    assert len(read_scans_csv(out1 / "scans.csv")) == s1.n_scans
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
    preds, folds = read_predictions_csv(run1 / "predictions.csv")
    assert len(preds) == len(labels)
    assert sorted(pr.scan_id for pr in preds) == sorted(lb.scan_id for lb in labels)

    # each scan's fold must equal its patient's test fold
    fold_rows = (run1 / "folds.csv").read_text(encoding="utf-8").splitlines()[1:]
    test_fold = dict(row.split(",") for row in fold_rows)
    patient_of = {lb.scan_id: lb.patient_id for lb in labels}
    for pr, f in zip(preds, folds):
        assert int(test_fold[patient_of[pr.scan_id]]) == f

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


def test_cmd_eval_outputs(tmp_path):
    labels = [lb for rec in _records() for lb in derive_scan_labels(rec)]
    labels_csv = tmp_path / "labels.csv"
    write_labels_csv(labels_csv, labels)
    preds = [Prediction(lb.scan_id, float(lb.y), max(lb.t_d, 0.0)) for lb in labels]
    preds_csv = tmp_path / "preds.csv"
    write_predictions_csv(preds_csv, preds, [0] * len(preds))
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
    labels = [lb for rec in _records() for lb in derive_scan_labels(rec)]
    labels_csv = tmp_path / "labels.csv"
    write_labels_csv(labels_csv, labels)
    preds = [Prediction(lb.scan_id, float(lb.y), max(lb.t_d, 0.0)) for lb in labels]
    preds_csv = tmp_path / "preds.csv"
    write_predictions_csv(preds_csv, preds, [0] * len(preds))
    report = cmd_eval(preds_csv, labels_csv, tmp_path / "r2", predictions_b_csv=preds_csv)
    assert report.mcnemar_result is not None
    assert "mcnemar" in (tmp_path / "r2" / "report.txt").read_text(encoding="utf-8")

    short_csv = tmp_path / "short.csv"
    write_predictions_csv(short_csv, preds[:-1], [0] * (len(preds) - 1))
    with pytest.raises(ValueError, match=preds[-1].scan_id):
        cmd_eval(short_csv, labels_csv, tmp_path / "r3")


def test_cmd_km(tmp_path):
    recs = _records()
    labels = [lb for rec in recs for lb in derive_scan_labels(rec)]
    labels_csv = tmp_path / "labels.csv"
    write_labels_csv(labels_csv, labels)
    out = tmp_path / "km.csv"
    km, excluded = cmd_km(labels_csv, out)
    assert excluded == sum(lb.t_d < 0 for lb in labels)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time,survival,at_risk,events"
    assert len(lines) == len(km.times) + 1


def test_cmd_losscheck_passes():
    ok, lines = cmd_losscheck(seed=7, n=100)
    assert ok
    assert lines[-1] == "losscheck: PASS"
    assert sum("ok" in line for line in lines) == 4


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
    for line in ("loss.prob_clamp = 1e-7\n", "train.init_reg_bias_to_mean = true\n"):
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
    assert main(["losscheck", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "losscheck: PASS" in captured.out


def test_main_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("cohort.n_patients = 15\ncohort.seed = 1\n", encoding="utf-8")
    a, b, c = (tmp_path / x for x in "abc")
    main(["synth", "--config", str(cfg_path), "--out", str(a)])
    main(["synth", "--config", str(cfg_path), "--out", str(b), "--seed", "99"])
    main(["synth", "--config", str(cfg_path), "--out", str(c), "--seed", "99"])
    assert (a / "patients.csv").read_bytes() != (b / "patients.csv").read_bytes()
    assert (b / "patients.csv").read_bytes() == (c / "patients.csv").read_bytes()
