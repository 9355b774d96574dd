"""The benchmark (perfbench/) still finds what it calls and wraps in cfpt.

The tracer wraps cfpt functions by module attribute name and counts the rows
of the file named by a CSV function's first argument, and the cohort-io
workload calls the crossval loader directly, so a rename, a reordered
signature or a changed return shape in cfpt would quietly break the
benchmark.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_exists():
    assert _spans().missing_targets() == []


def test_csv_targets_take_the_path_first():
    targets = _spans()._csv_targets()
    assert targets
    for mod, attr, _ in targets:
        fn = getattr(importlib.import_module(mod), attr)
        assert next(iter(inspect.signature(fn).parameters)) == "path", attr


def test_cohort_io_loader_call_keeps_label_order(tmp_path):
    # cohort-io times exactly this call on the files synth and label write
    from cfpt.cli import main, read_labels_csv, read_scans_csv
    from cfpt.model import build_dataset

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("cohort.n_patients = 30\ncohort.feature_dim = 3\n", encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["label", str(data / "patients.csv"), "--out", str(data / "labels.csv")]) == 0
    ds = build_dataset(read_labels_csv(data / "labels.csv"), read_scans_csv(data / "scans.csv"))
    rows = (data / "labels.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert list(ds.scan_ids) == [row.split(",")[0] for row in rows]
    assert ds.features.shape == (len(rows), 3 + 1)
    assert np.isfinite(ds.features).all()
    scans = (data / "scans.csv").read_text(encoding="utf-8").splitlines()[1:]
    features = {sid: list(map(float, cells)) for sid, *cells in (s.split(",") for s in scans)}
    assert ds.features.tolist() == [features[sid] for sid in ds.scan_ids]


def test_train_steps_through_the_traced_backward_and_adam_step(monkeypatch):
    # the tracer wraps cfpt.model.backward and cfpt.model.adam_step; a step
    # that reached the kernels by another name would leave both at 0 calls
    import cfpt.model
    from cfpt.model import ModelConfig, ScanDataset, TrainConfig, train

    calls = dict.fromkeys(["backward", "adam_step"], 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cfpt.model, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cfpt.model, name, counted)

    rng = np.random.default_rng(0)

    def scans(prefix, n):
        p = np.arange(n) % 2
        return ScanDataset(
            [f"{prefix}s{i}" for i in range(n)], [f"{prefix}p{i}" for i in range(n)],
            rng.normal(size=(n, 3)) + p[:, None], rng.uniform(1.0, 5.0, n), p, p,
        )

    n_train, batch_size, epochs = 21, 8, 3  # every epoch ends on a partial batch
    train([(scans("t", n_train), scans("v", 6), ModelConfig(hidden_dims=(4,)),
            TrainConfig(max_epochs=epochs, batch_size=batch_size))])
    steps = math.ceil(n_train / batch_size) * epochs
    assert calls == {"backward": steps, "adam_step": steps}


def test_crossval_trains_through_the_traced_train(monkeypatch):
    # the tracer's model.train target wraps cfpt.model.train; a crossval that
    # trained its folds by another name would leave model.train.self_s at 0
    import cfpt.model
    from cfpt.model import ModelConfig, ScanDataset, TrainConfig, run_crossval

    calls = []
    real_train = cfpt.model.train

    def spy(folds):
        calls.append(len(folds))
        return real_train(folds)

    monkeypatch.setattr(cfpt.model, "train", spy)
    # one CPU: the folds train in this process, where the tracer runs
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 1)
    rng = np.random.default_rng(1)
    n = 24
    p = np.arange(n) % 2
    ds = ScanDataset(
        [f"s{i}" for i in range(n)], [f"p{i}" for i in range(n)],
        rng.normal(size=(n, 3)) + p[:, None], rng.uniform(1.0, 5.0, n), p, p,
    )
    for k in (2, 5):
        run_crossval(ds, ModelConfig(hidden_dims=(4,)), TrainConfig(max_epochs=1), k=k)
    assert calls == [2, 5]
    spans = _spans()
    assert ("cfpt.model", "train", "model.train") in spans.TARGETS
    assert spans.missing_targets() == []
