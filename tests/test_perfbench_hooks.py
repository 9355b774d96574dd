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
