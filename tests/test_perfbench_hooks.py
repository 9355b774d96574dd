"""The benchmark's tracer (perfbench/spans.py) finds what it wraps in cfpt.

The tracer wraps cfpt functions by module attribute name and counts the rows
of the file named by a CSV function's first argument, so a rename or a
reordered signature in cfpt would quietly break the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path


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
