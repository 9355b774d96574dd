"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics computed from its spans.

A span is one call of a wrapped cfpt function, kept as the list
``[name, start, end, parent, run, rows]``: ``parent`` is the index of the
enclosing span (-1 for a root), ``run`` the operation it belongs to, and
``rows`` the data rows of the CSV file a ``read_*``/``write_*`` call
touched. cfpt modules import each other's functions by name, so each
function is wrapped in the namespace of the module that calls it
(``cfpt.model.crl``, not ``cfpt.losses.crl``).
"""

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_ORIGINAL = "__perfbench_original__"

# (module, attribute, span name). A module may reach one function under
# several names; each is wrapped where its caller looks it up.
TARGETS = [
    ("cfpt.cli", "cmd_synth", "cli.stage.synth"),
    ("cfpt.cli", "cmd_label", "cli.stage.label"),
    ("cfpt.cli", "cmd_crossval", "cli.stage.crossval"),
    ("cfpt.cli", "cmd_eval", "cli.stage.eval"),
    ("cfpt.cli", "cmd_km", "cli.stage.km"),
    ("cfpt.cli", "generate_cohort", "simulate.generate_cohort"),
    ("cfpt.cli", "derive_scan_labels", "labels.derive_scan_labels"),
    ("cfpt.simulate", "derive_scan_labels", "labels.derive_scan_labels"),
    ("cfpt.cli", "build_dataset", "model.build_dataset"),
    ("cfpt.model", "build_dataset", "model.build_dataset"),
    ("cfpt.cli", "run_crossval", "model.run_crossval"),
    ("cfpt.model", "train", "model.train"),
    ("cfpt.model", "predict", "model.predict"),
    ("cfpt.model", "backward", "model.backward"),
    ("cfpt.model", "adam_step", "model.adam_step"),
    ("cfpt.model", "crl", "losses.crl"),
    ("cfpt.model", "crl_grad", "losses.crl_grad"),
    ("cfpt.model", "cel", "losses.cel"),
    ("cfpt.model", "roc_auc", "metrics.roc_auc"),
    ("cfpt.metrics", "roc_auc", "metrics.roc_auc"),
    ("cfpt.cli", "evaluate", "metrics.evaluate"),
    ("cfpt.cli", "km_estimate", "metrics.km_estimate"),
    ("cfpt.metrics", "km_estimate", "metrics.km_estimate"),
]

# Span name of a loss call -> suffix naming its caller.
_LOSS_CALLER = {"model.backward": "train", "model.train": "val"}


def _csv_targets():
    """Every ``read_*_csv`` / ``write_*_csv`` function in cfpt.cli."""
    cli = importlib.import_module("cfpt.cli")
    return [
        ("cfpt.cli", attr, f"cli.{attr}")
        for attr in sorted(vars(cli))
        if attr.endswith("_csv") and attr.startswith(("read_", "write_"))
        and callable(getattr(cli, attr))
    ]


def all_targets():
    return TARGETS + _csv_targets()


def missing_targets():
    """Targets whose module attribute does not exist (nothing to wrap)."""
    return [
        f"{mod}.{attr}" for mod, attr, _ in all_targets()
        if not hasattr(importlib.import_module(mod), attr)
    ]


def wrapped_names():
    """Qualified names of targets that currently hold a tracing wrapper."""
    out = []
    for mod, attr, _ in all_targets():
        fn = getattr(importlib.import_module(mod), attr, None)
        if hasattr(fn, _ORIGINAL):
            out.append(f"{mod}.{attr}")
    return out


def data_rows(path) -> int:
    """Lines of a CSV file after its header."""
    with open(path, "rb") as fh:
        return max(fh.read().count(b"\n") - 1, 0)


class Tracer:
    """Wraps the targets on :meth:`install`, records spans while operations
    run inside :meth:`run`, and puts every original back on :meth:`restore`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._run = -1

    def install(self):
        for mod, attr, name in all_targets():
            module = importlib.import_module(mod)
            if hasattr(module, attr):
                self._wrap(module, attr, name)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        left = wrapped_names()
        if left:
            raise RuntimeError(f"tracing wrappers left in place: {left}")

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._run, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr, name):
        original = getattr(module, attr)
        counts_rows = name.startswith(("cli.read_", "cli.write_"))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)
                if counts_rows:
                    # a span of its own, so counting is not charged to the caller
                    count = self._open("perfbench.row_count")
                    try:
                        span[5] = data_rows(args[0])
                    except OSError:
                        pass
                    self._close(count)

        setattr(traced, _ORIGINAL, original)
        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    @contextmanager
    def run(self, run_id):
        """Root span ``op`` around one operation; yields the span."""
        self._run = run_id
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, n_ops):
    """Per-layer metrics per traced operation, as ``name -> (value, unit)``."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    rows = defaultdict(int)
    for i, (name, start, end, parent, _, n_rows) in enumerate(spans):
        if name.startswith("losses."):
            caller = spans[parent][0] if parent >= 0 else ""
            name = f"{name}.{_LOSS_CALLER.get(caller, 'other')}"
        elif name.startswith("cli.read_"):
            name = "cli.csv_read"
        elif name.startswith("cli.write_"):
            name = "cli.csv_write"
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own[i]
        rows[name] += n_rows

    def per_op(table, key):
        return table[key] / n_ops

    def mean_us(table, key):
        return table[key] / calls[key] * 1e6 if calls[key] else 0.0

    m = {}
    for fn in ("crl", "crl_grad", "cel"):
        for caller in ("train", "val"):
            key = f"losses.{fn}.{caller}"
            m[f"{key}.calls"] = (per_op(calls, key), "count")
            m[f"{key}.us"] = (mean_us(total, key), "us")
    m["model.backward.calls"] = (per_op(calls, "model.backward"), "count")
    m["model.backward.self_us"] = (mean_us(self_s, "model.backward"), "us")
    m["model.adam_step.calls"] = (per_op(calls, "model.adam_step"), "count")
    m["model.adam_step.us"] = (mean_us(total, "model.adam_step"), "us")
    m["model.train.self_s"] = (per_op(self_s, "model.train"), "s")
    m["model.build_dataset.s"] = (per_op(total, "model.build_dataset"), "s")
    m["model.predict.s"] = (per_op(total, "model.predict"), "s")
    m["metrics.roc_auc.calls"] = (per_op(calls, "metrics.roc_auc"), "count")
    m["metrics.roc_auc.s"] = (per_op(total, "metrics.roc_auc"), "s")
    m["metrics.evaluate.self_s"] = (per_op(self_s, "metrics.evaluate"), "s")
    m["metrics.km_estimate.s"] = (per_op(total, "metrics.km_estimate"), "s")
    for kind in ("read", "write"):
        m[f"cli.csv_{kind}.s"] = (per_op(total, f"cli.csv_{kind}"), "s")
        m[f"cli.csv_{kind}.rows"] = (per_op(rows, f"cli.csv_{kind}"), "count")
    for stage in ("synth", "label", "crossval", "eval", "km"):
        m[f"cli.stage.{stage}_s"] = (per_op(total, f"cli.stage.{stage}"), "s")
    m["simulate.generate_cohort.s"] = (per_op(total, "simulate.generate_cohort"), "s")
    m["labels.derive_scan_labels.calls"] = (per_op(calls, "labels.derive_scan_labels"), "count")
    m["labels.derive_scan_labels.s"] = (per_op(total, "labels.derive_scan_labels"), "s")

    crossval = total["cli.stage.crossval"]
    loop = (self_s["model.backward"] + total["model.adam_step"] + self_s["model.train"]
            + sum(total[k] for k in total if k.startswith("losses.")))
    m["trace.crossval_accounted_share"] = (loop / crossval if crossval else 0.0, "ratio")
    m["trace.spans"] = (len(spans) / n_ops, "count")
    return m
