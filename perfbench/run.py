"""cfpt benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload reference-train --seed 0 --seconds 20 --trace 0

Run it from the root of a cfpt checkout; cfpt is imported from ``src/``.
The load is a closed loop with one client: an operation starts only after
the previous one has finished and its outputs have been checked. One
untimed warm-up operation comes first.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones (median operation wall time, scans per second,
set-up time, peak RSS, pooled AUC). With ``--trace 1`` it carries the
per-layer metrics instead: the run times untraced operations for half of
``--seconds``, then wraps cfpt's public functions (see spans.py) and
traces operations for the other half. The lines before it give the
provenance, the input size, every stage's median and the output hash.
Everything the run writes goes under ``.perfbench/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import numpy, scipy.special, scipy.stats, cfpt; "
    "print(time.perf_counter() - t)"
)


def load_cfpt():
    """Import cfpt from this checkout's ``src/``; exit nonzero if it has none."""
    src = ROOT / "src"
    missing = [p for p in (src / "cfpt" / "__init__.py", ROOT / "configs") if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not a cfpt checkout, missing {', '.join(map(str, missing))}")
    sys.path.insert(0, str(src))
    import cfpt
    import cfpt.cli
    import cfpt.model

    if not Path(cfpt.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported cfpt from {cfpt.__file__}, not from {src}")
    return cfpt


def import_seconds() -> float:
    """Time to import numpy, scipy and cfpt in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def provenance(cfpt, seed) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cfpt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "cfpt_source_sha256": src.hexdigest(),
        "cfpt_version": cfpt.__version__,
        "workload_seed": seed,
        "load": "closed loop, one client, one operation at a time",
    }


@dataclass
class Op:
    wall: float
    stages: dict  # cfpt command -> seconds, timed around each call
    result: object = None
    error: str = ""


@dataclass
class Runner:
    """Runs and checks operations; every output digest must equal the first."""

    wl: workloads.Workload
    ops: list = field(default_factory=list)
    digest: str = ""

    def operate(self, tracer=None) -> Op:
        wl = self.wl
        wl.prepare()
        wl.stages = {}
        error = ""
        if tracer is None:
            wrapped = spans.wrapped_names()
            if wrapped:
                raise RuntimeError(f"untraced operation would run wrappers: {wrapped}")
            t = time.perf_counter()
            try:
                wl.run()
            except Exception:  # an operation failure is counted, not fatal
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - t
        else:
            with tracer.run(len(self.ops)) as root:
                try:
                    wl.run()
                except Exception:
                    error = traceback.format_exc(limit=3)
            wall = root[2] - root[1]
        op = Op(wall, dict(wl.stages), error=error)
        if not error:
            try:
                op.result = wl.check()
                self.digest = self.digest or op.result.digest
                if op.result.digest != self.digest:
                    raise workloads.CheckFailed(f"{wl.primary} sha256 {op.result.digest} "
                                           f"differs from the first operation's {self.digest}")
            except Exception:
                op.error = traceback.format_exc(limit=3)
        self.ops.append(op)
        return op

    def loop(self, seconds, tracer=None) -> list:
        """Operations until ``seconds`` have passed, at least one."""
        start, done = time.perf_counter(), []
        while not done or time.perf_counter() - start < seconds:
            done.append(self.operate(tracer))
        return done


def median(values):
    return statistics.median(values) if values else 0.0


def stage_medians(ops) -> dict:
    names = dict.fromkeys(k for op in ops for k in op.stages)
    return {k: median([op.stages[k] for op in ops if k in op.stages]) for k in names}


def train_scan_epochs_per_s(ops) -> float:
    ok = [op for op in ops if op.result is not None and op.result.train_scan_epochs]
    if not ok:
        return 0.0
    work = median([op.result.train_scan_epochs for op in ok])
    return work / median([op.stages["crossval"] for op in ok])


def end_to_end(wl, timed, setup_s) -> dict:
    wall = median([op.wall for op in timed])
    aucs = [op.result.auc for op in timed if op.result is not None]
    return {
        "wall_s": (wall, "s"),
        "scans_per_s": (wl.sizes["scans"] / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "auc": (median(aucs), "ratio"),
    }


def per_layer(tracer, plain, traced) -> dict:
    m = spans.layer_metrics(tracer.spans, len(traced))
    results = [op.result for op in traced if op.result is not None]
    epochs = sum(r.epochs_run for r in results)
    m["model.epochs_run"] = (epochs / max(len(results), 1), "count")
    m["model.selected_epoch_share"] = (
        sum(r.selected_epochs for r in results) / epochs if epochs else 0.0, "ratio")
    m["model.train_scan_epochs_per_s"] = (train_scan_epochs_per_s(plain), "1/s")
    traced_wall = median([op.wall for op in traced])
    untraced_wall = median([op.wall for op in plain])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own self-test")
    args = ap.parse_args(argv)

    cfpt = load_cfpt()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    out_dir = ROOT / ".perfbench"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    try:
        wl = workloads.WORKLOADS[args.workload](cfpt, ROOT, work, args.seed, args.tiny)
        setups = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            probe = import_seconds()
            t = time.perf_counter()
            wl.setup()
            setups.append(probe + time.perf_counter() - t)
        setup_s = median(setups)

        runner = Runner(wl)
        runner.operate()  # warm-up: checked, not timed
        traced = []
        if args.trace == 0:
            plain = runner.loop(args.seconds)
            metrics = end_to_end(wl, plain, setup_s)
        else:
            plain = runner.loop(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = runner.loop(args.seconds / 2, tracer)
            finally:
                tracer.restore()
            metrics = per_layer(tracer, plain, traced)
            tracer.write(results_dir / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [op.error for op in runner.ops if op.error]
    report = {
        "workload": wl.name,
        "provenance": provenance(cfpt, args.seed),
        "input_size": wl.sizes,
        "setup_s_samples": setups,
        "operations": len(runner.ops),
        "timed_operations": len(plain) + len(traced),
        "op_walls_s": [op.wall for op in plain],
        "traced_op_walls_s": [op.wall for op in traced],
        "missing_targets": spans.missing_targets() if traced else [],
        "stage_medians_s": stage_medians(plain),
        "train_scan_epochs_per_s": train_scan_epochs_per_s(plain),
        "failed_share": len(failures) / len(runner.ops),
        "output": wl.primary,
        "output_sha256": runner.digest,
        "recorded_sha256": recorded_digest(wl.name, args.seed, args.tiny),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runner.ops),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


def recorded_digest(workload, seed, tiny):
    if tiny:
        return None
    path = HERE / "output_sha256.json"
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def print_report(r):
    print(f"workload {r['workload']}")
    for k, v in r["provenance"].items():
        print(f"  {k}: {v}")
    print("input size: " + ", ".join(f"{k}={v}" for k, v in r["input_size"].items()))
    print(f"operations: {r['operations']} ({r['timed_operations']} timed, "
          f"failed share {r['failed_share']:.3f})")
    for k, v in r["stage_medians_s"].items():
        print(f"  stage {k}: median {v:.4f} s")
    if r["train_scan_epochs_per_s"]:
        print(f"train_scan_epochs_per_s: {r['train_scan_epochs_per_s']:.1f} 1/s")
    digest, recorded = r["output_sha256"], r["recorded_sha256"]
    verdict = ("not recorded" if recorded is None
               else "matches record" if recorded == digest else f"differs from {recorded}")
    print(f"sha256 {r['output']}: {digest} ({verdict})")
    for err in r["failures"]:
        print("FAILED: " + err.strip().replace("\n", "\n  "))
    n = r["timed_operations"]
    for k, m in r["metrics"].items():
        print(f"  {k}: {m['value']:.6g} {m['unit']}" + (f" (median of {n})"
                                                       if k == "wall_s" else ""))


if __name__ == "__main__":
    sys.exit(main())
