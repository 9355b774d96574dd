"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one untraced and one traced
run of a second each and checks that the last output line carries every
declared metric with its declared unit, that every operation passed its
checks, that every tracing target exists and that, for each traced
operation, the spans' self times sum to the operation's traced wall time.
It also checks that a directory holding only the benchmark makes the
benchmark fail without printing a result. Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"


def fail(msg):
    sys.exit(f"selftest FAILED: {msg}")


def run(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(done, declared, label):
    if done.returncode != 0:
        fail(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        fail(f"{label}: correct={last['correct']} failed={last['failed']}\n{done.stdout[-3000:]}")
    got = {k: m["unit"] for k, m in last["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")


def check_spans(workload):
    """Per traced operation, the self times of its spans sum to its wall time."""
    tag = f"{workload}-seed0-trace1-tiny"
    report = json.loads((RESULTS / f"{tag}.json").read_text())
    if report["missing_targets"]:
        fail(f"{workload}: tracing targets missing: {report['missing_targets']}")
    with open(RESULTS / f"{tag}.spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == "op"]
    walls = report["traced_op_walls_s"]
    if len(roots) != len(walls) or not roots:
        fail(f"{workload}: {len(roots)} root spans for {len(walls)} traced operations")
    for i, wall in zip(roots, walls):
        run_id = spans[i][4]
        total = sum(o for o, s in zip(own, spans) if s[4] == run_id)
        if abs(total - wall) > 1e-6 or abs(spans[i][2] - spans[i][1] - wall) > 1e-9:
            fail(f"{workload} run {run_id}: self times sum to {total}, wall {wall}")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: exit nonzero, print no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "reference-train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail(f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        name = wl["name"]
        check_result(run(ROOT, name, 0), bench["end_to_end"], f"{name} trace 0")
        check_result(run(ROOT, name, 1), bench["per_layer"], f"{name} trace 1")
        check_spans(name)
        print(f"selftest {name}: ok")
    check_bare_directory()
    print("selftest bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
