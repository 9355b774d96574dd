"""Acceptance gate: one test per numbered release criterion.

Each test computes its verdict, prints a single ``acceptance N <name>:
PASS/FAIL`` line on the real stdout (past pytest's capture), and only
then asserts. Sample counts and tolerances are contractual; do not
loosen them to make a red gate green.

Criterion 8 retrains the reference experiment from scratch (ten 5-fold
cross-validation runs) and dominates the runtime of this file; budget a
few minutes.
"""

import math
import statistics
import time

import numpy as np
import pytest

from cfpt.cli import (
    build_experiment_config,
    cmd_crossval,
    cmd_eval,
    cmd_label,
    cmd_synth,
)
from cfpt.labels import derive_scan_labels
from cfpt.losses import LossConfig, cel, cel_grad_logit, crl, crl_grad
from cfpt.metrics import (
    evaluate,
    km_estimate,
    mcnemar,
    region_ratios,
    roc_auc,
    threshold_table,
)
from cfpt.model import ModelConfig, TrainConfig, build_dataset, run_crossval
from cfpt.simulate import CohortConfig, generate_cohort
from helpers import (
    Record,
    auc_pairwise_oracle,
    check_label_invariants,
    crl_kink_distance,
    crl_oracle,
    km_oracle,
    network_gradients,
    network_loss,
    patient_table,
    random_censored_sample,
    random_network_instance,
    random_patient_record,
    random_scores_labels,
)


def _report(capsys, name, ok, detail=""):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _draw_tuple(rng):
    # t_pred, t_d in [-5, 10]; epsilon in (0, 3]
    t_pred = float(rng.uniform(-5.0, 10.0))
    t_d = float(rng.uniform(-5.0, 10.0))
    eps = 3.0 - float(rng.uniform(0.0, 3.0))
    p = int(rng.integers(0, 2))
    return t_pred, t_d, p, eps


# 1. loss value against the independent scalar oracle


def test_1_crl_oracle_equivalence(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        t_pred, t_d, p, eps = _draw_tuple(rng)
        got = float(crl(t_pred, t_d, p, eps))
        worst = max(worst, abs(got - crl_oracle(t_pred, t_d, p, eps)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    _report(capsys, "1 crl-oracle", ok, f"max abs err {worst:.1e}, {dt:.2f}s")


# 2. analytic gradients against central finite differences


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_2_gradient_suite(capsys):
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0

    for _ in range(200):
        t_pred, t_d, p, eps = _draw_tuple(rng)
        while crl_kink_distance(t_pred, t_d, p, eps) <= 1e-3:
            t_pred = float(rng.uniform(-5.0, 10.0))
        fd = (crl_oracle(t_pred + h, t_d, p, eps) - crl_oracle(t_pred - h, t_d, p, eps)) / (2 * h)
        worst = max(worst, _rel_err(float(crl_grad(t_pred, t_d, p, eps)), fd))

    for _ in range(200):
        logit = float(rng.uniform(-8.0, 8.0))
        y = int(rng.integers(0, 2))
        f = lambda l: float(cel(1.0 / (1.0 + math.exp(-l)), y))
        fd = (f(logit + h) - f(logit - h)) / (2 * h)
        worst = max(worst, _rel_err(float(cel_grad_logit(logit, y)), fd))

    cfg = LossConfig()
    for _ in range(200):
        params, X, t_d, p, y = random_network_instance(rng)
        grads, _ = network_gradients(params, X, t_d, p, y, cfg)
        for k in params:
            flat = params[k].reshape(-1)
            gflat = grads[k].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp = network_loss(params, X, t_d, p, y, cfg)
                flat[j] = orig - h
                lm = network_loss(params, X, t_d, p, y, cfg)
                flat[j] = orig
                worst = max(worst, _rel_err(gflat[j], (lp - lm) / (2 * h)))

    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    _report(capsys, "2 gradients", ok, f"max rel err {worst:.1e}, {dt:.1f}s")


# 3. loss shape: zero set, convexity, C1 joins


def test_3_crl_zero_set_convexity_continuity(capsys):
    rng = np.random.default_rng(1003)
    ok = True

    for _ in range(10_000):
        t_pred, t_d, p, eps = _draw_tuple(rng)
        v = float(crl(t_pred, t_d, p, eps))
        if p == 0:
            member = t_pred - t_d - eps >= 0.0
        elif t_d <= eps:
            member = t_pred - t_d + eps <= 0.0
        else:
            member = t_pred - t_d + eps == 0.0
        ok = ok and (v == 0.0) == member and v >= 0.0

    for _ in range(10_000):
        _, t_d, p, eps = _draw_tuple(rng)
        a = float(rng.uniform(-10.0, 15.0))
        b = float(rng.uniform(-10.0, 15.0))
        w = float(rng.uniform(0.0, 1.0))
        lhs = w * crl_oracle(a, t_d, p, eps) + (1 - w) * crl_oracle(b, t_d, p, eps)
        ok = ok and float(crl(w * a + (1 - w) * b, t_d, p, eps)) <= lhs + 1e-12

    # grad is continuous across each clamp point: bracket at +-1e-9
    worst_jump = 0.0
    for _ in range(2_000):
        _, t_d, p, eps = _draw_tuple(rng)
        if p == 0:
            kink = t_d + eps
        else:
            t_d = float(rng.uniform(-5.0, eps))  # clamped branch only
            kink = t_d - eps
        gl = float(crl_grad(kink - 1e-9, t_d, p, eps))
        gr = float(crl_grad(kink + 1e-9, t_d, p, eps))
        worst_jump = max(worst_jump, abs(gl - gr))
    ok = ok and worst_jump <= 1e-8

    _report(capsys, "3 crl-shape", ok, f"max grad jump {worst_jump:.1e}")


# 4. label derivation: worked examples plus random-record invariants


def test_4_label_conformance(capsys):
    cases = [
        (
            Record(patient_id="a", scan_times=(0.0, 1.0, 2.0), is_cancer=False),
            [3.0, 2.0, 1.0],
            [0, 0, 0],
            [0, 0, 0],
        ),
        (
            Record(patient_id="b", scan_times=(0.0, 1.5), is_cancer=True, diagnosis_time=2.0),
            [2.0, 0.5],
            [1, 1],
            [0, 1],
        ),
        (
            Record(patient_id="c", scan_times=(0.0, 1.0, 3.0), is_cancer=True, diagnosis_time=2.0),
            [2.0, 1.0, -1.0],
            [1, 1, 1],
            [0, 1, 1],
        ),
        (
            Record(patient_id="d", scan_times=(0.0, 1.0), is_cancer=True),
            [1.0, 0.0],
            [1, 1],
            [0, 1],
        ),
    ]
    ok = True
    for rec, t_ds, ps, ys in cases:
        labels = derive_scan_labels(patient_table(rec))
        ok = ok and labels.t_d.tolist() == t_ds
        ok = ok and labels.p.tolist() == ps
        ok = ok and labels.y.tolist() == ys

    rng = np.random.default_rng(1004)
    for _ in range(1_000):
        rec = random_patient_record(rng)
        check_label_invariants(rec, derive_scan_labels(patient_table(rec)))

    _report(capsys, "4 labels", ok, "4 worked examples, 1000 random records")


# 5. Kaplan-Meier against the brute-force risk-set oracle


def test_5_km_oracle_equivalence(capsys):
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(500):
        times, event = random_censored_sample(rng, max_n=50)
        curve = km_estimate(times, event)
        expect = km_oracle(times, event)
        assert len(curve.times) == len(expect)
        for (t, s, at_risk, d), ct, cs, cn, cd in zip(
            expect, curve.times, curve.survival, curve.n_at_risk, curve.n_events
        ):
            assert ct == t and cn == at_risk and cd == d
            worst = max(worst, abs(cs - s))

    full = km_estimate([1.0, 2.0, 3.0], [1, 1, 1])
    censored = km_estimate([1.0, 2.0, 3.0], [1, 0, 1])
    hands = (
        full.times == (1.0, 2.0, 3.0)
        and max(abs(a - b) for a, b in zip(full.survival, (2 / 3, 1 / 3, 0.0))) <= 1e-12
        and censored.times == (1.0, 3.0)
        and max(abs(a - b) for a, b in zip(censored.survival, (2 / 3, 0.0))) <= 1e-12
    )
    ok = worst <= 1e-12 and hands
    _report(capsys, "5 kaplan-meier", ok, f"max abs err {worst:.1e}, hand examples {'ok' if hands else 'BAD'}")


# 6. AUC against the pairwise oracle; McNemar exact-branch example


def test_6_auc_and_mcnemar(capsys):
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(500):
        scores, labels = random_scores_labels(rng, max_n=200)
        auc, _ = roc_auc(scores, labels)
        worst = max(worst, abs(auc - auc_pairwise_oracle(scores, labels)))

    # 10 vs 2 discordant pairs plus concordant padding
    a = [1] * 10 + [0] * 2 + [1] * 3 + [0] * 2
    b = [0] * 10 + [1] * 2 + [1] * 3 + [0] * 2
    res = mcnemar(a, b)
    ok = worst <= 1e-12 and res.method == "exact-binomial" and abs(res.p_value - 0.0386) <= 1e-3
    _report(capsys, "6 auc-mcnemar", ok, f"max auc err {worst:.1e}, p={res.p_value:.4f}")


# 7. region quadrants and the threshold table


def test_7_region_thresholds(capsys):
    rng = np.random.default_rng(1007)
    thresholds = [1.0, 2.0, 3.0, 4.0, 5.0]
    ok = True

    def draw_points(n):
        vals = rng.uniform(-1.0, 7.0, size=(n, 2))
        # snap some coordinates onto the threshold grid so the boundary
        # convention is actually exercised
        snap = rng.uniform(size=(n, 2)) < 0.3
        vals[snap] = rng.integers(1, 6, size=int(snap.sum())).astype(float)
        return [(float(a), float(b)) for a, b in vals]

    for _ in range(100):
        cancer = draw_points(int(rng.integers(3, 40)))
        noncancer = draw_points(int(rng.integers(3, 40)))
        for t in thresholds:
            r = region_ratios(cancer + noncancer, t)
            ok = ok and abs((r.r1 + r.r2 + r.r3 + r.r4) - 1.0) <= 1e-12
            ok = ok and min(r.r1, r.r2, r.r3, r.r4) >= 0.0
        rows = threshold_table(cancer, noncancer, thresholds)
        for prev, cur in zip(rows, rows[1:]):
            ok = ok and cur.recall >= prev.recall
            ok = ok and cur.noncancer_beyond <= prev.noncancer_beyond
        for t, row in zip(thresholds, rows):
            beyond = sum(1 for tp, _ in noncancer if tp > t) / len(noncancer)
            ok = ok and row.noncancer_beyond == beyond  # exact cross-identity

    # boundary points belong to the closed lower side on both axes
    for t in thresholds:
        ok = ok and region_ratios([(t, t)], t).r3 == 1.0
        ok = ok and region_ratios([(t + 1e-9, t)], t).r4 == 1.0
        ok = ok and region_ratios([(t, t + 1e-9)], t).r2 == 1.0
        ok = ok and region_ratios([(t + 1e-9, t + 1e-9)], t).r1 == 1.0

    _report(capsys, "7 regions", ok, "100 sets x 5 thresholds")


# 8. directional multi-task comparison on the frozen reference cohorts


@pytest.mark.slow
def test_8_directional_multitask(capsys):
    t0 = time.perf_counter()
    aucs = {"multi": [], "single": []}
    mcnemar_p = None
    for seed in range(5):
        records, features, _ = generate_cohort(CohortConfig(seed=seed))
        labels = derive_scan_labels(records)
        ds = build_dataset(labels, features)
        y = labels.y
        preds = {}
        for name, lam in (("multi", 0.5), ("single", 0.0)):
            mcfg = ModelConfig(hidden_dims=(64, 64), seed=0)
            tcfg = TrainConfig(loss=LossConfig(lam=lam, epsilon=1.0), seed=0)
            preds[name] = run_crossval(ds, mcfg, tcfg, k=5).predictions
            score = dict(zip(preds[name].scan_ids, preds[name].y_hat.tolist()))
            auc, _ = roc_auc(np.array([score[sid] for sid in labels.scan_ids]), y)
            aucs[name].append(auc)
        if seed == 0:
            report = evaluate(preds["multi"], labels, predictions_b=preds["single"])
            mcnemar_p = report.mcnemar_result.p_value

    med_multi = statistics.median(aucs["multi"])
    med_single = statistics.median(aucs["single"])
    dt = time.perf_counter() - t0
    ok = (
        med_multi >= med_single - 0.005
        and mcnemar_p is not None
        and math.isfinite(mcnemar_p)
        and 0.0 <= mcnemar_p <= 1.0
        and dt < 900.0
    )
    _report(
        capsys,
        "8 directional",
        ok,
        f"median auc multi {med_multi:.4f} vs single {med_single:.4f}, "
        f"mcnemar p={mcnemar_p:.3g}, {dt:.0f}s",
    )


# 9. full pipeline determinism, byte for byte


def test_9_pipeline_determinism(capsys, tmp_path):
    def run(root):
        data = root / "data"
        cfg = build_experiment_config(
            {
                "k_folds": "3",
                "paths.labels": str(data / "labels.csv"),
                "paths.scans": str(data / "scans.csv"),
                "cohort.n_patients": "45",
                "cohort.feature_dim": "3",
                "model.hidden_dims": "6",
                "train.max_epochs": "4",
                "train.lr_decay_epochs": "3",
                "train.batch_size": "16",
            }
        )
        cmd_synth(cfg, data)
        cmd_label(data / "patients.csv", data / "labels.csv")
        run_dir = root / "run"
        cmd_crossval(cfg, run_dir)
        eval_dir = root / "eval"
        cmd_eval(run_dir / "predictions.csv", data / "labels.csv", eval_dir)
        out = {}
        for d in (data, run_dir, eval_dir):
            for f in sorted(d.iterdir()):
                out[f"{d.name}/{f.name}"] = f.read_bytes()
        return out

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    ok = set(first) == set(second) and all(first[k] == second[k] for k in first)
    _report(capsys, "9 determinism", ok, f"{len(first)} files byte-identical")
