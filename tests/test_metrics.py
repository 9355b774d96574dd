import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfpt.labels import LabelTable
from cfpt.metrics import (
    evaluate,
    km_estimate,
    mcnemar,
    region_ratios,
    roc_auc,
    threshold_table,
)
from cfpt.model import PredictionTable
from helpers import (
    auc_pairwise_oracle,
    binomial_two_sided_oracle,
    km_oracle,
    random_censored_sample,
    random_scores_labels,
)


# ---------------------------------------------------------------------------
# roc_auc


def test_auc_perfect_separation():
    auc, _ = roc_auc([0.9, 0.1], [1, 0])
    assert auc == 1.0
    auc, _ = roc_auc([0.1, 0.9], [1, 0])
    assert auc == 0.0


def test_auc_all_ties():
    auc, points = roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert auc == 0.5
    # one distinct score -> anchor plus a single (1, 1) point
    assert points.shape == (2, 3)
    assert points[1].tolist() == [0.5, 1.0, 1.0]


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        scores, labels = random_scores_labels(rng, max_n=200)
        auc, _ = roc_auc(scores, labels)
        assert auc == pytest.approx(auc_pairwise_oracle(scores, labels), abs=1e-12)


def test_roc_points_shape_and_monotonicity():
    rng = np.random.default_rng(22)
    for _ in range(50):
        scores, labels = random_scores_labels(rng, max_n=60)
        _, points = roc_auc(scores, labels)
        ths, fprs, tprs = points.T
        assert points[0].tolist() == [np.inf, 0.0, 0.0]
        assert (fprs[-1], tprs[-1]) == (1.0, 1.0)
        assert points.shape == (len(set(scores.tolist())) + 1, 3)
        assert (np.diff(fprs) >= 0).all()
        assert (np.diff(tprs) >= 0).all()
        # thresholds strictly decreasing after the +inf anchor
        assert (np.diff(ths) < 0).all()


def test_auc_rejects_single_class():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [0, 0])
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.9], [0, 2])


@pytest.mark.parametrize("scores, labels", [
    ([0.1, 0.9, 0.5], [0, 1]),
    ([[0.1, 0.9]], [[0, 1]]),
])
def test_auc_rejects_mismatched_or_multi_dimensional_inputs(scores, labels):
    with pytest.raises(ValueError, match="^scores and labels must be 1-d and equally long$"):
        roc_auc(scores, labels)


# ---------------------------------------------------------------------------
# mcnemar


def _correctness_vectors(b, c, both_right=3, both_wrong=2):
    a = [1] * b + [0] * c + [1] * both_right + [0] * both_wrong
    bb = [0] * b + [1] * c + [1] * both_right + [0] * both_wrong
    return a, bb


def test_mcnemar_exact_example():
    a, bvec = _correctness_vectors(10, 2)
    res = mcnemar(a, bvec)
    assert (res.b, res.c) == (10, 2)
    assert res.statistic == pytest.approx(49 / 12, abs=1e-12)
    assert res.method == "exact-binomial"
    assert res.p_value == pytest.approx(binomial_two_sided_oracle(2, 12), abs=1e-12)
    assert res.p_value == pytest.approx(0.0386, abs=1e-3)


def test_mcnemar_balanced_small():
    a, bvec = _correctness_vectors(5, 5)
    res = mcnemar(a, bvec)
    assert res.p_value == 1.0
    assert res.method == "exact-binomial"


def test_mcnemar_degenerate():
    res = mcnemar([1, 0, 1], [1, 0, 1])
    assert (res.b, res.c) == (0, 0)
    assert res.method == "undefined"
    assert res.p_value == 1.0
    assert np.isnan(res.statistic)


def test_mcnemar_exact_branch_matches_binomial_oracle():
    for b in range(0, 13):
        for c in range(0, 13):
            if b + c == 0 or b + c >= 25:
                continue
            a, bvec = _correctness_vectors(b, c)
            res = mcnemar(a, bvec)
            assert res.method == "exact-binomial"
            assert res.p_value == pytest.approx(
                binomial_two_sided_oracle(min(b, c), b + c), abs=1e-12
            )


def test_mcnemar_chi_square_branch():
    a, bvec = _correctness_vectors(20, 10)
    res = mcnemar(a, bvec)
    assert res.method == "chi-square"
    assert res.statistic == pytest.approx((abs(20 - 10) - 1) ** 2 / 30, abs=1e-12)
    assert 0.0 <= res.p_value <= 1.0


def test_mcnemar_chi_square_p_value_matches_scipy():
    from scipy.stats import chi2

    for b, c in ((20, 10), (13, 12), (30, 0), (60, 1), (400, 310), (0, 25)):
        res = mcnemar(*_correctness_vectors(b, c))
        assert res.method == "chi-square"
        assert res.p_value == pytest.approx(chi2.sf(res.statistic, df=1), rel=1e-12, abs=0)


def _modules_after_importing_the_cli():
    """The names in ``sys.modules`` of a fresh interpreter after ``import cfpt.cli``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, cfpt.cli; print(*sys.modules)"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    assert "scipy.stats" not in _modules_after_importing_the_cli()


def test_importing_the_cli_loads_no_scipy():
    # scipy.special is imported where training needs it, and once before
    # crossval forks its workers
    loaded = _modules_after_importing_the_cli()
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_mcnemar_branches_agree_near_switchover():
    # exactly balanced tables are excluded: there the doubled-tail cap pins
    # the exact p at 1.0 while the chi-square approximation stays near 0.84
    from scipy.stats import chi2

    for n in range(20, 31):
        for b in range(0, n + 1):
            c = n - b
            if b == c:
                continue
            p_exact = binomial_two_sided_oracle(min(b, c), n)
            p_chi = float(chi2.sf((abs(b - c) - 1) ** 2 / n, df=1))
            assert abs(p_exact - p_chi) <= 0.02


def test_mcnemar_swap_symmetry():
    a, bvec = _correctness_vectors(7, 3)
    res = mcnemar(a, bvec)
    swp = mcnemar(bvec, a)
    assert (swp.b, swp.c) == (res.c, res.b)
    assert swp.p_value == res.p_value
    assert swp.statistic == res.statistic


def test_mcnemar_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mcnemar([1, 0], [1])
    with pytest.raises(ValueError):
        mcnemar([], [])
    with pytest.raises(ValueError):
        mcnemar([1, 2], [1, 0])


# ---------------------------------------------------------------------------
# km_estimate


def test_km_all_events():
    km = km_estimate([1, 2, 3], [1, 1, 1])
    assert km.times == (1.0, 2.0, 3.0)
    assert km.survival == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-15)
    assert km.n_at_risk == (3, 2, 1)
    assert km.n_events == (1, 1, 1)


def test_km_with_censoring():
    km = km_estimate([1, 2, 3], [1, 0, 1])
    assert km.times == (1.0, 3.0)
    assert km.survival == pytest.approx((2 / 3, 0.0), abs=1e-15)
    assert km.n_at_risk == (3, 1)


def test_km_all_censored():
    km = km_estimate([1, 2, 3], [0, 0, 0])
    assert km.times == ()
    assert km.survival_at(0.0) == 1.0
    assert km.survival_at(99.0) == 1.0


def test_km_event_censor_tie():
    # censored subject at t=2 is still at risk for the t=2 event
    km = km_estimate([2, 2, 5], [1, 0, 1])
    assert km.times == (2.0, 5.0)
    assert km.n_at_risk == (3, 1)
    assert km.survival == pytest.approx((2 / 3, 0.0), abs=1e-15)


def test_km_survival_at_steps():
    km = km_estimate([1, 2, 3], [1, 1, 1])
    assert km.survival_at(0.5) == 1.0
    assert km.survival_at(1.0) == pytest.approx(2 / 3)
    assert km.survival_at(1.5) == pytest.approx(2 / 3)
    assert km.survival_at(2.0) == pytest.approx(1 / 3)
    assert km.survival_at(10.0) == 0.0


def test_km_matches_brute_force_oracle():
    rng = np.random.default_rng(24)
    for _ in range(300):
        times, event = random_censored_sample(rng, max_n=50)
        km = km_estimate(times, event)
        expected = km_oracle(times, event)
        assert len(km.times) == len(expected)
        for (t, s, n, d), kt, ks, kn, kd in zip(
            expected, km.times, km.survival, km.n_at_risk, km.n_events
        ):
            assert kt == t
            assert ks == pytest.approx(s, abs=1e-12)
            assert kn == n
            assert kd == d
        s_vals = list(km.survival)
        assert all(a >= b - 1e-15 for a, b in zip(s_vals, s_vals[1:]))
        assert all(0.0 <= s <= 1.0 for s in s_vals)


def test_km_rejects_bad_inputs():
    with pytest.raises(ValueError):
        km_estimate([-1, 2], [1, 1])
    with pytest.raises(ValueError):
        km_estimate([], [])
    with pytest.raises(ValueError):
        km_estimate([1, 2], [1, 2])


# ---------------------------------------------------------------------------
# region_ratios


def test_region_ratios_quadrants():
    r = region_ratios([(1, 1), (5, 5), (1, 5), (5, 1)], 3.0)
    assert (r.r1, r.r2, r.r3, r.r4) == (0.25, 0.25, 0.25, 0.25)


def test_region_ratios_boundary_convention():
    r = region_ratios([(3.0, 3.0)] * 4, 3.0)
    assert r.r3 == 1.0
    assert r.r1 == r.r2 == r.r4 == 0.0
    # one tick above the threshold on each axis flips the quadrant
    assert region_ratios([(3.0 + 1e-12, 3.0)], 3.0).r4 == 1.0
    assert region_ratios([(3.0, 3.0 + 1e-12)], 3.0).r2 == 1.0


def test_region_ratios_partition_property():
    rng = np.random.default_rng(25)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        # grid values make exact threshold collisions common
        pts = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], size=(n, 2))
        t = float(rng.choice([0.0, 1.0, 2.5, 3.0, 5.0]))
        r = region_ratios(pts, t)
        assert r.r1 + r.r2 + r.r3 + r.r4 == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in (r.r1, r.r2, r.r3, r.r4))
        # recount one quadrant independently
        direct = np.mean((pts[:, 0] > t) & (pts[:, 1] > t))
        assert r.r1 == pytest.approx(direct, abs=1e-12)


def test_region_ratios_rejects_empty():
    with pytest.raises(ValueError):
        region_ratios([], 1.0)


# ---------------------------------------------------------------------------
# threshold_table


def test_threshold_table_monotone():
    rng = np.random.default_rng(26)
    for _ in range(50):
        nc, nn = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        cancer = rng.uniform(0, 6, size=(nc, 2))
        noncancer = rng.uniform(0, 6, size=(nn, 2))
        rows = threshold_table(cancer, noncancer, [1, 2, 3, 4, 5])
        recalls = [r.recall for r in rows]
        beyond = [r.noncancer_beyond for r in rows]
        assert recalls == sorted(recalls)
        assert beyond == sorted(beyond, reverse=True)


def test_threshold_table_saturated_recall():
    cancer = [(0.5, 0.2), (1.0, 1.0), (0.1, 0.9)]
    noncancer = [(2.0, 3.0)]
    rows = threshold_table(cancer, noncancer, [1.0])
    assert rows[0].recall == 1.0


def test_threshold_table_beyond_identity():
    rng = np.random.default_rng(27)
    for _ in range(50):
        nn = int(rng.integers(1, 40))
        noncancer = rng.uniform(0, 6, size=(nn, 2))
        cancer = rng.uniform(0, 6, size=(3, 2))
        t = float(rng.uniform(0.5, 5.5))
        row = threshold_table(cancer, noncancer, [t])[0]
        # exact, not approx: the table computes this as one fraction
        assert row.noncancer_beyond == np.mean(noncancer[:, 0] > t)


def test_threshold_table_rejects_empty():
    with pytest.raises(ValueError):
        threshold_table([], [(1, 1)], [1.0])
    with pytest.raises(ValueError):
        threshold_table([(1, 1)], [], [1.0])


# ---------------------------------------------------------------------------
# evaluate


def _toy_labels():
    # two cancer patients (pre-biopsy scans plus one post-biopsy), two controls
    return LabelTable(
        ["a-s0", "a-s1", "a-s2", "b-s0", "c-s0", "c-s1", "c-s2", "d-s0"],
        ["a", "a", "a", "b", "c", "c", "c", "d"],
        t_d=[3.0, 1.0, -1.0, 2.0, 3.0, 2.0, 1.0, 1.0],
        p=[1, 1, 1, 1, 0, 0, 0, 0],
        y=[0, 1, 1, 1, 0, 0, 0, 0],
    )


def _perfect_predictions(labels):
    return PredictionTable(labels.scan_ids, labels.y, np.maximum(labels.t_d, 0.0),
                           np.zeros(len(labels)))


def _rows(table, order):
    """The rows of a label or prediction table in the given order."""
    return type(table)(**{
        name: [col[i] for i in order] if isinstance(col, list) else col[order]
        for name, col in vars(table).items()
    })


def test_evaluate_perfect_predictor():
    labels = _toy_labels()
    report = evaluate(_perfect_predictions(labels), labels)
    assert report.auc == 1.0
    assert report.n_scans == 8
    assert report.n_patients == 4
    assert report.n_cancer_patients == 2
    assert report.n_malignant_scans == 3
    assert report.n_km_excluded == 1  # the post-biopsy scan
    assert len(report.cancer_points) == 4
    assert len(report.noncancer_points) == 4
    # non-cancer x-axis is time to last scan = t_d - 1
    assert report.noncancer_points[:, 1].tolist() == [2.0, 1.0, 0.0, 0.0]
    assert report.mcnemar_result is None


def test_evaluate_km_composition():
    labels = _toy_labels()
    report = evaluate(_perfect_predictions(labels), labels)
    kept = labels.t_d >= 0
    expected = km_estimate(labels.t_d[kept], labels.p[kept])
    assert report.km == expected


def test_evaluate_mcnemar_swap_symmetry():
    labels = _toy_labels()
    preds_a = _perfect_predictions(labels)
    rng = np.random.default_rng(28)
    preds_b = PredictionTable(labels.scan_ids, rng.uniform(size=len(labels)),
                              rng.uniform(0, 5, size=len(labels)), np.zeros(len(labels)))
    rep_ab = evaluate(preds_a, labels, predictions_b=preds_b)
    rep_ba = evaluate(preds_b, labels, predictions_b=preds_a)
    m_ab, m_ba = rep_ab.mcnemar_result, rep_ba.mcnemar_result
    assert (m_ab.b, m_ab.c) == (m_ba.c, m_ba.b)
    assert m_ab.p_value == m_ba.p_value


def test_evaluate_reorder_invariance():
    labels = _toy_labels()
    preds = _perfect_predictions(labels)
    rng = np.random.default_rng(29)
    perm = rng.permutation(len(labels))
    rep_1 = evaluate(preds, labels)
    rep_2 = evaluate(_rows(preds, perm), _rows(labels, perm))
    assert rep_1.auc == rep_2.auc
    assert rep_1.km == rep_2.km
    assert rep_1.threshold_rows == rep_2.threshold_rows
    assert rep_1.regions_cancer == rep_2.regions_cancer
    assert rep_1.n_malignant_scans == rep_2.n_malignant_scans


def test_evaluate_same_report_for_shuffled_predictions():
    labels = _toy_labels()
    rng = np.random.default_rng(30)
    preds = PredictionTable(labels.scan_ids, rng.uniform(size=len(labels)),
                            rng.uniform(0, 5, size=len(labels)), np.zeros(len(labels)))
    preds_b = PredictionTable(labels.scan_ids, rng.uniform(size=len(labels)),
                              rng.uniform(0, 5, size=len(labels)), np.zeros(len(labels)))
    report = evaluate(preds, labels, predictions_b=preds_b)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(len(labels))
        shuffled = evaluate(_rows(preds, perm), labels,
                            predictions_b=_rows(preds_b, perm[::-1]))
        assert shuffled.to_text() == report.to_text()
        assert shuffled.roc_points.tobytes() == report.roc_points.tobytes()
        assert shuffled.cancer_points.tobytes() == report.cancer_points.tobytes()
        assert shuffled.noncancer_points.tobytes() == report.noncancer_points.tobytes()


def test_evaluate_rejects_mismatched_ids():
    labels = _toy_labels()
    preds = _perfect_predictions(labels)
    n = len(labels)
    with pytest.raises(ValueError, match=r"missing=\['d-s0'\] extra=\[\]"):
        evaluate(_rows(preds, np.arange(n - 1)), labels)
    extra = PredictionTable(preds.scan_ids + ["zzz"], np.append(preds.y_hat, 0.5),
                            np.append(preds.t_pred, 1.0), np.zeros(n + 1))
    with pytest.raises(ValueError, match=r"missing=\[\] extra=\['zzz'\]"):
        evaluate(extra, labels)
    with pytest.raises(ValueError, match="duplicate scan_id in predictions"):
        evaluate(_rows(preds, [0, *range(1, n - 1), 0]), labels)
    with pytest.raises(ValueError, match="duplicate scan_id in labels"):
        evaluate(preds, _rows(labels, [0, *range(1, n - 1), 0]))


def test_evaluate_to_text_sections():
    labels = _toy_labels()
    preds = _perfect_predictions(labels)
    text = evaluate(preds, labels, predictions_b=preds).to_text()
    for needle in (
        "== cohort ==",
        "== classification ==",
        "== threshold table ==",
        "== kaplan-meier",
        "== mcnemar",
        "auc: 1.000000",
        "method: undefined",
    ):
        assert needle in text
