"""The training loop's unchecked fast path, and the vectorised metrics,
against the definitions and loops they replaced.

Every comparison here is exact (bytes or ``==``), not a tolerance: the fast
path performs the same floating-point operations in the same order as the
reference it replaces, or exact ones, so any difference is a change of
behaviour.
"""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from cfpt.cli import (
    build_experiment_config,
    cmd_crossval,
    cmd_eval,
    cmd_km,
    cmd_label,
    cmd_synth,
    main,
)
from cfpt.labels import LabelTable, PatientTable
from cfpt.losses import LossConfig, cel, crl, crl_grad, fused_joint_loss, joint_loss_grad
from cfpt.metrics import km_estimate, roc_auc
from cfpt.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    ModelConfig,
    PredictionTable,
    ScanDataset,
    TrainConfig,
    TrainHistory,
    _batch_loss,
    _forward_batch,
    _forward_blocked,
    adam_step,
    backward,
    effective_lr,
    init_params,
    train,
)
from helpers import blas_kernel


def _random_batch(rng, n):
    t_d = rng.uniform(-3.0, 6.0, n)
    t_d[: n // 4] = 1.0  # exactly epsilon: the clamped branch's boundary
    return (
        rng.uniform(0.0, 1.0, n),  # y_hat
        rng.uniform(-4.0, 8.0, n),  # t_pred
        t_d,
        rng.integers(0, 2, n),  # p
        rng.integers(0, 2, n),  # y
    )


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.7])
def test_fused_joint_loss_equals_checked_functions(lam):
    rng = np.random.default_rng(51)
    cfg = LossConfig(lam=lam, epsilon=1.0)
    for n in (1, 7, 32, 500):
        y_hat, t_pred, t_d, p, y = _random_batch(rng, n)
        p[:2] = [0, 1][: min(n, 2)]  # both branches even in tiny batches
        loss = fused_joint_loss(y_hat, t_pred, t_d, p, y, cfg)
        ref_loss = cfg.lam * crl(t_pred, t_d, p, cfg.epsilon) + cel(y_hat, y)
        ref_grad = cfg.lam * crl_grad(t_pred, t_d, p, cfg.epsilon)
        assert loss.tobytes() == np.asarray(ref_loss).tobytes()
        assert joint_loss_grad(t_pred, t_d, p, cfg).tobytes() == np.asarray(ref_grad).tobytes()


def _adam_reference(params, grads_seq, lrs, weight_decay):
    """The per-key Adam loop the flat update replaced."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, (grads, lr) in enumerate(zip(grads_seq, lrs), start=1):
        for k, theta in params.items():
            g = grads[k]
            if weight_decay != 0.0:
                g = g + weight_decay * theta
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = m[k] / (1 - ADAM_BETA1**t)
            v_hat = v[k] / (1 - ADAM_BETA2**t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adam_equals_per_key_loop(weight_decay):
    rng = np.random.default_rng(52)
    shapes = {"W0": (5, 4), "b0": (4,), "W1": (4, 3), "b1": (3,), "w_cls": (3,), "b_cls": (1,)}
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    grads_seq = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(200)]
    lrs = [1e-2 if t < 100 else 4e-3 for t in range(200)]

    expected = _adam_reference({k: v.copy() for k, v in init.items()}, grads_seq, lrs, weight_decay)

    state = AdamState.for_stack([init])
    for grads, lr in zip(grads_seq, lrs):
        for k, g in grads.items():
            state.grads[k][0] = g
        adam_step(state, lr, weight_decay)
    assert state.t.tolist() == [200]
    for k in shapes:
        assert state.params[k].shape == (1, *shapes[k])
        assert state.params[k][0].tobytes() == expected[k].tobytes(), k


def test_blocked_forward_equals_whole_pass():
    rng = np.random.default_rng(54)
    params = init_params(ModelConfig(hidden_dims=(64, 64), seed=3), 9, t_d_mean=2.0)
    for k in params:  # nonzero biases, so every term of each layer counts
        params[k] = params[k] + rng.normal(scale=0.1, size=params[k].shape)
    # row counts that are not multiples of the block; the larger ones cross
    # the BLAS threading threshold in a whole pass
    for n, rows in ((1, 32), (31, 32), (33, 32), (1550, 32), (333, 64), (7735, 100)):
        X = rng.normal(size=(n, 9))
        y_hat, t_pred, _, _ = _forward_batch(params, X)
        y_hat_b, t_pred_b = _forward_blocked(params, X, rows)
        assert y_hat_b.tobytes() == y_hat.tobytes(), (n, rows)
        assert t_pred_b.tobytes() == t_pred.tobytes(), (n, rows)


def test_blocked_forward_with_one_row_left_over_equals_whole_pass():
    # a one-row matmul takes another BLAS routine than a row left over in a
    # larger block; on this data it rounds differently in about a third of
    # these cases
    rng = np.random.default_rng(58)
    for seed in range(8):
        params = init_params(ModelConfig(hidden_dims=(64, 64), seed=seed), 9, t_d_mean=2.0)
        for k in params:
            params[k] = params[k] + rng.normal(scale=0.1, size=params[k].shape)
        for n, rows in ((5, 4), (33, 32), (65, 64), (1537, 64)):
            X = rng.normal(size=(n, 9))
            y_hat, t_pred, _, _ = _forward_batch(params, X)
            y_hat_b, t_pred_b = _forward_blocked(params, X, rows)
            assert y_hat_b.tobytes() == y_hat.tobytes(), (seed, n, rows)
            assert t_pred_b.tobytes() == t_pred.tobytes(), (seed, n, rows)


def test_blocked_forward_of_no_rows_is_two_empty_arrays():
    params = init_params(ModelConfig(hidden_dims=(4,), seed=3), 2)
    for rows in (1, 32):
        y_hat, t_pred = _forward_blocked(params, np.empty((0, 2)), rows)
        for a in (y_hat, t_pred):
            assert a.dtype == np.float64 and a.shape == (0,)


def _train_reference(train_set, val_set, mcfg, tcfg):
    """A plainer training loop: backward and adam_step per minibatch, the
    train loss summed from each batch's mean, and the validation forward
    pass in one piece."""
    state = AdamState.for_stack(
        [init_params(mcfg, train_set.input_dim, t_d_mean=float(np.mean(train_set.t_d)))]
    )
    params = {k: v[0] for k, v in state.params.items()}
    grads = {k: v[0] for k, v in state.grads.items()}
    rng = np.random.default_rng(tcfg.seed)
    n = len(train_set)
    history = TrainHistory([], [], [], 0)
    best_loss, best_params = np.inf, None
    for epoch in range(1, tcfg.max_epochs + 1):
        lr = effective_lr(epoch, tcfg)
        order = rng.permutation(n)
        X, t_d, p, y = (
            a[order] for a in (train_set.features, train_set.t_d, train_set.p, train_set.y)
        )
        loss_sum = 0.0
        for start in range(0, n, tcfg.batch_size):
            batch = slice(start, start + tcfg.batch_size)
            labels = t_d[batch], p[batch], y[batch]
            y_hat, t_pred = backward(grads, params, X[batch], *labels, tcfg.loss)
            adam_step(state, lr, tcfg.weight_decay)
            loss_sum += _batch_loss(y_hat, t_pred, *labels, tcfg.loss) * len(y_hat)
        history.train_loss.append(loss_sum / n)
        y_hat, t_pred, _, _ = _forward_batch(params, val_set.features)
        val_loss = _batch_loss(y_hat, t_pred, val_set.t_d, val_set.p, val_set.y, tcfg.loss)
        history.val_loss.append(val_loss)
        history.val_auc.append(roc_auc(y_hat, val_set.y)[0])
        if val_loss < best_loss:
            best_loss, best_params = val_loss, {k: v.copy() for k, v in params.items()}
            history.selected_epoch = epoch
    return best_params, history


def _random_dataset(rng, n, prefix, input_dim=5):
    """``n`` scans of ``n // 2`` patients with labels of every branch."""
    p = rng.integers(0, 2, n)
    p[:2] = [0, 1]
    t_d = rng.uniform(-2.0, 6.0, n)
    t_d[p == 0] = np.abs(t_d[p == 0]) + 1.0
    t_d[3] = 1.0  # exactly epsilon
    return ScanDataset(
        [f"{prefix}s{i}" for i in range(n)], [f"{prefix}p{i // 2}" for i in range(n)],
        rng.normal(size=(n, input_dim)) + p[:, None], t_d, p, p * (t_d <= 3.0),
    )


@pytest.mark.parametrize("hidden_dims", [(16,), (8, 6, 4)])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_train_equals_the_loop_it_replaced(lam, weight_decay, hidden_dims):
    rng = np.random.default_rng(57)
    train_set, val_set = _random_dataset(rng, 103, "t"), _random_dataset(rng, 41, "v")
    mcfg = ModelConfig(hidden_dims=hidden_dims, seed=4)
    # 103 = 8 * 12 + 7: every epoch ends on a partial batch
    tcfg = TrainConfig(
        max_epochs=7, lr0=1e-2, lr_decay_epochs=(3, 5), weight_decay=weight_decay,
        batch_size=12, loss=LossConfig(lam=lam), seed=6,
    )
    [(params, history)] = train([(train_set, val_set, mcfg, tcfg)])
    ref_params, ref_history = _train_reference(train_set, val_set, mcfg, tcfg)
    assert history == ref_history
    assert 1 < history.selected_epoch  # the selected snapshot is not the first
    assert params.keys() == ref_params.keys()
    for k in params:
        assert params[k].tobytes() == ref_params[k].tobytes(), k


# training set sizes of each stack, at batch 12: 7 is smaller than a batch,
# 103 and 61 end on a partial batch (61 on a single row), 96 is an exact
# multiple; the stack of five steps together for five batches
STACK_SIZES = {1: (103,), 2: (96, 103), 3: (103, 7, 96), 5: (103, 96, 130, 61, 100)}


@pytest.mark.parametrize("hidden_dims", [(), (16,), (8, 6, 4)])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("k", sorted(STACK_SIZES))
def test_stacked_folds_equal_the_loop_fold_by_fold(k, lam, weight_decay, hidden_dims):
    rng = np.random.default_rng(60)
    folds = [
        (_random_dataset(rng, n, f"t{i}"), _random_dataset(rng, 41, f"v{i}"),
         ModelConfig(hidden_dims=hidden_dims, seed=i),
         TrainConfig(max_epochs=5, lr0=1e-2, lr_decay_epochs=(3,), weight_decay=weight_decay,
                     batch_size=12, loss=LossConfig(lam=lam), seed=10 + i))
        for i, n in enumerate(STACK_SIZES[k])
    ]
    for i, (fold, (params, history)) in enumerate(zip(folds, train(folds))):
        ref_params, ref_history = _train_reference(*fold)
        assert history == ref_history, i
        assert params.keys() == ref_params.keys()
        for key in params:
            assert params[key].tobytes() == ref_params[key].tobytes(), (i, key)


def _subset_reference(ds, indices):
    """The comprehension ``ScanDataset.subset`` replaced."""
    idx = list(indices)
    return ScanDataset(
        [ds.scan_ids[i] for i in idx], [ds.patient_ids[i] for i in idx],
        ds.features[idx], ds.t_d[idx], ds.p[idx], ds.y[idx],
    )


def _subset_patients_reference(ds, patient_set):
    """The comprehension ``ScanDataset.subset_patients`` replaced."""
    keep = set(patient_set)
    return _subset_reference(ds, [i for i, pid in enumerate(ds.patient_ids) if pid in keep])


def _assert_same_dataset(got, want):
    assert got.scan_ids == want.scan_ids
    assert got.patient_ids == want.patient_ids
    for name in ("features", "t_d", "p", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_subset_patients_equals_the_loop_it_replaced():
    rng = np.random.default_rng(58)
    # a patient's scans interleaved with other patients'
    ds = _random_dataset(rng, 60, "s", input_dim=3)
    ds = ds.subset(rng.permutation(len(ds)))
    pats = ds.patients()
    for patient_set in (
        [pats[i] for i in rng.permutation(len(pats))[:12]],  # given out of order
        tuple(pats[:5]) + ("nobody", "sp999"),  # ids not in the dataset
        pats[3:6] * 2,  # duplicates
        pats,
        [],
    ):
        _assert_same_dataset(
            ds.subset_patients(patient_set), _subset_patients_reference(ds, patient_set)
        )
    assert ds.subset_patients([]).features.shape == (0, 3)
    assert ds.subset([]).features.shape == (0, 3)
    for indices in ([], [4, 0, 4, 59], np.array([7, 2, 31]), np.arange(60)[::-2]):
        _assert_same_dataset(ds.subset(indices), _subset_reference(ds, indices))


def _random_table(kind, rng, n):
    """A ``kind`` table of ``n`` rows with random columns."""
    ids, pids = [f"s{i}" for i in range(n)], [f"p{i // 3}" for i in range(n)]
    if kind is PatientTable:
        diag = np.where(rng.random(n) < 0.5, np.nan, rng.normal(size=n))
        return PatientTable(pids, rng.integers(0, 2, n), diag, ids, rng.normal(size=n))
    if kind is LabelTable:
        return LabelTable(ids, pids, rng.normal(size=n), rng.integers(0, 2, n),
                          rng.integers(0, 2, n))
    if kind is PredictionTable:
        return PredictionTable(ids, rng.random(n), rng.normal(size=n), rng.integers(0, 5, n))
    return _random_dataset(rng, n, "d", input_dim=3)


@pytest.mark.parametrize("kind", [PatientTable, LabelTable, ScanDataset, PredictionTable])
def test_every_table_subset_equals_per_column_indexing(kind):
    rng = np.random.default_rng(59)
    table = _random_table(kind, rng, 20)
    for rows in (
        rng.permutation(20),
        np.arange(20)[::-1],  # reversed
        [4, 0, 4, 19, 4],  # duplicates
        [],
        np.array([7, 2, 3]),
        np.array([], dtype=np.int64),
    ):
        got = table.subset(rows)
        assert type(got) is kind and len(got) == len(rows)
        for f in fields(table):
            column, picked = getattr(table, f.name), getattr(got, f.name)
            if isinstance(column, list):
                assert picked == [column[i] for i in rows], f.name
            else:
                want = column[list(rows)]
                assert (picked.dtype, picked.shape, picked.tobytes()) == (
                    want.dtype, want.shape, want.tobytes()), f.name
    if kind is ScanDataset:
        assert table.subset([]).features.shape == (0, 3)


def _roc_reference(scores, labels):
    """The ROC-point loop the vectorised version replaced, as a list of
    [threshold, fpr, tpr] rows."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    n_pos = int(np.sum(lab == 1))
    n_neg = int(np.sum(lab == 0))
    order = np.argsort(-s, kind="stable")
    points = [[float("inf"), 0.0, 0.0]]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and s[order[j]] == s[order[i]]:
            if lab[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append([float(s[order[i]]), fp / n_neg, tp / n_pos])
        i = j
    return points


def test_vectorised_roc_points_equal_loop():
    rng = np.random.default_rng(53)
    cases = [
        ([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]),
        ([0.9, 0.1], [1, 0]),
        ([0.0, -0.0, 1.0, -0.0], [1, 0, 1, 0]),  # signed zeros tie
    ]
    for n in (2, 3, 10, 257):
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        cases.append((rng.uniform(size=n), labels))
        cases.append((rng.integers(0, 4, n) / 4.0, labels))  # heavy ties
    for scores, labels in cases:
        _, points = roc_auc(scores, labels)
        expected = _roc_reference(scores, labels)
        assert points.dtype == np.float64 and points.shape == (len(expected), 3)
        assert points.tolist() == expected
        # == on floats says 0.0 == -0.0; the thresholds must match in sign too
        assert points.tobytes() == np.array(expected).tobytes()


def _auc_reference(scores, labels):
    """The midrank AUC from scipy's rankdata, as computed before the AUC
    came from the ROC curve's tie runs."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    n_pos = int(np.sum(lab == 1))
    n_neg = int(np.sum(lab == 0))
    ranks = rankdata(s)
    return float((ranks[lab == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_auc_from_tie_runs_equals_rankdata():
    rng = np.random.default_rng(55)
    cases = [
        ([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]),
        ([0.0, -0.0, 1.0, -0.0, 0.0], [1, 0, 1, 0, 0]),  # signed zeros tie
        ([0.3, np.nan, 0.7], [1, 0, 0]),  # NaN has no rank: the AUC is NaN
    ]
    for _ in range(1_500):
        n = int(rng.integers(2, 400))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        grid = int(rng.integers(1, 12))
        scores = rng.integers(0, grid, n) / grid if rng.uniform() < 0.7 else rng.normal(size=n)
        scores[rng.uniform(size=n) < 0.1] *= -1.0  # signed zeros among the ties
        cases.append((scores, labels))
    for scores, labels in cases:
        got, _ = roc_auc(scores, labels)
        expected = _auc_reference(scores, labels)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def _km_reference(times, event):
    """The tie-group loop km_estimate ran before it was vectorised."""
    order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
    t = np.asarray(times, dtype=np.float64)[order]
    e = np.asarray(event)[order]
    out_t, out_s, out_n, out_d = [], [], [], []
    s = 1.0
    i = 0
    removed = 0
    while i < len(t):
        j = i
        d = 0
        while j < len(t) and t[j] == t[i]:
            d += int(e[j])
            j += 1
        at_risk = len(t) - removed
        if d > 0:
            s *= 1.0 - d / at_risk
            out_t.append(float(t[i]))
            out_s.append(s)
            out_n.append(at_risk)
            out_d.append(d)
        removed += j - i
        i = j
    return tuple(out_t), tuple(out_s), tuple(out_n), tuple(out_d)


def test_vectorised_km_equals_loop():
    rng = np.random.default_rng(56)
    cases = [([0.0, -0.0, 0.0, 1.0], [1, 1, 0, 1]), ([2.0, 2.0], [0, 0]), ([3.0], [True])]
    for i in range(1_000):
        n = int(rng.integers(1, 300))
        grid = int(rng.integers(1, 20))
        times = rng.integers(0, grid, n) / 4.0 if rng.uniform() < 0.7 else rng.exponential(size=n)
        event = rng.integers(0, 2, n)
        cases.append((times, event.astype([int, bool, float][i % 3])))
    for times, event in cases:
        km = km_estimate(times, event)
        expected = _km_reference(times, event)
        got = (km.times, km.survival, km.n_at_risk, km.n_events)
        assert got == expected
        assert all(type(v) is float for v in km.times + km.survival)
        assert all(type(v) is int for v in km.n_at_risk + km.n_events)
        assert np.array(km.times).tobytes() == np.array(expected[0]).tobytes()
        assert np.array(km.survival).tobytes() == np.array(expected[1]).tobytes()


# sha256 of every file a small synth -> label -> crossval -> eval -> km
# pipeline writes, recorded with the per-batch checked losses, the per-key
# Adam loop and the ROC-point loop (numpy 2.4, OpenBLAS, x86-64), and again
# for the synth/label/eval/km files before the CSV layer became table-driven.
# Acceptance 9 compares two runs of the same code, so it cannot see drift;
# this can. A BLAS that rounds matmuls differently would also change these.
GOLDEN_PIPELINE = {
    "data/labels.csv": "b55fbd3a05a056dbb554e4c2c3d0947ad756c103a6e81bfd1213d81794d1d7b7",
    "data/patients.csv": "c9595a7ed326e9c3529bfbdea7f7172b9a7969f7ed717fa37a9c6d704f172a06",
    "data/scans.csv": "2451bec09eaec08d2299eff6117eda949960359225f6728bfaeef74dbd2a4b94",
    "data/truth.csv": "4452525f52d7c4ef3b0af40f0ab3d80abb71fa5631458a19e9a08d3e3df83023",
    "eval/km.csv": "58bcd61ff00027b21f4c6bb1865cb5e4475063560fe8f2007a5ac6d6a7404f7f",
    "eval/report.txt": "a3b5623ebc3250d9ab7156519967e2dda89be80730010d10503cec1fb795eb4e",
    "eval/roc.csv": "a4bf3e2a8c4a252c4416fe7e05295c53f44bf4d440d76dcf7b535da9425259bc",
    "eval/scatter_cancer.csv": "d8f54cb02adf25c2e4748555b98fef6ebe0e9108f6cf0c6ae169e4119c28846f",
    "eval/scatter_noncancer.csv": "e9f77c0aee993e1183a2c2ca70ba787e3b41e50c57ac5c6b0e421fd3387f3fb7",
    "eval/threshold_table.csv": "e9a7760ed109ccce1ad743dce52abee20ab303b8088fc362fa7ef5c746189c81",
    "km.csv": "58bcd61ff00027b21f4c6bb1865cb5e4475063560fe8f2007a5ac6d6a7404f7f",
    "run/folds.csv": "5888e5b29f7514209d3e6ec31d5a68cac5e04ba47eae62be23188052683a2462",
    "run/history_fold0.csv": "7c9af913112df3d0b357151e1bc411675128c3ec3a7ab9f3d818a8360ffccad4",
    "run/history_fold1.csv": "01bdab7f8bbfa5c279d309ac5ef645722c23c0e4f95cd9de0a7cd8b573b49c81",
    "run/history_fold2.csv": "2fe174ff0255082f562414b604422cbecda798af35461ce0425a2d892980d90e",
    "run/predictions.csv": "e5dce14642c45ac83a83eb5e2f1cd5c2438539b41c36dccc420dd1650bc4e02c",
}


def test_crossval_outputs_match_recorded_hashes(tmp_path):
    data = tmp_path / "data"
    cfg = build_experiment_config(
        {
            "k_folds": "3",
            "paths.labels": str(data / "labels.csv"),
            "paths.scans": str(data / "scans.csv"),
            "cohort.n_patients": "60",
            "cohort.feature_dim": "3",
            "model.hidden_dims": "8, 6",
            "train.max_epochs": "6",
            "train.lr_decay_epochs": "4",
            "train.batch_size": "12",  # not a power of two: 1/n rounds
        }
    )
    cmd_synth(cfg, data)
    cmd_label(data / "patients.csv", data / "labels.csv")
    cmd_crossval(cfg, tmp_path / "run")
    predictions = tmp_path / "run" / "predictions.csv"
    cmd_eval(predictions, data / "labels.csv", tmp_path / "eval", predictions_b_csv=predictions)
    cmd_km(data / "labels.csv", tmp_path / "km.csv")
    got = {
        f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(tmp_path.rglob("*")) if f.is_file()
    }
    assert got == GOLDEN_PIPELINE, (
        f"hashes recorded on OpenBLAS's SkylakeX kernel; this run's is {blas_kernel()}")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_crossval_pinned_to_one_cpu_writes_the_same_bytes(tmp_path):
    """One CPU trains the folds in-process, more train them in worker
    processes; every file either run writes must be the same."""
    data = tmp_path / "data"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "k_folds = 4\ncohort.n_patients = 80\ncohort.feature_dim = 3\n"
        "model.hidden_dims = 16, 8\ntrain.max_epochs = 4\ntrain.lr_decay_epochs = 3\n"
        f"train.batch_size = 12\npaths.labels = {data / 'labels.csv'}\n"
        f"paths.scans = {data / 'scans.csv'}\n",
        encoding="utf-8",
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def pin_to_one_cpu():  # runs in the child only, before it starts Python
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def cfpt(*args, preexec_fn=None):
        subprocess.run([sys.executable, "-m", "cfpt.cli", *map(str, args)], env=env,
                       check=True, capture_output=True, preexec_fn=preexec_fn, timeout=300)

    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["label", str(data / "patients.csv"), "--out", str(data / "labels.csv")]) == 0
    cfpt("crossval", "--config", cfg, "--out", tmp_path / "pinned", preexec_fn=pin_to_one_cpu)
    cfpt("crossval", "--config", cfg, "--out", tmp_path / "free")
    pinned = {f.name: f.read_bytes() for f in (tmp_path / "pinned").iterdir()}
    free = {f.name: f.read_bytes() for f in (tmp_path / "free").iterdir()}
    assert len(pinned) == 6  # predictions, folds and four histories
    assert pinned == free
