import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from cfpt.labels import LabelTable
from cfpt.losses import LossConfig
from cfpt.model import (
    ADAM_EPS,
    AdamState,
    FoldAssignment,
    FoldError,
    ModelConfig,
    ScanDataset,
    TrainConfig,
    _forward_batch,
    _run_folds,
    adam_step,
    backward,
    build_dataset,
    crossval_split,
    effective_lr,
    fold_seed,
    init_params,
    predict,
    run_crossval,
    train,
)
from helpers import network_gradients, network_loss, random_network_instance


# ---------------------------------------------------------------------------
# init / forward


def test_init_params_deterministic():
    cfg = ModelConfig(hidden_dims=(6, 5), seed=7)
    a = init_params(cfg, 4)
    b = init_params(cfg, 4)
    assert sorted(a) == sorted(b)
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = init_params(ModelConfig(hidden_dims=(6, 5), seed=8), 4)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_params_shapes_and_bias():
    cfg = ModelConfig(hidden_dims=(4,), seed=0)
    params = init_params(cfg, 3, t_d_mean=2.75)
    assert params["W0"].shape == (3, 4)
    assert params["b0"].shape == (4,)
    assert params["w_cls"].shape == (4,)
    assert params["w_reg"].shape == (4,)
    assert np.all(params["b0"] == 0.0)
    assert params["b_cls"][0] == 0.0
    assert params["b_reg"][0] == 2.75
    bound = 1.0 / np.sqrt(3)
    assert np.all(np.abs(params["W0"]) <= bound)


def test_init_params_no_hidden_layers():
    cfg = ModelConfig(hidden_dims=(), seed=1)
    params = init_params(cfg, 3)
    assert set(params) == {"w_cls", "b_cls", "w_reg", "b_reg"}
    # heads act directly on the inputs
    X = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    y_hat, t_pred, _, _ = _forward_batch(params, X)
    from scipy.special import expit

    assert y_hat == pytest.approx(expit(X @ params["w_cls"]), abs=1e-15)
    assert t_pred == pytest.approx(X @ params["w_reg"], abs=1e-15)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dims=(0,))


def _zero_params(input_dim, hidden):
    params = init_params(ModelConfig(hidden_dims=hidden, seed=0), input_dim)
    for k in params:
        params[k] = np.zeros_like(params[k])
    return params


def test_forward_zero_weights():
    params = _zero_params(3, (4,))
    y_hat, t_pred, _, _ = _forward_batch(params, np.array([[1.0, 2.0, 3.0]]))
    assert y_hat.tolist() == [0.5]
    assert t_pred.tolist() == [0.0]


def test_forward_zero_weights_regression_bias():
    params = _zero_params(3, (4,))
    params["b_reg"] = np.array([3.5])
    X = np.array([[0.0, 0.0, 0.0], [5.0, -1.0, 2.0], [100.0, 0.0, -3.0]])
    _, t_pred, _, _ = _forward_batch(params, X)
    assert t_pred.tolist() == [3.5, 3.5, 3.5]


def test_forward_disjoint_heads():
    # 2-unit trunk with the heads wired to different units: scaling the
    # classification weight must leave the regression output alone
    params = _zero_params(2, (2,))
    params["W0"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    params["w_cls"] = np.array([2.0, 0.0])
    params["w_reg"] = np.array([0.0, 1.5])
    X = np.array([[3.0, 2.0]])
    y_hat_1, t_pred_1, _, _ = _forward_batch(params, X)
    params["w_cls"] = np.array([4.0, 0.0])
    y_hat_2, t_pred_2, _, _ = _forward_batch(params, X)
    assert y_hat_2[0] != y_hat_1[0]
    assert t_pred_2[0] == t_pred_1[0] == 3.0


# ---------------------------------------------------------------------------
# backward


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(31)
    cfg = LossConfig(lam=0.5, epsilon=1.0)
    for _ in range(8):
        params, X, t_d, p, y = random_network_instance(rng)
        grads, _ = network_gradients(params, X, t_d, p, y, cfg)
        for k in params:
            g = grads[k]
            flat = params[k].reshape(-1)
            gflat = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                h = 1e-5
                flat[j] = orig + h
                lp = network_loss(params, X, t_d, p, y, cfg)
                flat[j] = orig - h
                lm = network_loss(params, X, t_d, p, y, cfg)
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gflat[j]), 1e-8)
                assert abs(gflat[j] - fd) / denom <= 1e-5, (k, j)


def test_backward_lambda_zero_regression_head_frozen():
    rng = np.random.default_rng(32)
    params, X, t_d, p, y = random_network_instance(rng)
    grads, _ = network_gradients(params, X, t_d, p, y, LossConfig(lam=0.0))
    assert np.all(grads["w_reg"] == 0.0)
    assert np.all(grads["b_reg"] == 0.0)
    assert np.any(grads["w_cls"] != 0.0)


def test_backward_duplicated_rows_mean_reduction():
    rng = np.random.default_rng(33)
    params, X, t_d, p, y = random_network_instance(rng)
    cfg = LossConfig()
    g1, l1 = network_gradients(params, X, t_d, p, y, cfg)
    g2, l2 = network_gradients(
        params,
        np.vstack([X, X]),
        np.concatenate([t_d, t_d]),
        np.concatenate([p, p]),
        np.concatenate([y, y]),
        cfg,
    )
    assert l2 == pytest.approx(l1, abs=1e-12)
    for k in g1:
        assert g2[k] == pytest.approx(g1[k], abs=1e-12)


def test_backward_rejects_empty_batch():
    params = _zero_params(3, (4,))
    with pytest.raises(ValueError):
        network_gradients(
            params, np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0), LossConfig()
        )


# ---------------------------------------------------------------------------
# adam


def test_adam_first_step_hand_value():
    state = AdamState.for_stack([{"w": np.array([1.0])}])
    g = 2.0
    lr = 0.01
    state.grad[:] = g
    adam_step(state, lr, 0.0)
    # bias correction makes m_hat = g, v_hat = g^2 on the first step
    expected = 1.0 - lr * g / (abs(g) + ADAM_EPS)
    assert state.params["w"][0, 0] == pytest.approx(expected, abs=1e-15)
    assert state.t.tolist() == [1]


def test_adam_first_step_with_weight_decay():
    theta0 = 3.0
    state = AdamState.for_stack([{"w": np.array([theta0])}])
    g_eff = 0.5 + 0.01 * theta0
    state.grad[:] = 0.5
    adam_step(state, 0.1, 0.01)
    expected = theta0 - 0.1 * g_eff / (abs(g_eff) + ADAM_EPS)
    assert state.params["w"][0, 0] == pytest.approx(expected, abs=1e-15)


def test_adam_zero_gradient_noop():
    state = AdamState.for_stack([{"w": np.array([1.0, -2.0]), "b": np.array([0.5])}])
    for _ in range(3):
        state.grad[:] = 0.0
        adam_step(state, 0.1, 0.0)
    assert np.array_equal(state.params["w"], [[1.0, -2.0]])
    assert np.array_equal(state.params["b"], [[0.5]])


def test_adam_deterministic_sequence():
    def run():
        state = AdamState.for_stack([{"w": np.array([1.0, 2.0])}])
        rng = np.random.default_rng(34)
        for _ in range(20):
            state.grads["w"][0] = rng.normal(size=2)
            adam_step(state, 1e-3, 0.01)
        return state.params["w"].copy()

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("epochs", [(-1, 0), (0,), (40, 0, 80), (-5,)])
def test_train_config_rejects_a_decay_epoch_below_one(epochs):
    with pytest.raises(ValueError, match=r"^lr_decay_epochs must be >= 1"):
        TrainConfig(lr_decay_epochs=epochs)
    assert TrainConfig(lr_decay_epochs=(1,)).lr_decay_epochs == (1,)


def test_effective_lr_schedule():
    tcfg = TrainConfig(lr0=1e-3, lr_decay_factor=0.4, lr_decay_epochs=(40, 60, 80))
    assert effective_lr(1, tcfg) == 1e-3
    assert effective_lr(39, tcfg) == 1e-3
    assert effective_lr(40, tcfg) == pytest.approx(4e-4)
    assert effective_lr(59, tcfg) == pytest.approx(4e-4)
    assert effective_lr(60, tcfg) == pytest.approx(1.6e-4)
    assert effective_lr(80, tcfg) == pytest.approx(6.4e-5)
    assert effective_lr(120, tcfg) == pytest.approx(6.4e-5)
    for e in range(1, 121):
        n = sum(1 for d in (40, 60, 80) if d <= e)
        assert effective_lr(e, tcfg) == pytest.approx(1e-3 * 0.4**n)


# ---------------------------------------------------------------------------
# training


def _toy_dataset(rng, n_patients=16, separation=2.0):
    """Linearly separable two-feature cohort, 1-3 scans per patient."""
    scan_ids, patient_ids, rows, t_d, p, y = [], [], [], [], [], []
    for i in range(n_patients):
        pid = f"t{i:02d}"
        cancer = i % 2 == 1
        for k in range(int(rng.integers(1, 4))):
            scan_ids.append(f"{pid}-s{k}")
            patient_ids.append(pid)
            mu = separation if cancer else -separation
            rows.append(rng.normal(mu, 0.5, size=2))
            t_d.append(1.0 + k if cancer else 3.0 + k)
            p.append(int(cancer))
            y.append(int(cancer))
    return ScanDataset(
        scan_ids,
        patient_ids,
        np.array(rows),
        np.array(t_d, dtype=float),
        np.array(p),
        np.array(y),
    )


def _toy_split(seed=35):
    rng = np.random.default_rng(seed)
    full = _toy_dataset(rng, n_patients=20)
    pats = full.patients()
    return full.subset_patients(pats[:14]), full.subset_patients(pats[14:])


def _fast_tcfg(**kw):
    defaults = dict(max_epochs=12, lr0=5e-3, lr_decay_epochs=(8,), batch_size=8, seed=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_train_descends_on_separable_toy():
    tr, va = _toy_split()
    [(params, hist)] = train([(tr, va, ModelConfig(hidden_dims=(8,), seed=3), _fast_tcfg())])
    assert hist.train_loss[-1] < hist.train_loss[0]
    assert len(hist.train_loss) == len(hist.val_loss) == len(hist.val_auc) == 12
    assert hist.val_loss[hist.selected_epoch - 1] == min(hist.val_loss)
    # separable two-class toy should classify essentially perfectly
    assert hist.val_auc[hist.selected_epoch - 1] > 0.95


def test_train_selected_epoch_earliest_argmin():
    tr, va = _toy_split()
    [(_, hist)] = train([(tr, va, ModelConfig(hidden_dims=(4,), seed=3), _fast_tcfg())])
    first_argmin = int(np.argmin(hist.val_loss)) + 1
    assert hist.selected_epoch == first_argmin


def test_train_deterministic():
    tr, va = _toy_split()
    mcfg = ModelConfig(hidden_dims=(8,), seed=3)
    [(p1, h1)] = train([(tr, va, mcfg, _fast_tcfg())])
    [(p2, h2)] = train([(tr, va, mcfg, _fast_tcfg())])
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    assert h1.selected_epoch == h2.selected_epoch
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_train_lambda_changes_solution():
    tr, va = _toy_split()
    mcfg = ModelConfig(hidden_dims=(8,), seed=3)
    [(p_multi, _)] = train([(tr, va, mcfg, _fast_tcfg(loss=LossConfig(lam=0.5)))])
    [(p_single, _)] = train([(tr, va, mcfg, _fast_tcfg(loss=LossConfig(lam=0.0)))])
    assert any(not np.array_equal(p_multi[k], p_single[k]) for k in p_multi)


def test_train_rejects_patient_overlap_and_empty():
    tr, va = _toy_split()
    mcfg = ModelConfig(hidden_dims=(4,), seed=0)
    with pytest.raises(ValueError):
        train([(tr, tr, mcfg, _fast_tcfg())])
    with pytest.raises(ValueError):
        train([(tr.subset([]), va, mcfg, _fast_tcfg())])


def test_train_single_class_validation_gets_nan_auc():
    tr, va = _toy_split()
    va_one_class = va.subset([i for i, yy in enumerate(va.y) if yy == 0])
    [(_, hist)] = train([(tr, va_one_class, ModelConfig(hidden_dims=(4,), seed=1), _fast_tcfg())])
    assert all(np.isnan(a) for a in hist.val_auc)


def test_predict_matches_forward_and_is_pure():
    tr, _ = _toy_split()
    params = init_params(ModelConfig(hidden_dims=(4,), seed=9), 2)
    preds = predict(params, tr, 3)
    assert preds.scan_ids == tr.scan_ids
    assert preds.fold.tolist() == [3] * len(tr)
    for i in (0, len(tr) // 2, len(tr) - 1):  # each row as a batch of one scan
        y_hat, t_pred, _, _ = _forward_batch(params, tr.features[i : i + 1])
        assert preds.y_hat[i] == pytest.approx(y_hat[0], abs=1e-15)
        assert preds.t_pred[i] == pytest.approx(t_pred[0], abs=1e-15)
    assert len(predict(params, tr.subset([]), 0)) == 0
    again = predict(params, tr, 3)
    assert again.y_hat.tobytes() == preds.y_hat.tobytes()
    assert again.t_pred.tobytes() == preds.t_pred.tobytes()


# ---------------------------------------------------------------------------
# cross-validation protocol


def test_crossval_split_pigeonhole():
    patients = [f"p{i}" for i in range(10)]
    folds = crossval_split(patients, k=5, seed=0)
    assert len(folds) == 5
    all_test = [pid for fa in folds for pid in fa.test]
    assert sorted(all_test) == sorted(patients)
    assert all(len(fa.test) == 2 for fa in folds)


def test_crossval_split_disjoint_and_ratio():
    patients = [f"p{i}" for i in range(40)]
    folds = crossval_split(patients, k=5, seed=1)
    for fa in folds:
        tr, va, te = set(fa.train), set(fa.val), set(fa.test)
        assert not tr & va
        assert not tr & te
        assert not va & te
        assert tr | va | te == set(patients)
        # 32 non-test patients at 3:1 -> 8 validation
        assert len(fa.val) == 8
        assert len(fa.train) == 24


def test_crossval_split_determinism_and_errors():
    patients = [f"p{i}" for i in range(11)]
    a = crossval_split(patients, k=5, seed=42)
    b = crossval_split(patients, k=5, seed=42)
    assert a == b
    c = crossval_split(patients, k=5, seed=43)
    assert any(x.test != y.test for x, y in zip(a, c))
    with pytest.raises(ValueError):
        crossval_split(patients, k=1, seed=0)
    with pytest.raises(ValueError):
        crossval_split(["a", "b"], k=3, seed=0)
    with pytest.raises(ValueError):
        crossval_split(["a", "a", "b"], k=2, seed=0)


def test_crossval_split_refuses_a_fold_with_no_training_patient():
    with pytest.raises(ValueError, match="^fold leaves an empty training set"):
        crossval_split(["a", "b"], k=2, seed=0)


def test_fold_seed_stable_and_distinct():
    assert fold_seed(0, 0) == fold_seed(0, 0)
    seeds = {fold_seed(7, f) for f in range(5)}
    assert len(seeds) == 5


def test_run_crossval_pools_each_scan_once():
    rng = np.random.default_rng(36)
    ds = _toy_dataset(rng, n_patients=12)
    mcfg = ModelConfig(hidden_dims=(4,), seed=2)
    tcfg = _fast_tcfg(max_epochs=3)
    res = run_crossval(ds, mcfg, tcfg, k=3)
    assert sorted(res.predictions.scan_ids) == sorted(ds.scan_ids)
    assert len(res.predictions) == len(ds)
    assert len(res.histories) == 3
    # every prediction's patient must sit in its fold's test set
    by_scan = dict(zip(ds.scan_ids, ds.patient_ids))
    for sid, f in zip(res.predictions.scan_ids, res.predictions.fold.tolist()):
        fa = res.folds[f]
        pid = by_scan[sid]
        assert pid in fa.test
        assert pid not in fa.train and pid not in fa.val


def test_run_crossval_deterministic():
    rng = np.random.default_rng(37)
    ds = _toy_dataset(rng, n_patients=9)
    mcfg = ModelConfig(hidden_dims=(4,), seed=2)
    tcfg = _fast_tcfg(max_epochs=2)
    r1 = run_crossval(ds, mcfg, tcfg, k=3)
    r2 = run_crossval(ds, mcfg, tcfg, k=3)
    assert r1.predictions.scan_ids == r2.predictions.scan_ids
    for name in ("y_hat", "t_pred", "fold"):
        assert getattr(r1.predictions, name).tobytes() == getattr(r2.predictions, name).tobytes()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
)
def test_run_crossval_sends_its_workers_only_fold_numbers(monkeypatch):
    import cfpt.model

    sizes, folds = [], []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            sizes.append(len(pickle.dumps((fn, args, kwargs))))
            folds.append([int(f) for f in re.findall(r"\d+", repr(args))])
            return super().submit(fn, *args, **kwargs)

    ds = _toy_dataset(np.random.default_rng(40), n_patients=30)
    mcfg = ModelConfig(hidden_dims=(4,), seed=2)
    tcfg = _fast_tcfg(max_epochs=2)
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 1)
    here = run_crossval(ds, mcfg, tcfg, k=3)
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cfpt.model, "ProcessPoolExecutor", RecordingPool)
    pooled = run_crossval(ds, mcfg, tcfg, k=3)

    # one task per worker, carrying nothing but its folds' numbers
    assert folds == [[0], [1, 2]], folds
    assert max(sizes) < 1024, sizes
    assert pooled.predictions.scan_ids == here.predictions.scan_ids
    for name in ("y_hat", "t_pred", "fold"):
        got, want = getattr(pooled.predictions, name), getattr(here.predictions, name)
        assert got.tobytes() == want.tobytes(), name
    assert pooled.folds == here.folds
    assert repr(pooled.histories) == repr(here.histories)  # repr: NaN AUCs compare equal
    assert cfpt.model._worker_crossval is None
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# dataset assembly


def _two_labels():
    return LabelTable(["s1", "s2"], ["a", "b"], [2.0, 1.0], [1, 0], [1, 0])


def test_build_dataset_and_missing_features():
    labels = _two_labels()
    # features in another order than the labels, with an unlabeled scan:
    # joined by scan id
    feats = (["s2", "s0", "s1"], np.array([[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]]))
    ds = build_dataset(labels, feats)
    assert ds.scan_ids == ["s1", "s2"]
    assert ds.input_dim == 2
    assert ds.patients() == ["a", "b"]
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.t_d.tolist() == [2.0, 1.0] and ds.p.tolist() == [1, 0] and ds.y.tolist() == [1, 0]
    with pytest.raises(ValueError, match=r"features missing for scans: \['s2'\]"):
        build_dataset(labels, (["s1"], np.array([[1.0, 2.0]])))


@pytest.mark.parametrize("shape", [
    (2,),  # not 2-d
    (2, 0),  # no feature column
    (1, 2),  # a scan id without a row
    (3, 2),  # a row without a scan id
])
def test_build_dataset_rejects_a_misshapen_matrix(shape):
    with pytest.raises(ValueError, match=r"^features: .* got shape " + re.escape(str(shape))):
        build_dataset(_two_labels(), (["s1", "s2"], np.ones(shape)))


@pytest.mark.parametrize(
    "column, value, match",
    [
        ("features", np.nan, "features of scan 's2' has non-finite values"),
        ("features", -np.inf, "features of scan 's2' has non-finite values"),
        ("t_d", np.inf, "t_d of scan 's2' has a non-finite value"),
        ("p", 2, "p of scan 's2' has a value other than 0 or 1"),
        ("y", -1, "y of scan 's2' has a value other than 0 or 1"),
    ],
)
def test_build_dataset_rejects_bad_values(column, value, match):
    labels = _two_labels()
    feats = (["s1", "s2"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    if column == "features":
        feats[1][1, 1] = value
    else:
        getattr(labels, column)[1] = value
    with pytest.raises(ValueError, match=match):
        build_dataset(labels, feats)


def test_build_dataset_refuses_a_repeated_feature_scan_id():
    feats = (["s1", "s2", "s1"], np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError, match=r"^features repeat scan id 's1'$"):
        build_dataset(_two_labels(), feats)


def test_train_validates_datasets_at_entry():
    tr, va = _toy_split()
    va.t_d[0] = np.nan
    with pytest.raises(ValueError, match="validation set: t_d"):
        train([(tr, va, ModelConfig(hidden_dims=(4,), seed=0), _fast_tcfg())])


def test_train_rejects_a_validation_set_of_another_width(monkeypatch):
    tr, va = _toy_split()
    narrow = ScanDataset(va.scan_ids, va.patient_ids, va.features[:, :1], va.t_d, va.p, va.y)
    passes = []
    monkeypatch.setattr(
        "cfpt.model._forward_batch", lambda *args: passes.append(args) or _forward_batch(*args)
    )
    with pytest.raises(
        ValueError, match="validation set has 1 feature columns, train set has 2"
    ):
        train([(tr, narrow, ModelConfig(hidden_dims=(4,), seed=0), _fast_tcfg())])
    assert passes == []  # refused before the first forward pass


def test_train_refuses_an_empty_list_of_folds():
    with pytest.raises(ValueError, match="^train needs at least one fold, got none$"):
        train([])


@pytest.mark.parametrize("columns", [None, 0])  # a 1-d matrix, a matrix with no column
@pytest.mark.parametrize("which", ["train", "validation"])
def test_train_names_the_set_whose_features_are_not_a_matrix(which, columns):
    tr, va = _toy_split()
    sets = {"train": tr, "validation": va}
    bad = sets[which]
    shape = (len(bad),) if columns is None else (len(bad), columns)
    sets[which] = ScanDataset(bad.scan_ids, bad.patient_ids, np.zeros(shape), bad.t_d, bad.p, bad.y)
    mcfg, tcfg = ModelConfig(hidden_dims=(4,), seed=0), _fast_tcfg()
    with pytest.raises(FoldError, match=(
        rf"^{which} set: expected a feature matrix with a row for each of {len(bad)} scan ids "
        rf"and at least one column, got shape {re.escape(str(shape))}$"
    )) as caught:
        train([(tr, va, mcfg, tcfg), (sets["train"], sets["validation"], mcfg, tcfg)])
    assert caught.value.index == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_raises_when_no_epoch_has_finite_val_loss():
    # finite but astronomically large targets: every validation loss overflows
    tr, va = _toy_split()
    va.t_d[:] = 1e200
    va.p[:] = 1
    with pytest.raises(ValueError, match="no epoch of 12 gave a finite validation loss"):
        train([(tr, va, ModelConfig(hidden_dims=(4,), seed=0), _fast_tcfg())])


def test_backward_fails_loudly_on_non_finite_predictions():
    rng = np.random.default_rng(38)
    params, X, t_d, p, y = random_network_instance(rng)
    params["b_reg"] = np.array([np.inf])
    grads = {k: np.full_like(v, 7.0) for k, v in params.items()}
    with pytest.raises(ValueError, match="diverged"):
        backward(grads, params, X, t_d, p, y, LossConfig())
    # it raised before writing a gradient
    assert all((g == 7.0).all() for g in grads.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_fold_of_a_stack_is_named_by_its_number():
    # the mean t_d of a training set with the "boom" patients overflows, so
    # the regression bias starts at inf: a fold diverges on its first step
    # exactly when it trains on them
    rng = np.random.default_rng(41)
    calm, boom = _toy_dataset(rng, n_patients=18), _toy_dataset(rng, n_patients=4)
    ds = ScanDataset(
        calm.scan_ids + [f"boom{s}" for s in boom.scan_ids],
        calm.patient_ids + [f"boom{p}" for p in boom.patient_ids],
        np.concatenate([calm.features, boom.features]),
        np.concatenate([calm.t_d, np.full(len(boom), 1e308)]),
        np.concatenate([calm.p, boom.p]), np.concatenate([calm.y, boom.y]),
    )
    pats = calm.patients()
    boom_pats = tuple(f"boom{p}" for p in boom.patients())
    mcfg = ModelConfig(hidden_dims=(4,), seed=2)

    def fold(number, diverges):
        train_pats = tuple(pats[:10]) + (boom_pats if diverges else ())
        return FoldAssignment(number, train_pats, tuple(pats[10:14]), tuple(pats[14:]))

    # at batch 8 the stack diverges on a step it takes together; no training
    # set fills a batch of 64, so there every fold steps alone
    for tcfg in (_fast_tcfg(max_epochs=2), _fast_tcfg(max_epochs=2, batch_size=64)):
        for diverging, named in (({2}, 2), ({4}, 4), ({2, 4}, 2), ({0, 2, 4}, 0)):
            assignments = [fold(f, f in diverging) for f in range(5)]
            with pytest.raises(ValueError, match=rf"^fold {named}: training diverged: "):
                _run_folds(ds, assignments, mcfg, tcfg, (0, 2, 4))
        # a stack of one fold, and that fold alone in a stack of three
        assignments = [fold(f, f == 1) for f in range(5)]
        for stack in ((1,), (0, 1, 3)):
            with pytest.raises(ValueError, match=r"^fold 1: training diverged: "):
                _run_folds(ds, assignments, mcfg, tcfg, stack)


def test_train_refuses_folds_that_differ_in_more_than_their_seeds():
    tr, va = _toy_split()
    mcfg, tcfg = ModelConfig(hidden_dims=(4,), seed=0), _fast_tcfg(max_epochs=1)
    narrow = ScanDataset(tr.scan_ids, tr.patient_ids, tr.features[:, :1], tr.t_d, tr.p, tr.y)
    narrow_val = ScanDataset(va.scan_ids, va.patient_ids, va.features[:, :1], va.t_d, va.p, va.y)
    for other in (
        (tr, va, replace(mcfg, hidden_dims=(5,)), tcfg),
        (tr, va, mcfg, replace(tcfg, batch_size=4)),
        (narrow, narrow_val, mcfg, tcfg),
    ):
        with pytest.raises(ValueError, match="^the folds of a stack must share"):
            train([(tr, va, mcfg, tcfg), other])
    seeds_only = (tr, va, replace(mcfg, seed=1), replace(tcfg, seed=2))
    assert len(train([(tr, va, mcfg, tcfg), seeds_only])) == 2


@pytest.mark.parametrize("label", [0, 1])
def test_run_crossval_refuses_one_class_before_any_fold_trains(monkeypatch, label):
    import cfpt.model

    def trains(folds):
        raise AssertionError("a fold trained")

    monkeypatch.setattr(cfpt.model, "train", trains)
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 1)
    ds = _toy_dataset(np.random.default_rng(42), n_patients=9)
    ds.y[:] = label
    with pytest.raises(
        ValueError, match=rf"^every scan has y = {label}: crossval needs both classes$"
    ):
        run_crossval(ds, ModelConfig(hidden_dims=(3,), seed=0), _fast_tcfg(), k=3)


def test_run_crossval_folds_keep_every_config_field(monkeypatch):
    import cfpt.model

    seen = []
    real_train = cfpt.model.train

    def spy(folds):
        seen.extend((mcfg, tcfg) for _, _, mcfg, tcfg in folds)
        return real_train(folds)

    monkeypatch.setattr(cfpt.model, "train", spy)
    # the spy sees only this process: train the folds here, not in workers
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 1)
    ds = _toy_dataset(np.random.default_rng(39), n_patients=9)
    mcfg = ModelConfig(hidden_dims=(3, 2), seed=4)
    tcfg = _fast_tcfg(
        max_epochs=2, lr_decay_factor=0.3, weight_decay=0.02,
        loss=LossConfig(lam=0.7, epsilon=0.5),
    )
    run_crossval(ds, mcfg, tcfg, k=3)
    assert [(m, t) for m, t in seen] == [
        (replace(mcfg, seed=fold_seed(4, f)), replace(tcfg, seed=fold_seed(5, f)))
        for f in range(3)
    ]

