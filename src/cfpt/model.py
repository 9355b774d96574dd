"""Two-headed feed-forward predictor with hand-derived backpropagation.

A shared trunk of affine + rectifier layers feeds two heads: a sigmoid
classification head for the malignancy probability and an unbounded affine
regression head for the predicted cancer-free progression time. Training
minimizes the joint objective from :mod:`cfpt.losses` with Adam, a step
learning-rate decay, and selection of the parameter snapshot at the epoch
of minimum validation loss. Cross-validation is split at the patient
level so no patient's scans appear in more than one of train / validation
/ test within a fold. :func:`train` is the one way into training: it
takes a list of folds and trains them in lock-step. Their networks are one
stack, with the fold as the leading axis of every parameter, gradient and
moment buffer, so one minibatch step updates them all, each to the bytes
it would reach alone; one network is a stack of one. Each forked worker
process (up to one per available CPU) owns one such group of folds: it
inherits the dataset, subsets its folds' patients, trains them as one
stack and predicts their test scans.

Everything is plain float64 numpy; all randomness flows from explicit
seeds, so a (seed, config, data) triple fully determines every output.
"""

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .labels import LabelTable, ScanTable
# crl, crl_grad and cel stay importable here for perfbench's tracer, which
# wraps functions in the namespace of the module that calls them
from .losses import (  # noqa: F401
    LossConfig, cel, crl, crl_grad, fused_joint_loss, joint_loss_grad,
)
from .metrics import roc_auc

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# rows per block of a forward pass outside the training step. On a 2-CPU
# OpenBLAS build a 64-wide layer ran on one thread up to 192 rows and started
# a second at 256; 64 rows ran as fast per row as 192
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ModelConfig:
    """The trunk's hidden layer widths and the initialization seed; the
    input width is the feature matrix's column count, not a setting."""

    hidden_dims: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be >= 1, got {self.hidden_dims}")


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 120
    lr0: float = 1e-3
    lr_decay_factor: float = 0.4
    lr_decay_epochs: tuple[int, ...] = (40, 60, 80)
    weight_decay: float = 0.01
    batch_size: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "lr_decay_epochs", tuple(int(e) for e in self.lr_decay_epochs)
        )
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if any(e < 1 for e in self.lr_decay_epochs):
            raise ValueError(f"lr_decay_epochs must be >= 1, got {self.lr_decay_epochs}")
        if not 0 < self.lr_decay_factor < 1:
            raise ValueError(
                f"lr_decay_factor must lie in (0, 1), got {self.lr_decay_factor}"
            )
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_loss: list[float]
    val_auc: list[float]
    selected_epoch: int  # 1-based epoch whose snapshot was returned


@dataclass(eq=False)
class ScanDataset(ScanTable):
    """Per-scan features and labels, kept in parallel columns: ``features``
    float64 of shape ``(n_scans, input_dim)``, ``t_d`` float64, ``p`` and
    ``y`` int64, converted on construction."""

    scan_ids: list[str]
    patient_ids: list[str]
    features: np.ndarray
    t_d: np.ndarray
    p: np.ndarray
    y: np.ndarray

    dtypes = {"features": np.float64, "t_d": np.float64, "p": np.int64, "y": np.int64}

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def validate(self, what: str = "dataset") -> None:
        """Raise ValueError unless features and t_d are finite and p and y
        are binary, naming the first offending scan.

        The one check of training data: the training loop itself runs
        unchecked kernels.
        """
        for column, ok, problem in (
            ("features", np.isfinite(self.features), "non-finite values"),
            ("t_d", np.isfinite(self.t_d), "a non-finite value"),
            ("p", (self.p == 0) | (self.p == 1), "a value other than 0 or 1"),
            ("y", (self.y == 0) | (self.y == 1), "a value other than 0 or 1"),
        ):
            if not ok.all():
                row = int(np.argwhere(~ok)[0][0])
                raise ValueError(
                    f"{what}: {column} of scan {self.scan_ids[row]!r} has {problem}"
                )

    def patients(self) -> list[str]:
        """Unique patient ids, in first-appearance order."""
        return list(dict.fromkeys(self.patient_ids))

    def subset_patients(self, patient_set) -> "ScanDataset":
        """The scans of the patients in ``patient_set``, in dataset order."""
        keep = set(patient_set)
        member = np.fromiter(map(keep.__contains__, self.patient_ids), bool, len(self))
        return self.subset(np.flatnonzero(member))


def _feature_matrix(features, what: str) -> tuple:
    """``features``, a ``(scan_ids, matrix)`` pair, with the matrix as
    float64; ValueError naming ``what`` and the shape unless the matrix is
    2-d, with one row per scan id and at least one column."""
    scan_ids, matrix = features
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(scan_ids) or matrix.shape[1] < 1:
        raise ValueError(
            f"{what}: expected a feature matrix with a row for each of {len(scan_ids)} "
            f"scan ids and at least one column, got shape {matrix.shape}"
        )
    return scan_ids, matrix


def build_dataset(labels: LabelTable, features) -> ScanDataset:
    """Join a :class:`LabelTable` to ``features``, a ``(scan_ids, matrix)``
    pair with one matrix row per scan, by scan id; label order is
    preserved. A matrix of another shape or a repeated scan id raises
    ValueError naming it; a labeled scan without features, non-finite
    features or t_d, and non-binary p or y raise ValueError naming the
    scan. The dataset holds the label table's columns themselves, not
    copies."""
    scan_ids, matrix = _feature_matrix(features, "features")
    row = dict(zip(scan_ids, range(len(scan_ids))))
    if len(row) < len(scan_ids):  # a repeated id keeps only its last row
        repeat = next(sid for i, sid in enumerate(scan_ids) if row[sid] != i)
        raise ValueError(f"features repeat scan id {repeat!r}")
    missing = [sid for sid in labels.scan_ids if sid not in row]
    if missing:
        raise ValueError(f"features missing for scans: {missing[:5]}")
    rows = np.fromiter(map(row.__getitem__, labels.scan_ids), np.intp, len(labels))
    ds = ScanDataset(
        labels.scan_ids, labels.patient_ids, matrix[rows], labels.t_d, labels.p, labels.y
    )
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# parameters, forward, backward


def init_params(cfg: ModelConfig, input_dim: int, t_d_mean: float | None = None) -> dict:
    """Deterministic fan-in-scaled uniform initialization of a network
    taking ``input_dim`` features.

    Weights are drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases start
    at zero, except the regression-head bias which is set to ``t_d_mean``
    when given (skipping the long warm-up of an unbounded head).
    """
    rng = np.random.default_rng(cfg.seed)
    params = {}
    fan_in = input_dim
    for i, h in enumerate(cfg.hidden_dims):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"W{i}"] = rng.uniform(-bound, bound, size=(fan_in, h))
        params[f"b{i}"] = np.zeros(h)
        fan_in = h
    bound = 1.0 / np.sqrt(fan_in)
    params["w_cls"] = rng.uniform(-bound, bound, size=fan_in)
    params["b_cls"] = np.zeros(1)
    params["w_reg"] = rng.uniform(-bound, bound, size=fan_in)
    params["b_reg"] = np.zeros(1) if t_d_mean is None else np.array([float(t_d_mean)])
    return params


def _n_hidden(params: dict) -> int:
    return sum(1 for k in params if k.startswith("W"))


def _forward_batch(params: dict, X: np.ndarray):
    """Trunk + heads over a batch; returns (y_hat, t_pred, logit, hiddens).

    ``X`` is one network's ``(n, d)`` batch, or a stack's ``(K, n, d)``
    batches when every array of ``params`` leads with the same K. Each
    product is then one BLAS call per network, on the operand shapes of
    one network alone. ``hiddens[0]`` is the input, ``hiddens[l]`` the
    rectified output of trunk layer l; the last entry feeds both heads.
    """
    from scipy.special import expit  # here, so a process that does not train loads no scipy
    hiddens = [X]
    h = X
    for i in range(_n_hidden(params)):
        h = np.maximum(0.0, h @ params[f"W{i}"] + params[f"b{i}"][..., None, :])
        hiddens.append(h)
    # a matrix-vector product per network; the (..., 1) head biases broadcast
    logit = (h @ params["w_cls"][..., None])[..., 0] + params["b_cls"]
    t_pred = (h @ params["w_reg"][..., None])[..., 0] + params["b_reg"]
    return expit(logit), t_pred, logit, hiddens


def _forward_blocked(params: dict, X: np.ndarray, rows: int = _BLOCK_ROWS):
    """``(y_hat, t_pred)`` of :func:`_forward_batch` over ``X``, run on
    blocks of ``rows`` rows; two empty arrays when ``X`` has no rows.

    Small blocks keep every matmul under the BLAS library's threading
    threshold, so a process uses one CPU. A last row alone, which numpy
    would multiply by another routine, joins the block before it. Whether
    each row's outputs are the bytes of one whole pass depends on the BLAS
    kernel: with ``rows`` a multiple of 4 they are under OpenBLAS's
    SkylakeX kernel, and they are not under its Haswell (which Zen loads),
    Sandybridge or Katmai kernels, where the blocked-forward tests of
    ``tests/test_fastpath.py`` fail. Nothing in the pipeline compares the
    two: per-epoch validation and :func:`predict` both run blocked.
    """
    n = len(X)
    y_hat, t_pred = np.empty(n), np.empty(n)
    stops = [*range(rows, n, rows), n]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    start = 0
    for stop in stops:
        y_hat[start:stop], t_pred[start:stop] = _forward_batch(params, X[start:stop])[:2]
        start = stop
    return y_hat, t_pred


def _batch_loss(y_hat, t_pred, t_d, p, y, cfg: LossConfig) -> float:
    """Mean joint loss over a batch."""
    loss = fused_joint_loss(y_hat, t_pred, t_d, p, y, cfg)
    return float(loss.sum() / loss.size)  # np.mean, less overhead


def _flat_views(buffer: np.ndarray, shapes: dict) -> dict:
    """Views of the rows of the 2-d ``buffer``, each row shaped as
    ``shapes`` laid end to end in its key order; a view leads with the
    buffer's row axis."""
    views, offset = {}, 0
    for k, shape in shapes.items():
        size = math.prod(shape)
        views[k] = buffer[:, offset : offset + size].reshape(len(buffer), *shape)
        offset += size
    return views


class FoldError(ValueError):
    """A ValueError about one network of a stack: ``index`` is its place in
    the stack."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def backward(grads: dict, params: dict, X: np.ndarray, t_d, p, y, loss_cfg: LossConfig):
    """Exact gradients of the mean joint loss over the batch ``X``, written
    into ``grads``, arrays of ``params``' keys and shapes; returns the
    batch's ``(y_hat, t_pred)``.

    ``X`` is one network's ``(n, d)`` batch with ``(n,)`` labels, or a
    stack's ``(K, n, d)`` batches with ``(K, n)`` labels, when ``params``
    and ``grads`` lead with the same K (see :func:`_forward_batch`); each
    network's gradients are the bytes it would get alone. The
    classification path uses the collapsed sigmoid/cross-entropy logit
    gradient; the regression path uses the closed-form censored-regression
    derivative. ``X`` must be non-empty float64; the labels are not
    checked here: callers pass finite ``t_d`` and binary ``p``/``y``, as
    :meth:`ScanDataset.validate` ensures for :func:`train`. Non-finite
    predictions raise :class:`FoldError`, indexing the first network that
    has them, before any gradient is written, so a diverging run stops at
    the step where it diverged.
    """
    if X.ndim not in (2, 3) or X.shape[-2] == 0:
        raise ValueError("backward expects a non-empty 2-d feature batch, or a stack of them")
    n = X.shape[-2]
    y_hat, t_pred, _, hiddens = _forward_batch(params, X)
    sums = zip(t_pred.sum(axis=-1).reshape(-1).tolist(), y_hat.sum(axis=-1).reshape(-1).tolist())
    finite = [math.isfinite(a) and math.isfinite(b) for a, b in sums]
    if not all(finite):
        raise FoldError(
            finite.index(False), "training diverged: non-finite predictions in a minibatch"
        )
    d_logit = (y_hat - y) / n
    d_tpred = joint_loss_grad(t_pred, t_d, p, loss_cfg) / n
    # each network's column of the head gradients
    d_logit_c, d_tpred_c = d_logit[..., None], d_tpred[..., None]

    h_t = hiddens[-1].swapaxes(-1, -2)
    np.matmul(h_t, d_logit_c, out=grads["w_cls"][..., None])
    d_logit.sum(axis=-1, keepdims=True, out=grads["b_cls"])
    np.matmul(h_t, d_tpred_c, out=grads["w_reg"][..., None])
    d_tpred.sum(axis=-1, keepdims=True, out=grads["b_reg"])
    d_h = d_logit_c * params["w_cls"][..., None, :] + d_tpred_c * params["w_reg"][..., None, :]
    for i in range(len(hiddens) - 2, -1, -1):
        dz = d_h * (hiddens[i + 1] > 0)
        np.matmul(hiddens[i].swapaxes(-1, -2), dz, out=grads[f"W{i}"])
        dz.sum(axis=-2, out=grads[f"b{i}"])
        if i > 0:
            d_h = dz @ params[f"W{i}"].swapaxes(-1, -2)
    return y_hat, t_pred


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam's parameters, moments and gradient for a stack of K networks of
    one shape, each a ``(K, P)`` float64 buffer.

    Row k of ``theta``, ``m``, ``v`` and ``grad`` lays network k's
    parameters end to end in the key order of ``params``, whose values are
    ``(K, ...)`` views into ``theta``: an update of ``theta`` is an update
    of every parameter array. ``grads`` holds the same views into
    ``grad``, which :func:`backward` writes and :func:`adam_step` reads.
    ``t`` counts each network's steps, and ``scratch`` holds two buffers
    of ``theta``'s shape for the step's temporaries.
    """

    params: dict
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grads: dict
    t: np.ndarray
    scratch: np.ndarray

    @classmethod
    def for_stack(cls, stack: list) -> "AdamState":
        """A stack of the networks ``stack``, dicts with the same keys and
        shapes, one row each."""
        theta = np.stack(
            [np.concatenate(list(p.values()), axis=None, dtype=np.float64) for p in stack]
        )
        shapes = {k: np.shape(v) for k, v in stack[0].items()}
        grad = np.zeros_like(theta)
        return cls(
            _flat_views(theta, shapes), theta, np.zeros_like(theta), np.zeros_like(theta),
            grad, _flat_views(grad, shapes), np.zeros(len(stack), np.int64),
            np.empty((2, *theta.shape)),
        )

    def row(self, k: int) -> "AdamState":
        """Network ``k`` of the stack as a stack of one: views of the same
        buffers, step count included."""
        r = slice(k, k + 1)
        return AdamState(
            {key: a[r] for key, a in self.params.items()}, self.theta[r], self.m[r],
            self.v[r], self.grad[r], {key: a[r] for key, a in self.grads.items()},
            self.t[r], self.scratch[:, r],
        )


def adam_step(state: AdamState, lr: float, weight_decay: float) -> None:
    """One Adam update (beta1 0.9, beta2 0.999, eps 1e-8, bias-corrected)
    of every network in ``state`` from the gradient in ``state.grad``, in
    place.

    Weight decay enters as a plain L2 gradient term (g += wd * param),
    added into ``state.grad``, before the moment updates. Each network's
    bias corrections come from its own step count; the temporaries live in
    ``state.scratch``, so the step allocates nothing of ``theta``'s size.
    """
    state.t += 1
    # Python floats: numpy's power on the step counts rounds differently
    bias = np.array([(1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t) for t in state.t.tolist()])
    g, m, v = state.grad, state.m, state.v
    a, b = state.scratch
    if weight_decay != 0.0:
        g += np.multiply(state.theta, weight_decay, out=a)
    m *= ADAM_BETA1
    m += np.multiply(g, 1 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(g, 1 - ADAM_BETA2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, bias[:, :1], out=a)  # m_hat
    a *= lr
    np.divide(v, bias[:, 1:], out=b)  # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    state.theta -= a


def effective_lr(epoch: int, tcfg: TrainConfig) -> float:
    """Step-decayed learning rate at a 1-based epoch."""
    n_decays = sum(1 for d in tcfg.lr_decay_epochs if d <= epoch)
    return tcfg.lr0 * tcfg.lr_decay_factor**n_decays


# ---------------------------------------------------------------------------
# training and cross-validation


def _train_loss(loss: np.ndarray, batch_size: int) -> float:
    """An epoch's train loss from its per-scan ``loss``, in step order: the
    mean of the per-batch mean losses weighted by batch size, summed batch
    by batch, the sum of each step's :func:`_batch_loss` would give."""
    n = len(loss)
    full = n - n % batch_size
    total = 0.0
    for mean in (loss[:full].reshape(-1, batch_size).sum(axis=1) / batch_size).tolist():
        total += mean * batch_size
    if full < n:
        rest = loss[full:]
        total += float(rest.sum() / rest.size) * rest.size
    return total / n


def _check_split(train_set: ScanDataset, val_set: ScanDataset) -> None:
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    if val_set.input_dim != train_set.input_dim:
        raise ValueError(
            f"validation set has {val_set.input_dim} feature columns, "
            f"train set has {train_set.input_dim}"
        )
    train_set.validate("train set")
    val_set.validate("validation set")
    overlap = set(train_set.patient_ids) & set(val_set.patient_ids)
    if overlap:
        raise ValueError(
            f"patients appear in both train and validation: {sorted(overlap)[:5]}"
        )


def train(folds) -> list[tuple[dict, TrainHistory]]:
    """Mini-batch Adam with per-epoch reshuffling and step lr decay for
    each of ``folds``, a sequence of ``(train_set, val_set, mcfg, tcfg)``;
    one network is a list of one fold.

    Returns, per fold, the parameter snapshot from the epoch of minimum
    validation loss (earliest epoch on ties) together with the full
    history. A fold's regression-head bias starts at its training set's
    mean ``t_d``, and its sets are validated once here.

    The folds share every setting but the seeds, and their input width.
    Their networks are one stack: each step of :func:`backward` and
    :func:`adam_step` updates all of them, each to the bytes it reaches
    when trained alone. Every epoch, the folds take ``min(train sizes) //
    batch_size`` batches together; then each fold takes its remaining
    batches alone, in fold order. A fold's error is a :class:`FoldError`
    indexing it: the first fold to diverge (non-finite predictions in a
    minibatch), the lowest of those diverging on the same step, or the
    lowest fold whose split is refused or in which no epoch has a finite
    validation loss.
    """
    for i, (train_set, val_set, _, _) in enumerate(folds):
        try:
            _check_split(train_set, val_set)
        except ValueError as exc:
            raise FoldError(i, str(exc)) from exc
    first, _, mcfg, tcfg = folds[0]
    if any(
        replace(m, seed=0) != replace(mcfg, seed=0) or replace(t, seed=0) != replace(tcfg, seed=0)
        or ts.input_dim != first.input_dim for ts, _, m, t in folds
    ):
        raise ValueError("the folds of a stack must share their input width and every "
                         "setting but the seeds")

    state = AdamState.for_stack([
        init_params(m, ts.input_dim, t_d_mean=float(np.mean(ts.t_d))) for ts, _, m, _ in folds
    ])
    nets = [{key: a[k] for key, a in state.params.items()} for k in range(len(folds))]
    rngs = [np.random.default_rng(t.seed) for *_, t in folds]
    sizes = [len(ts) for ts, *_ in folds]
    b = tcfg.batch_size
    # (networks, their rows of the stack, first and end scan of their steps):
    # the whole stack's steps, then each fold's remaining steps alone
    together = min(sizes) // b * b
    runs = [(state, slice(0, len(folds)), 0, together)] + [
        (state.row(k), slice(k, k + 1), together, n) for k, n in enumerate(sizes)
    ]
    # each fold's epoch order: shuffled training columns, then each step's
    # predictions for its train loss
    shape = (len(folds), max(sizes))
    X = np.empty(shape + (first.input_dim,))
    t_d, p, y = np.empty(shape), np.empty(shape, np.int64), np.empty(shape, np.int64)
    y_hat, t_pred = np.empty(shape), np.empty(shape)

    histories = [TrainHistory([], [], [], 0) for _ in folds]
    best_loss = [np.inf] * len(folds)
    best_params = [None] * len(folds)

    for epoch in range(1, tcfg.max_epochs + 1):
        lr = effective_lr(epoch, tcfg)
        for k, ((ts, *_), rng) in enumerate(zip(folds, rngs)):
            order = rng.permutation(sizes[k])
            for column, out in zip((ts.features, ts.t_d, ts.p, ts.y), (X, t_d, p, y)):
                np.take(column, order, axis=0, out=out[k, : sizes[k]])
        for run, rows, begin, end in runs:
            for start in range(begin, end, b):
                batch = rows, slice(start, min(start + b, end))
                try:
                    y_hat[batch], t_pred[batch] = backward(
                        run.grads, run.params, X[batch], t_d[batch], p[batch], y[batch],
                        tcfg.loss,
                    )
                except FoldError as exc:
                    exc.index += rows.start
                    raise
                adam_step(run, lr, tcfg.weight_decay)

        for k, ((_, val_set, *_), history) in enumerate(zip(folds, histories)):
            n = sizes[k]
            loss = fused_joint_loss(
                y_hat[k, :n], t_pred[k, :n], t_d[k, :n], p[k, :n], y[k, :n], tcfg.loss
            )
            history.train_loss.append(_train_loss(loss, b))
            y_hat_val, t_pred_val = _forward_blocked(nets[k], val_set.features)
            val_loss = _batch_loss(
                y_hat_val, t_pred_val, val_set.t_d, val_set.p, val_set.y, tcfg.loss
            )
            history.val_loss.append(val_loss)
            try:
                auc, _ = roc_auc(y_hat_val, val_set.y)
            except ValueError:  # single-class validation split
                auc = float("nan")
            history.val_auc.append(auc)
            if val_loss < best_loss[k]:
                best_loss[k] = val_loss
                best_params[k] = {key: a.copy() for key, a in nets[k].items()}
                history.selected_epoch = epoch

    for k, history in enumerate(histories):
        if history.selected_epoch == 0:
            raise FoldError(
                k,
                f"no epoch of {tcfg.max_epochs} gave a finite validation loss "
                f"(last: {history.val_loss[-1]!r}); nothing to select",
            )
    return list(zip(best_params, histories))


@dataclass(eq=False)
class PredictionTable(ScanTable):
    """Model outputs, one row per scan, in parallel columns: the
    malignancy probability ``y_hat``, the predicted CFPT ``t_pred`` (both
    float64) and the test ``fold`` (int64) whose model made them."""

    scan_ids: list
    y_hat: np.ndarray
    t_pred: np.ndarray
    fold: np.ndarray

    dtypes = {"y_hat": np.float64, "t_pred": np.float64, "fold": np.int64}


def predict(params: dict, dataset: ScanDataset, fold: int) -> PredictionTable:
    """Forward pass over every scan, in dataset order; every row gets
    ``fold`` in its fold column."""
    y_hat, t_pred = _forward_blocked(params, dataset.features)
    return PredictionTable(
        list(dataset.scan_ids), y_hat, t_pred, np.full(len(dataset), fold)
    )


@dataclass(frozen=True)
class FoldAssignment:
    fold: int
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def crossval_split(patients: list[str], k: int, seed: int) -> list[FoldAssignment]:
    """Random equal partition of patients into k test folds.

    Within each fold the remaining patients are split train:val at 3:1.
    Every patient lands in exactly one test fold; within a fold the three
    groups are disjoint by construction.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(patients) < k:
        raise ValueError(f"need at least {k} patients for {k} folds, got {len(patients)}")
    if len(set(patients)) != len(patients):
        raise ValueError("patient ids must be unique")

    rng = np.random.default_rng(seed)
    shuffled = [patients[i] for i in rng.permutation(len(patients))]
    folds = [list(part) for part in np.array_split(np.array(shuffled, dtype=object), k)]

    out = []
    for i, test in enumerate(folds):
        rest = [pid for j, f in enumerate(folds) if j != i for pid in f]
        perm = rng.permutation(len(rest))
        rest = [rest[j] for j in perm]
        n_val = max(1, round(len(rest) / 4.0))
        val = rest[:n_val]
        tr = rest[n_val:]
        if not tr:
            raise ValueError("fold leaves an empty training set; need more patients")
        out.append(FoldAssignment(i, tuple(tr), tuple(val), tuple(test)))
    return out


def fold_seed(seed: int, fold: int) -> int:
    """Stable per-fold RNG seed derived from (seed, fold index)."""
    ss = np.random.SeedSequence((int(seed), int(fold)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class CrossvalResult:
    predictions: PredictionTable  # pooled, each scan exactly once
    folds: list[FoldAssignment]
    histories: list[TrainHistory]


def _available_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# a forked worker's crossval, (dataset, assignments, mcfg, tcfg), set by
# the pool's initializer in the worker and never in the parent
_worker_crossval = None


def _init_worker(*crossval) -> None:
    global _worker_crossval
    _worker_crossval = crossval


def _worker_folds(folds: tuple[int, ...]) -> list[tuple[PredictionTable, TrainHistory]]:
    return _run_folds(*_worker_crossval, folds)


def _run_folds(
    dataset: ScanDataset, assignments, mcfg: ModelConfig, tcfg: TrainConfig,
    folds: tuple[int, ...],
) -> list[tuple[PredictionTable, TrainHistory]]:
    """Whole folds in one stack: subset each fold's patients,
    :func:`train` them with each fold's seeds, with the failing
    fold's number in an error, and predict each fold's test scans. Runs in
    a worker process or in-process alike."""
    stack = [
        (
            dataset.subset_patients(assignments[fold].train),
            dataset.subset_patients(assignments[fold].val),
            replace(mcfg, seed=fold_seed(mcfg.seed, fold)),
            replace(tcfg, seed=fold_seed(tcfg.seed, fold)),
        )
        for fold in folds
    ]
    try:
        trained = train(stack)
    except FoldError as exc:
        raise ValueError(f"fold {folds[exc.index]}: {exc}") from exc
    return [
        (predict(params, dataset.subset_patients(assignments[fold].test), fold), history)
        for fold, (params, history) in zip(folds, trained)
    ]


def run_crossval(
    dataset: ScanDataset, mcfg: ModelConfig, tcfg: TrainConfig, k: int = 5
) -> CrossvalResult:
    """Train one model per fold and pool the held-out predictions.

    Each scan is predicted exactly once, by the model whose training and
    validation never saw its patient. Per-fold training uses independent
    seeds derived from (config seed, fold index).

    The folds run in ``min(k, available CPUs)`` forked worker processes;
    worker ``w`` owns the folds ``f`` with ``f % workers == w`` and trains
    them as one stack (:func:`train`), so each worker's share is one job.
    The workers inherit the dataset, the fold assignments and the configs
    by fork and are sent only fold numbers. When that count is one or
    ``fork`` is unavailable, all folds form one stack in this process.
    Every layout gives the same bytes. Each fold's predictions and history
    come back, and the predictions are pooled here in fold order.

    A dataset whose ``y`` holds one value raises ValueError naming that
    value before any fold trains: no fold could learn to separate the
    classes, and every validation AUC would be undefined. A failing fold
    raises ValueError prefixed ``fold N:``, and stops its stack: N is the
    first fold of the stack to diverge, the lowest of those diverging on
    the same step. When several workers fail, the error of the worker
    owning the lowest fold numbers is raised. All workers have exited when
    this returns or raises; a worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.
    """
    classes = np.unique(dataset.y)
    if len(classes) == 1:
        raise ValueError(f"every scan has y = {classes[0]}: crossval needs both classes")
    assignments = crossval_split(dataset.patients(), k, tcfg.seed)
    crossval = (dataset, assignments, mcfg, tcfg)
    # fork, not spawn: a spawned worker imports numpy, scipy.special and cfpt
    # again, 0.5 s on a 2-vCPU VM, longer than a whole 4-epoch reference
    # crossval there, and would need the dataset pickled. In the CLI the
    # only other threads are OpenBLAS's, which it stops before a fork
    # (pthread_atfork).
    pooled = "fork" in multiprocessing.get_all_start_methods()
    workers = min(k, _available_cpus()) if pooled else 1
    groups = [tuple(range(w, k, workers)) for w in range(workers)]
    if workers > 1:
        import scipy.special  # noqa: F401 -- once here, not in each worker after the fork
        context = multiprocessing.get_context("fork")
        # under fork the initializer's arguments are inherited, not pickled
        with ProcessPoolExecutor(
            workers, mp_context=context, initializer=_init_worker, initargs=crossval
        ) as pool:
            done = list(pool.map(_worker_folds, groups))
    else:
        done = [_run_folds(*crossval, groups[0])]

    by_fold = dict(zip(
        (fold for group in groups for fold in group), (r for rs in done for r in rs)
    ))
    tables, histories = zip(*(by_fold[fold] for fold in range(k)))
    predictions = PredictionTable(
        [sid for table in tables for sid in table.scan_ids],
        *(np.concatenate([getattr(table, name) for table in tables])
          for name in ("y_hat", "t_pred", "fold")),
    )
    return CrossvalResult(predictions, assignments, list(histories))
