"""Two-headed feed-forward predictor with hand-derived backpropagation.

A shared trunk of affine + rectifier layers feeds two heads: a sigmoid
classification head for the malignancy probability and an unbounded affine
regression head for the predicted cancer-free progression time. Training
minimizes the joint objective from :mod:`cfpt.losses` with Adam, a step
learning-rate decay, and selection of the parameter snapshot at the epoch
of minimum validation loss. Cross-validation is split at the patient
level so no patient's scans appear in more than one of train / validation
/ test within a fold. Each fold is one job, run in a forked worker process
(up to one per available CPU) that inherits the dataset, subsets the
fold's patients, trains and predicts the fold's test scans.

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

    ``hiddens[0]`` is the input, ``hiddens[l]`` the rectified output of
    trunk layer l; the last entry feeds both heads.
    """
    from scipy.special import expit  # here, so a process that does not train loads no scipy
    hiddens = [X]
    h = X
    for i in range(_n_hidden(params)):
        h = np.maximum(0.0, h @ params[f"W{i}"] + params[f"b{i}"])
        hiddens.append(h)
    logit = h @ params["w_cls"] + params["b_cls"][0]
    t_pred = h @ params["w_reg"] + params["b_reg"][0]
    return expit(logit), t_pred, logit, hiddens


def _forward_blocked(params: dict, X: np.ndarray, rows: int = _BLOCK_ROWS):
    """``(y_hat, t_pred)`` of :func:`_forward_batch` over ``X``, run on
    blocks of ``rows`` rows; two empty arrays when ``X`` has no rows.

    Small blocks keep every matmul under the BLAS library's threading
    threshold, so a process uses one CPU. With ``rows`` a multiple of 4,
    each row's outputs are the bytes of one whole pass: the BLAS kernels
    take rows in groups of up to 4, so the groups are the same, and a
    last row alone, which numpy would multiply by another routine, joins
    the block before it.
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


def _flat_views(buffer: np.ndarray, params: dict) -> dict:
    """Views of the flat ``buffer`` shaped as the arrays of ``params``, laid
    end to end in its key order."""
    views, offset = {}, 0
    for k, value in params.items():
        views[k] = buffer[offset : offset + value.size].reshape(value.shape)
        offset += value.size
    return views


def _backward_into(grads: dict, params: dict, X, t_d, p, y, loss_cfg: LossConfig):
    """Write the gradients of the mean joint loss over the batch ``X`` into
    ``grads``, arrays of ``params``' keys and shapes, and return the batch's
    ``(y_hat, t_pred)``.

    Unchecked: ``X`` is a non-empty float64 matrix, ``t_d`` finite and
    ``p``/``y`` binary. Non-finite predictions raise ValueError before any
    gradient is written.
    """
    n = X.shape[0]
    y_hat, t_pred, _, hiddens = _forward_batch(params, X)
    if not (math.isfinite(t_pred.sum()) and math.isfinite(y_hat.sum())):
        raise ValueError("training diverged: non-finite predictions in a minibatch")
    d_logit = (y_hat - y) / n
    d_tpred = joint_loss_grad(t_pred, t_d, p, loss_cfg) / n

    h = hiddens[-1]
    np.matmul(h.T, d_logit, out=grads["w_cls"])
    grads["b_cls"][0] = d_logit.sum()
    np.matmul(h.T, d_tpred, out=grads["w_reg"])
    grads["b_reg"][0] = d_tpred.sum()
    d_h = d_logit[:, None] * params["w_cls"] + d_tpred[:, None] * params["w_reg"]
    for i in range(len(hiddens) - 2, -1, -1):
        dz = d_h * (hiddens[i + 1] > 0)
        np.matmul(hiddens[i].T, dz, out=grads[f"W{i}"])
        dz.sum(axis=0, out=grads[f"b{i}"])
        if i > 0:
            d_h = dz @ params[f"W{i}"].T
    return y_hat, t_pred


def backward(params: dict, X: np.ndarray, t_d, p, y, loss_cfg: LossConfig):
    """Exact gradients of the mean joint loss over a batch.

    Returns ``(grads, batch_loss)`` where ``grads`` has the same keys and
    shapes as ``params``. The classification path uses the collapsed
    sigmoid/cross-entropy logit gradient; the regression path uses the
    closed-form censored-regression derivative.

    The labels are not checked here: callers pass finite ``t_d`` and
    binary ``p``/``y``, as :meth:`ScanDataset.validate` ensures for
    :func:`train`. Non-finite predictions raise ValueError, so a diverging
    run stops at the step where it diverged. :func:`train` runs the same
    gradient kernel, writing into its Adam state's buffer.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("backward expects a non-empty 2-d feature batch")
    grads = _flat_views(np.empty(sum(v.size for v in params.values())), params)
    y_hat, t_pred = _backward_into(grads, params, X, t_d, p, y, loss_cfg)
    return grads, _batch_loss(y_hat, t_pred, t_d, p, y, loss_cfg)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam's parameters, moments and gradient, each one flat float64
    buffer.

    ``theta``, ``m``, ``v`` and ``grad`` lay the parameters end to end in
    the key order of ``params``, whose values are views into ``theta``: an
    update of ``theta`` is an update of every parameter array. ``grads``
    holds the same views into ``grad``, which the training step's backward
    pass writes.
    """

    params: dict
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grads: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        """Copy ``params`` into a flat buffer and rebind each entry of the
        dict, in place, to its view, so the caller's dict stays live."""
        theta = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
        params.update(_flat_views(theta, params))
        grad = np.zeros_like(theta)
        return cls(
            params, theta, np.zeros_like(theta), np.zeros_like(theta), grad,
            _flat_views(grad, params),
        )


def _adam_update(state: AdamState, lr: float, weight_decay: float) -> None:
    """Adam's update of ``state.theta`` from the gradient in ``state.grad``,
    in place; weight decay is added into ``state.grad``."""
    state.t += 1
    t = state.t
    g = state.grad
    if weight_decay != 0.0:
        g += weight_decay * state.theta
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    state.theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def adam_step(state: AdamState, grads: dict, lr: float, weight_decay: float) -> AdamState:
    """One Adam update (beta1 0.9, beta2 0.999, eps 1e-8, bias-corrected).

    Weight decay enters as a plain L2 gradient term (g += wd * param)
    before the moment updates. ``grads`` must have the keys and shapes of
    ``state.params``; it is copied into the state's flat gradient buffer
    and the update runs on the flat buffers, in place; the state is
    returned. :func:`train` runs the same update kernel on the gradients
    its backward pass wrote into that buffer.
    """
    if grads.keys() != state.params.keys():
        raise ValueError("gradient keys do not match parameter keys")
    for k, theta in state.params.items():
        if grads[k].shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {k!r}")
    np.concatenate([grads[k] for k in state.params], axis=None, out=state.grad)
    _adam_update(state, lr, weight_decay)
    return state


def effective_lr(epoch: int, tcfg: TrainConfig) -> float:
    """Step-decayed learning rate at a 1-based epoch."""
    n_decays = sum(1 for d in tcfg.lr_decay_epochs if d <= epoch)
    return tcfg.lr0 * tcfg.lr_decay_factor**n_decays


# ---------------------------------------------------------------------------
# training and cross-validation


def _train_loss(loss: np.ndarray, batch_size: int) -> float:
    """An epoch's train loss from its per-scan ``loss``, in step order: the
    mean of the per-batch mean losses weighted by batch size, summed batch
    by batch, the sum :func:`backward`'s loss per step would give."""
    n = len(loss)
    full = n - n % batch_size
    total = 0.0
    for mean in (loss[:full].reshape(-1, batch_size).sum(axis=1) / batch_size).tolist():
        total += mean * batch_size
    if full < n:
        rest = loss[full:]
        total += float(rest.sum() / rest.size) * rest.size
    return total / n


def train(
    train_set: ScanDataset,
    val_set: ScanDataset,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
) -> tuple[dict, TrainHistory]:
    """Mini-batch Adam with per-epoch reshuffling and step lr decay.

    Returns the parameter snapshot from the epoch of minimum validation
    loss (earliest epoch on ties) together with the full history. The
    regression-head bias starts at the training set's mean ``t_d``. Both
    sets are validated once here; a minibatch with non-finite predictions,
    or a run in which no epoch has a finite validation loss, raises
    ValueError.
    """
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

    params = init_params(mcfg, train_set.input_dim, t_d_mean=float(np.mean(train_set.t_d)))
    state = AdamState.for_params(params)
    rng = np.random.default_rng(tcfg.seed)
    n, b = len(train_set), tcfg.batch_size
    # each step's predictions, in the epoch's order, for its train loss
    y_hat, t_pred = np.empty(n), np.empty(n)

    history = TrainHistory([], [], [], 0)
    best_loss = np.inf
    best_params = None
    best_epoch = 0

    for epoch in range(1, tcfg.max_epochs + 1):
        lr = effective_lr(epoch, tcfg)
        order = rng.permutation(n)
        X, t_d, p, y = (
            a[order] for a in (train_set.features, train_set.t_d, train_set.p, train_set.y)
        )
        for start in range(0, n, b):
            batch = slice(start, start + b)
            y_hat[batch], t_pred[batch] = _backward_into(
                state.grads, params, X[batch], t_d[batch], p[batch], y[batch], tcfg.loss
            )
            _adam_update(state, lr, tcfg.weight_decay)
        loss = fused_joint_loss(y_hat, t_pred, t_d, p, y, tcfg.loss)
        history.train_loss.append(_train_loss(loss, b))

        y_hat_val, t_pred_val = _forward_blocked(params, val_set.features)
        val_loss = _batch_loss(
            y_hat_val, t_pred_val, val_set.t_d, val_set.p, val_set.y, tcfg.loss
        )
        history.val_loss.append(val_loss)
        try:
            auc, _ = roc_auc(y_hat_val, val_set.y)
        except ValueError:  # single-class validation split
            auc = float("nan")
        history.val_auc.append(auc)

        if val_loss < best_loss:
            best_loss = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch

    if best_epoch == 0:
        raise ValueError(
            f"no epoch of {tcfg.max_epochs} gave a finite validation loss "
            f"(last: {history.val_loss[-1]!r}); nothing to select"
        )
    history.selected_epoch = best_epoch
    return best_params, history


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


def _worker_fold(fold: int) -> tuple[PredictionTable, TrainHistory]:
    return _run_fold(*_worker_crossval, fold)


def _run_fold(
    dataset: ScanDataset, assignments, mcfg: ModelConfig, tcfg: TrainConfig, fold: int
) -> tuple[PredictionTable, TrainHistory]:
    """One whole fold: subset its patients, :func:`train` on them with the
    fold's seeds, with the fold number in its errors, and predict its test
    scans. Runs in a worker process or in-process alike."""
    fa = assignments[fold]
    try:
        params, history = train(
            dataset.subset_patients(fa.train),
            dataset.subset_patients(fa.val),
            replace(mcfg, seed=fold_seed(mcfg.seed, fold)),
            replace(tcfg, seed=fold_seed(tcfg.seed, fold)),
        )
    except ValueError as exc:
        raise ValueError(f"fold {fold}: {exc}") from exc
    return predict(params, dataset.subset_patients(fa.test), fold), history


def run_crossval(
    dataset: ScanDataset, mcfg: ModelConfig, tcfg: TrainConfig, k: int = 5
) -> CrossvalResult:
    """Train one model per fold and pool the held-out predictions.

    Each scan is predicted exactly once, by the model whose training and
    validation never saw its patient. Per-fold training uses independent
    seeds derived from (config seed, fold index).

    A fold is one job: it subsets its train, validation and test patients,
    trains and predicts. The jobs run in ``min(k, available CPUs)`` forked
    worker processes, which inherit the dataset, the fold assignments and
    the configs by fork and are sent only fold numbers; or in this process
    when that is one or ``fork`` is unavailable. Both give the same bytes.
    Each fold's predictions and history come back, and the predictions are
    pooled here in fold order. All workers have exited when this returns
    or raises; a worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.
    """
    assignments = crossval_split(dataset.patients(), k, tcfg.seed)
    crossval = (dataset, assignments, mcfg, tcfg)
    workers = min(k, _available_cpus())
    # fork, not spawn: a spawned worker imports numpy, scipy.special and cfpt
    # again, 0.5 s on a 2-vCPU VM, longer than a whole 4-epoch reference
    # crossval there, and would need the dataset pickled. In the CLI the
    # only other threads are OpenBLAS's, which it stops before a fork
    # (pthread_atfork).
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        import scipy.special  # noqa: F401 -- once here, not in each worker after the fork
        context = multiprocessing.get_context("fork")
        # under fork the initializer's arguments are inherited, not pickled
        with ProcessPoolExecutor(
            workers, mp_context=context, initializer=_init_worker, initargs=crossval
        ) as pool:
            folds = list(pool.map(_worker_fold, range(k)))
    else:
        folds = [_run_fold(*crossval, fold) for fold in range(k)]

    tables, histories = zip(*folds)
    predictions = PredictionTable(
        [sid for table in tables for sid in table.scan_ids],
        *(np.concatenate([getattr(table, name) for table in tables])
          for name in ("y_hat", "t_pred", "fold")),
    )
    return CrossvalResult(predictions, assignments, list(histories))
