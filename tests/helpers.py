"""Independent oracles and random-input generators shared by the tests.

Everything here is written from first principles (plain branches, explicit
enumeration, finite differences) and must stay independent of the library
code it checks.
"""

import ctypes
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from cfpt.labels import PatientTable


# ---------------------------------------------------------------------------
# censored regression loss: independent scalar three-branch evaluation


def crl_oracle(t_pred, t_d, p, eps):
    if p == 0:
        u = t_pred - t_d - eps
        return (u * u) if u < 0 else 0.0
    v = t_pred - t_d + eps
    if t_d > eps:
        return v * v
    return (v * v) if v > 0 else 0.0


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def crl_kink_distance(t_pred, t_d, p, eps):
    """Distance from t_pred to the nearest non-differentiable-looking clamp
    point of its branch (inf for the pure quadratic branch)."""
    if p == 0:
        return abs(t_pred - (t_d + eps))
    if t_d > eps:
        return math.inf
    return abs(t_pred - (t_d - eps))


# ---------------------------------------------------------------------------
# AUC: exhaustive positive-negative pair comparison


def auc_pairwise_oracle(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    wins = np.sum(diff > 0) + 0.5 * np.sum(diff == 0)
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# Kaplan-Meier: brute-force risk-set recomputation


def km_oracle(times, event):
    """Recompute S at each distinct event time by counting risk sets from
    scratch (subjects with time >= t are at risk at t)."""
    times = np.asarray(times, dtype=float)
    event = np.asarray(event)
    event_times = sorted(set(times[event == 1].tolist()))
    out = []
    s = 1.0
    for t in event_times:
        at_risk = int(np.sum(times >= t))
        d = int(np.sum((times == t) & (event == 1)))
        s *= 1.0 - d / at_risk
        out.append((t, s, at_risk, d))
    return out


# ---------------------------------------------------------------------------
# exact binomial tail for the paired test


def binomial_two_sided_oracle(k_small, n):
    """Doubled lower tail of Binomial(n, 1/2), capped at 1."""
    tail = sum(math.comb(n, i) for i in range(k_small + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


# ---------------------------------------------------------------------------
# patient records

# one patient's longitudinal record; diagnosis_time is None when unknown
Record = namedtuple("Record", "patient_id scan_times is_cancer diagnosis_time", defaults=[None])


def patient_table(*records):
    """The :class:`PatientTable` of ``records`` in order, one row per scan,
    with scan ids ``<patient_id>-s<k>``."""
    rows = [
        (rec.patient_id, rec.is_cancer,
         math.nan if rec.diagnosis_time is None else rec.diagnosis_time,
         f"{rec.patient_id}-s{k}", t)
        for rec in records
        for k, t in enumerate(rec.scan_times)
    ]
    return PatientTable(*map(list, zip(*rows))) if rows else PatientTable([], [], [], [], [])


def records_of(patients):
    """The :class:`Record` of each patient of a valid :class:`PatientTable`,
    in order of first appearance."""
    times, outcome = {}, {}
    for pid, cancer, diagnosis, t in zip(
        patients.patient_ids, patients.is_cancer.tolist(), patients.diagnosis_time.tolist(),
        patients.scan_times.tolist(),
    ):
        times.setdefault(pid, []).append(t)
        outcome.setdefault(pid, (cancer, None if math.isnan(diagnosis) else diagnosis))
    return [Record(pid, tuple(ts), *outcome[pid]) for pid, ts in times.items()]


# ---------------------------------------------------------------------------
# random inputs


def random_patient_record(rng, pid=None):
    """A random :class:`Record` that satisfies the record invariants by
    construction.

    Covers cancer/non-cancer, present/absent diagnosis times, diagnosis
    before the first scan, between scans, and after the last scan.
    """
    n_scans = int(rng.integers(1, 9))
    start = rng.uniform(0.0, 3.0)
    gaps = rng.uniform(0.1, 2.0, size=n_scans - 1)
    times = tuple(np.concatenate([[start], start + np.cumsum(gaps)]).tolist())
    is_cancer = rng.uniform() < 0.4
    diagnosis = None
    if is_cancer and rng.uniform() < 0.7:
        diagnosis = float(rng.uniform(times[0] - 1.0, times[-1] + 2.0))
    return Record(
        patient_id=pid or f"r{rng.integers(0, 10**9)}",
        scan_times=times,
        is_cancer=bool(is_cancer),
        diagnosis_time=diagnosis,
    )


def random_network_instance(rng, n=5, input_dim=4, hidden=(6, 5)):
    """Random net + batch away from crl and rectifier kinks.

    Pre-activations are recomputed here from the raw parameters so the
    rejection step does not depend on the library forward pass.
    """
    from cfpt.model import ModelConfig, init_params

    cfg = ModelConfig(hidden_dims=hidden, seed=int(rng.integers(1 << 30)))
    while True:
        params = init_params(cfg, input_dim, t_d_mean=float(rng.uniform(0, 3)))
        for k in params:
            params[k] = params[k] + rng.normal(0, 0.3, size=params[k].shape)
        X = rng.normal(0, 1.5, size=(n, input_dim))
        t_d = rng.uniform(-3, 6, size=n)
        p = rng.integers(0, 2, size=n)
        y = rng.integers(0, 2, size=n)

        h = X
        z_min = np.inf
        for i in range(len(hidden)):
            z = h @ params[f"W{i}"] + params[f"b{i}"]
            z_min = min(z_min, float(np.min(np.abs(z))))
            h = np.maximum(0.0, z)
        t_pred = h @ params["w_reg"] + params["b_reg"][0]
        kink = min(
            crl_kink_distance(float(tp), float(td), int(pp), 1.0)
            for tp, td, pp in zip(t_pred, t_d, p)
        )
        if z_min > 1e-4 and kink > 1e-3:
            return params, X, t_d, p, y


def network_gradients(params, X, t_d, p, y, cfg):
    """The gradients :func:`cfpt.model.backward` writes, into new arrays of
    ``params``' keys and shapes, and the batch's mean joint loss."""
    from cfpt.model import _batch_loss, backward

    grads = {k: np.empty_like(v) for k, v in params.items()}
    y_hat, t_pred = backward(grads, params, X, t_d, p, y, cfg)
    return grads, _batch_loss(y_hat, t_pred, t_d, p, y, cfg)


def network_loss(params, X, t_d, p, y, cfg):
    """The batch's mean joint loss, from a forward pass alone."""
    from cfpt.model import _batch_loss, _forward_batch

    return _batch_loss(*_forward_batch(params, X)[:2], t_d, p, y, cfg)


def check_label_invariants(rec, labels):
    """All labels-module invariants for one record's label table (plain asserts)."""
    assert len(labels) == len(rec.scan_times)
    assert labels.patient_ids == [rec.patient_id] * len(labels)
    t_d, p, y = labels.t_d.tolist(), labels.p.tolist(), labels.y.tolist()
    for k in range(len(labels)):
        if p[k] == 0:
            assert y[k] == 0
            assert t_d[k] >= 1.0

    if not rec.is_cancer:
        assert min(t_d) == 1.0
        for (ta, tb), (sa, sb) in zip(
            zip(t_d, t_d[1:]), zip(rec.scan_times, rec.scan_times[1:])
        ):
            # consecutive differences mirror the scan spacing
            assert abs((ta - tb) - (sb - sa)) <= 1e-12
    else:
        # the biopsy time: the diagnosis time, or else the last scan time
        b = rec.scan_times[-1] if rec.diagnosis_time is None else rec.diagnosis_time
        pre = [k for k, t in enumerate(rec.scan_times) if t <= b]
        expected_pos = {k for k, t in enumerate(rec.scan_times) if t > b}
        if pre:
            expected_pos.add(max(pre))
        assert {k for k, yk in enumerate(y) if yk == 1} == expected_pos
        for tk, t in zip(t_d, rec.scan_times):
            assert (tk < 0) == (t > b)


def table_columns(table):
    """Every column of a patient, label or prediction table, for exact comparison:
    id lists as they are, arrays as dtype and bytes."""
    return [
        col if isinstance(col, list) else (col.dtype.str, col.tobytes())
        for col in vars(table).values()
    ]


def random_censored_sample(rng, max_n=50):
    n = int(rng.integers(1, max_n + 1))
    # draw from a small value grid so ties (event/event and event/censor)
    # actually occur
    times = rng.choice(np.linspace(0.0, 5.0, 11), size=n)
    event = rng.integers(0, 2, size=n)
    return times, event


def random_scores_labels(rng, max_n=200):
    n = int(rng.integers(2, max_n + 1))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    # mixture of continuous scores and a coarse grid to generate ties
    if rng.uniform() < 0.5:
        scores = rng.uniform(0.0, 1.0, size=n)
    else:
        scores = rng.choice(np.linspace(0.0, 1.0, 7), size=n)
    return scores, labels


# ---------------------------------------------------------------------------
# the BLAS kernel, which decides the last bits of every matmul


def blas_kernel():
    """The core name and config string of the kernel numpy's bundled
    OpenBLAS picked when it loaded, or "unknown" where numpy bundles none
    that names it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded, not a second one
            core, config = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        core.restype = config.restype = ctypes.c_char_p
        return f"{core().decode()} ({' '.join(config().decode().split())})"
    return "unknown"
