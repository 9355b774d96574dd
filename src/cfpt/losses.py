"""Censored regression loss, binary cross entropy, and their joint objective.

The censored regression loss (``crl``) scores a predicted cancer-free
progression time ``t_pred`` against the defined value ``t_d`` with three
clinically motivated branches, selected by the patient-level cancer
indicator ``p`` and a margin ``epsilon > 0``:

* ``p = 0`` (never diagnosed, right-censored): ``t_d`` is only a lower
  bound, so over-predicting is free.  Loss ``min(0, t_pred - t_d - eps)^2``
  -- zero whenever ``t_pred >= t_d + eps``, quadratic below.
* ``p = 1`` and ``t_d > eps`` (scan well before biopsy): plain quadratic
  pull toward the margin-shifted target, ``(t_pred - t_d + eps)^2``.  The
  true event precedes the biopsy, so the unique minimizer sits at
  ``t_d - eps`` rather than ``t_d``; predictions for these scans are
  systematically shifted down by ``eps`` by design.
* ``p = 1`` and ``t_d <= eps`` (scan at or after the event, boundary
  inclusive): under-predicting is free, ``max(0, t_pred - t_d + eps)^2``.

All three branches are convex and continuously differentiable in
``t_pred``; gradients below are exact closed forms.  Every function here
accepts scalars or numpy arrays (broadcast together) and computes in
double precision.
"""

import math
from dataclasses import dataclass

import numpy as np

# cross entropy clamps predicted probabilities into [PROB_CLAMP, 1 - PROB_CLAMP]
# so its log terms stay finite
PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the joint objective.

    ``lam`` weights the regression term against cross entropy and
    ``epsilon`` is the margin of the censored regression loss.
    """

    lam: float = 0.5
    epsilon: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")


# checks call array methods (a.all(), not np.all(a)), which cost less per
# call: the public functions are often called on scalars


def _as_float_array(x, name):
    a = np.asarray(x, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def _check_binary(x, name):
    a = np.asarray(x)
    if not ((a == 0) | (a == 1)).all():
        raise ValueError(f"{name} must be 0 or 1")
    return a


def _scalar_or_array(value):
    return float(value) if value.ndim == 0 else value


def _check_crl_inputs(t_pred, t_d, p, epsilon):
    if not (np.asarray(epsilon) > 0).all():
        raise ValueError("epsilon must be positive")
    return (
        _as_float_array(t_pred, "t_pred"),
        _as_float_array(t_d, "t_d"),
        _check_binary(p, "p"),
        _as_float_array(epsilon, "epsilon"),
    )


def crl_residual(t_pred, t_d, p, epsilon):
    """Signed residual ``r`` of the censored regression loss, chosen per
    branch, so that ``crl = r**2`` and ``crl_grad = 2*r``.

    Unchecked kernel: the caller passes float arrays, a binary ``p`` and a
    positive ``epsilon``. :func:`crl` and :func:`crl_grad` check their
    inputs and then call it; the training loop, whose inputs were checked
    once when its dataset was built, calls it directly.
    """
    d = t_pred - t_d
    shifted = d + epsilon
    return np.where(
        p == 0,
        np.minimum(0.0, d - epsilon),
        np.where(t_d > epsilon, shifted, np.maximum(0.0, shifted)),
    )


def crl(t_pred, t_d, p, epsilon):
    """Censored regression loss; see the module docstring for the branches.

    Scalar inputs give a float, array inputs an array of the broadcast
    shape. The branch boundary ``t_d == epsilon`` belongs to the clamped
    (third) case.
    """
    r = crl_residual(*_check_crl_inputs(t_pred, t_d, p, epsilon))
    return _scalar_or_array(np.square(r))


def crl_grad(t_pred, t_d, p, epsilon):
    """Derivative of :func:`crl` with respect to ``t_pred``.

    The clamped branches are continuously differentiable at their kinks
    (the quadratic and the flat region meet with slope zero), so the
    one-sided value returned there agrees from both sides.
    """
    r = crl_residual(*_check_crl_inputs(t_pred, t_d, p, epsilon))
    return _scalar_or_array(2.0 * r)


def cel_kernel(y_hat, y):
    """Unchecked cross entropy behind :func:`cel`: ``y_hat`` in [0, 1] and
    binary ``y`` are the caller's job."""
    q = np.minimum(np.maximum(y_hat, PROB_CLAMP), 1.0 - PROB_CLAMP)  # np.clip, less overhead
    return -(y * np.log(q) + (1 - y) * np.log1p(-q))


def cel(y_hat, y):
    """Two-class cross entropy with the probability clamped into
    ``[PROB_CLAMP, 1 - PROB_CLAMP]`` before the logs."""
    yh = _as_float_array(y_hat, "y_hat")
    if (yh < 0).any() or (yh > 1).any():
        raise ValueError("y_hat must lie in [0, 1]")
    yy = _check_binary(y, "y")
    return _scalar_or_array(cel_kernel(yh, yy))


def fused_joint_loss(y_hat, t_pred, t_d, p, y, cfg: LossConfig):
    """Per-scan joint loss ``lam * crl + cel``.

    Unchecked, like the kernels it calls; equal bit for bit to the checked
    functions on valid input.
    """
    r = crl_residual(t_pred, t_d, p, cfg.epsilon)
    return cfg.lam * np.square(r) + cel_kernel(y_hat, y)


def joint_loss_grad(t_pred, t_d, p, cfg: LossConfig):
    """``lam * crl_grad``, the derivative of the per-scan joint loss with
    respect to ``t_pred``, for the training step; unchecked, and equal bit
    for bit to the checked functions on valid input."""
    return cfg.lam * (2.0 * crl_residual(t_pred, t_d, p, cfg.epsilon))


def cel_grad_logit(logit, y):
    """Derivative of ``cel(sigmoid(logit), y)`` with respect to the logit.

    The composition collapses to ``sigmoid(logit) - y`` exactly; the
    probability clamp is a numerical guard on the loss value only and is
    ignored here (it only matters at |logit| beyond ~16 where the gradient
    is vanishing anyway).
    """
    from scipy.special import expit  # here, so a process that does not train loads no scipy
    lg = _as_float_array(logit, "logit")
    yy = _check_binary(y, "y")
    return _scalar_or_array(expit(lg) - yy)
