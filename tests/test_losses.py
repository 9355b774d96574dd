import math

import numpy as np
import pytest

from cfpt.losses import (
    LossConfig,
    cel,
    cel_grad_logit,
    crl,
    crl_grad,
    fused_joint_loss,
)
from cfpt.model import _batch_loss
from helpers import central_diff, crl_kink_distance, crl_oracle
from scipy.special import expit


# frozen scalar cases, checked by hand against the branch definitions
CRL_CASES = [
    (5.0, 3.0, 0, 1.0, 0.0),
    (2.0, 3.0, 0, 1.0, 4.0),
    (1.0, 2.0, 1, 1.0, 0.0),
    (3.0, 2.0, 1, 1.0, 4.0),
    (-1.0, 0.0, 1, 1.0, 0.0),
    (1.0, 0.5, 1, 1.0, 2.25),
]


@pytest.mark.parametrize("t_pred,t_d,p,eps,expected", CRL_CASES)
def test_crl_known_values(t_pred, t_d, p, eps, expected):
    assert crl(t_pred, t_d, p, eps) == pytest.approx(expected, abs=1e-15)


def test_crl_boundary_case_belongs_to_clamped_branch():
    # at t_d == eps the clamped branch applies: loss 0 below the target
    assert crl(-5.0, 1.0, 1, 1.0) == 0.0
    # just above the boundary the pure quadratic applies and is positive
    assert crl(-5.0, 1.0 + 1e-9, 1, 1.0) > 0.0


def test_crl_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        t_pred = rng.uniform(-5, 10)
        t_d = rng.uniform(-5, 10)
        p = int(rng.integers(0, 2))
        eps = rng.uniform(1e-6, 3.0)
        assert crl(t_pred, t_d, p, eps) == pytest.approx(
            crl_oracle(t_pred, t_d, p, eps), abs=1e-12
        )


def test_crl_vectorized_matches_scalars():
    rng = np.random.default_rng(3)
    t_pred = rng.uniform(-5, 10, size=50)
    t_d = rng.uniform(-5, 10, size=50)
    p = rng.integers(0, 2, size=50)
    vals = crl(t_pred, t_d, p, 1.0)
    grads = crl_grad(t_pred, t_d, p, 1.0)
    for i in range(50):
        assert vals[i] == crl(t_pred[i], t_d[i], int(p[i]), 1.0)
        assert grads[i] == crl_grad(t_pred[i], t_d[i], int(p[i]), 1.0)


def test_crl_rejects_bad_inputs():
    with pytest.raises(ValueError):
        crl(1.0, 1.0, 0, 0.0)
    with pytest.raises(ValueError):
        crl(1.0, 1.0, 0, -1.0)
    with pytest.raises(ValueError):
        crl(float("nan"), 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        crl(1.0, float("inf"), 1, 1.0)
    with pytest.raises(ValueError):
        crl(1.0, 1.0, 2, 1.0)


@pytest.mark.parametrize(
    "t_pred,t_d,p,eps,expected",
    [(5.0, 3.0, 0, 1.0, 0.0), (2.0, 3.0, 0, 1.0, -4.0), (3.0, 2.0, 1, 1.0, 4.0)],
)
def test_crl_grad_known_values(t_pred, t_d, p, eps, expected):
    assert crl_grad(t_pred, t_d, p, eps) == pytest.approx(expected, abs=1e-15)


def test_crl_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 500:
        t_pred = rng.uniform(-5, 10)
        t_d = rng.uniform(-5, 10)
        p = int(rng.integers(0, 2))
        eps = rng.uniform(0.05, 3.0)
        if crl_kink_distance(t_pred, t_d, p, eps) < 1e-3:
            continue
        fd = central_diff(lambda x: crl(x, t_d, p, eps), t_pred)
        an = crl_grad(t_pred, t_d, p, eps)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked += 1


def test_crl_grad_continuous_across_kinks():
    rng = np.random.default_rng(6)
    for _ in range(500):
        t_d = rng.uniform(-5, 10)
        eps = rng.uniform(0.05, 3.0)
        for p, kink in ((0, t_d + eps), (1, t_d - eps)):
            if p == 1 and t_d > eps:
                continue
            left = crl_grad(kink - 1e-9, t_d, p, eps)
            right = crl_grad(kink + 1e-9, t_d, p, eps)
            assert abs(left - right) <= 1e-6
            assert abs(crl(kink - 1e-9, t_d, p, eps) - crl(kink + 1e-9, t_d, p, eps)) <= 1e-6


def test_crl_zero_sets():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        t_d = rng.uniform(-5, 10)
        eps = rng.uniform(0.05, 3.0)
        delta = rng.uniform(1e-9, 5.0)
        # censored branch: free above t_d + eps, positive below
        # (boundary points land within float rounding of the kink, hence the atol)
        assert crl(t_d + eps + delta, t_d, 0, eps) == 0.0
        assert crl(t_d + eps, t_d, 0, eps) == pytest.approx(0.0, abs=1e-24)
        assert crl(t_d + eps - delta, t_d, 0, eps) > 0.0
        if t_d > eps:
            # unique minimizer at the margin-shifted target
            assert crl(t_d - eps, t_d, 1, eps) == pytest.approx(0.0, abs=1e-24)
            assert crl(t_d - eps + delta, t_d, 1, eps) > 0.0
            assert crl(t_d - eps - delta, t_d, 1, eps) > 0.0
        else:
            assert crl(t_d - eps - delta, t_d, 1, eps) == 0.0
            assert crl(t_d - eps, t_d, 1, eps) == pytest.approx(0.0, abs=1e-24)
            assert crl(t_d - eps + delta, t_d, 1, eps) > 0.0


def test_crl_convex_and_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        t_d = rng.uniform(-5, 10)
        p = int(rng.integers(0, 2))
        eps = rng.uniform(0.05, 3.0)
        a, b = rng.uniform(-10, 15, size=2)
        fa, fb = crl(a, t_d, p, eps), crl(b, t_d, p, eps)
        fm = crl((a + b) / 2, t_d, p, eps)
        assert fa >= 0.0 and fb >= 0.0
        assert fm <= (fa + fb) / 2 + 1e-12


def test_cel_known_values():
    assert cel(0.5, 1) == pytest.approx(-math.log(0.5), abs=1e-15)
    assert cel(1.0, 1) == pytest.approx(-math.log(1 - 1e-7), abs=1e-18)
    assert cel(1.0, 1) < 1e-6
    assert cel(0.3, 0) == pytest.approx(cel(0.7, 1), abs=1e-15)


def test_cel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cel(0.5, 2)
    with pytest.raises(ValueError):
        cel(1.5, 1)
    with pytest.raises(ValueError):
        cel(-0.1, 0)


def test_cel_grad_logit_known_values():
    assert cel_grad_logit(0.0, 1) == pytest.approx(-0.5, abs=1e-15)
    assert cel_grad_logit(0.0, 0) == pytest.approx(0.5, abs=1e-15)
    assert cel_grad_logit(50.0, 1) == pytest.approx(0.0, abs=1e-12)


def test_cel_grad_logit_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(500):
        logit = rng.uniform(-10, 10)
        y = int(rng.integers(0, 2))
        fd = central_diff(lambda z: cel(expit(z), y), logit)
        assert cel_grad_logit(logit, y) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def _joint_loss(y_hat, t_pred, t_d, p, y, cfg):
    """Per-scan joint loss of one scan, as a float."""
    loss = fused_joint_loss(
        np.array([y_hat]), np.array([t_pred]), np.array([t_d]), np.array([p]), np.array([y]), cfg
    )
    return float(loss[0])


def test_joint_loss_combination():
    cfg = LossConfig(lam=0.5, epsilon=1.0)
    # crl part 4, cel part -log(0.5)
    assert _joint_loss(0.5, 3.0, 2.0, 1, 1, cfg) == pytest.approx(
        0.5 * 4.0 + (-math.log(0.5)), abs=1e-12
    )


def test_joint_loss_lambda_zero_reduces_to_cel():
    cfg = LossConfig(lam=0.0)
    rng = np.random.default_rng(13)
    for _ in range(100):
        y_hat, t_pred = float(rng.uniform(0.01, 0.99)), float(rng.uniform(-5, 10))
        t_d, p = float(rng.uniform(-5, 10)), int(rng.integers(0, 2))
        assert _joint_loss(y_hat, t_pred, t_d, p, 1, cfg) == cel(y_hat, 1)


def test_joint_loss_zero_case():
    cfg = LossConfig(lam=0.5, epsilon=1.0)
    assert _joint_loss(1.0, 5.0, 3.0, 0, 1, cfg) == pytest.approx(0.0, abs=1e-6)


def test_batch_loss_is_mean_and_permutation_invariant():
    # the training loop's batch loss: the mean of the per-scan joint losses
    cfg = LossConfig()
    y_hat = np.array([0.3 + 0.1 * i for i in range(4)])
    t_pred = np.arange(4.0)
    t_d = np.array([float(i % 3) for i in range(4)])
    p = y = np.array([i % 2 for i in range(4)])
    single = [_joint_loss(*cols, cfg) for cols in zip(y_hat, t_pred, t_d, p, y)]
    batch = _batch_loss(y_hat, t_pred, t_d, p, y, cfg)
    assert batch == pytest.approx(np.mean(single), abs=1e-12)
    one = _batch_loss(y_hat[:1], t_pred[:1], t_d[:1], p[:1], y[:1], cfg)
    assert one == pytest.approx(single[0], abs=1e-15)
    perm = [2, 0, 3, 1]
    permuted = _batch_loss(y_hat[perm], t_pred[perm], t_d[perm], p[perm], y[perm], cfg)
    assert permuted == pytest.approx(batch, abs=1e-12)


def test_batch_loss_two_elements_mean():
    cfg = LossConfig(lam=1.0, epsilon=1.0)
    y_hat, t_pred = np.array([0.5, 0.5]), np.array([1.0 + math.sqrt(2.0), 3.0])
    t_d, p, y = np.array([2.0, 2.0]), np.array([1, 1]), np.array([1, 1])
    la = _joint_loss(y_hat[0], t_pred[0], t_d[0], p[0], y[0], cfg)
    lb = _joint_loss(y_hat[1], t_pred[1], t_d[1], p[1], y[1], cfg)
    batch = _batch_loss(y_hat, t_pred, t_d, p, y, cfg)
    assert batch == pytest.approx((la + lb) / 2, abs=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError):
        LossConfig(epsilon=float("nan"))
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon"):
            LossConfig(epsilon=value)
        with pytest.raises(ValueError, match="lam"):
            LossConfig(lam=value)
