"""A tour of the censored regression loss and the joint objective.

The regression head is trained against an asymmetric piecewise-quadratic
loss with three branches, chosen per scan by the patient flag p and the
defined progression time t_d (margin epsilon, default 1):

  p = 0 (non-cancer, right-censored):  penalize only predictions below
        t_d + eps; anything later than the censoring horizon is free.
  p = 1, t_d > eps (early scan of a cancer patient): plain quadratic
        pulled toward t_d - eps.
  p = 1, t_d <= eps (scan at/after diagnosis): penalize only predictions
        above t_d - eps; pushing further negative is free.
"""

import numpy as np

from cfpt import LossConfig, cel, crl, crl_grad

eps = 1.0

# --- the three branches, tabulated ------------------------------------------

print("t_pred   censored t_d=3   cancer t_d=3   cancer t_d=0.5")
for t_pred in np.arange(-1.0, 6.5, 0.5):
    print(f"{t_pred:6.1f}   {crl(t_pred, 3.0, 0, eps):14.2f}   "
          f"{crl(t_pred, 3.0, 1, eps):12.2f}   {crl(t_pred, 0.5, 1, eps):14.2f}")

# zero regions: censored scans are free above t_d + eps, diagnosed scans
# below t_d - eps
assert crl(4.0, 3.0, 0, eps) == 0.0 and crl(9.9, 3.0, 0, eps) == 0.0
assert crl(-0.5, 0.5, 1, eps) == 0.0 and crl(-7.0, 0.5, 1, eps) == 0.0

# --- gradients are exact and continuous across the clamp points --------------

for t_pred, t_d, p in [(2.0, 3.0, 0), (5.0, 3.0, 1), (1.2, 0.5, 1)]:
    g = crl_grad(t_pred, t_d, p, eps)
    h = 1e-6
    fd = (crl(t_pred + h, t_d, p, eps) - crl(t_pred - h, t_d, p, eps)) / (2 * h)
    print(f"grad at ({t_pred}, t_d={t_d}, p={p}): analytic {g:+.4f}  fd {fd:+.4f}")

kink = 3.0 + eps  # censored-branch clamp point
print(f"grad just left/right of the clamp: "
      f"{crl_grad(kink - 1e-9, 3.0, 0, eps):+.2e} / {crl_grad(kink + 1e-9, 3.0, 0, eps):+.2e}")

# --- the joint objective ------------------------------------------------------
# L = lambda * crl + cel, averaged over the batch. lambda = 0 recovers a
# pure classifier; the regression head then gets no training signal.

cfg = LossConfig(lam=0.5, epsilon=1.0)
print(f"joint = lambda*crl + cel = {cfg.lam}*{crl(1.5, 2.0, 1, eps):.4f} + "
      f"{cel(0.3, 0):.4f} = {cfg.lam * crl(1.5, 2.0, 1, eps) + cel(0.3, 0):.4f}")

# every loss function takes arrays too: one entry per scan of a batch
y_hat, t_pred = np.array([0.3, 0.1]), np.array([1.5, 5.0])
t_d, p, y = np.array([2.0, 4.0]), np.array([1, 0]), np.array([0, 0])
per_scan = cfg.lam * crl(t_pred, t_d, p, cfg.epsilon) + cel(y_hat, y)
print(f"batch mean {per_scan.mean():.4f} = mean of {per_scan.round(4).tolist()}")
