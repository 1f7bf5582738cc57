"""Quadratic shortcuts: variance, gradient covariance, and gradient norms.

Near zero tilt the cumulant is half the loss variance times lambda squared,
which turns the rate into a^2 / (2 * variance) and the inverse rate into
sqrt(2 * s * variance). A second-order expansion in parameter space replaces
the variance with a quadratic form of the parameter displacement under the
covariance of per-sample gradients, and mean squared input-gradient norms
give a one-line upper bound of the same shape. These are the quantities that
norm, variance, and input-gradient regularizers actually control.
"""

import math

import numpy as np

from ratefn import (
    LossDataset,
    covariance_taylor,
    from_losses,
    gradient_norm_bound,
    variance_rate_approx,
    variance_taylor,
)

LN2 = math.log(2.0)

# Small-tilt expansion: halving the tilt cuts the error by ~8 (cubic term).
ds = from_losses([0.0, LN2, LN2], model_id="skewed")
print("cumulant vs lambda^2 * variance / 2 (two loss levels, unequal mass):")
prev = None
for lam in (0.08, 0.04, 0.02, 0.01):
    rep = variance_taylor(ds, lam)
    ratio = "" if prev is None else f"  error ratio {prev / rep.abs_error:.2f}"
    print(f"  lam {lam:5.2f}: exact {rep.exact:.3e} approx {rep.approx:.3e}"
          f" |err| {rep.abs_error:.2e}{ratio}")
    prev = rep.abs_error

# The induced closed forms for the rate and inverse rate.
bern = from_losses([0.0, 1.0], model_id="bernoulli")
print("\nquadratic rate forms on the {0,1} dataset:")
for a in (0.02, 0.05, 0.1, 0.2):
    rep = variance_rate_approx(bern, "rate", a)
    print(f"  I({a:4}) exact {rep.exact:.6f} vs a^2/(2V) {rep.approx:.6f} "
          f"(rel err {rep.abs_error / rep.exact:.1%})")
for s in (0.005, 0.02, 0.08):
    rep = variance_rate_approx(bern, "inverse_rate", s)
    print(f"  I^-1({s:5}) exact {rep.exact:.6f} vs sqrt(2sV) {rep.approx:.6f} "
          f"(rel err {rep.abs_error / rep.exact:.1%})")
print("the quadratic forms are excellent deep inside the domain and drift")
print("as the deviation approaches the gap.")

# Parameter-space expansion from per-sample gradients at a reference point.
rng = np.random.default_rng(3)
grads = rng.normal(size=(200, 4)) * np.array([1.0, 0.5, 0.1, 0.05])
ds_grad = LossDataset(np.full(len(grads), 0.5), model_id="gradient-annotated", grad_theta=grads)
displacement = [0.3, -0.2, 1.0, 0.0]
result = covariance_taylor(ds_grad, displacement, lam=0.5, s=0.01)
print(f"\ngradient-covariance quadratic form q = {result.quadratic_form:.5f}")
print(f"cumulant approximation at lam 0.5: {result.report.approx:.5f}")
print(f"inverse-rate approximation at s 0.01: {result.inverse_rate_approx:.5f}")
print("shrinking the displacement shrinks q quadratically, the mechanism by")
print("which weight decay smooths a model.")

# Input-gradient norms: a distribution-free bound of the same square-root shape.
ds_norm = LossDataset(np.full(50, 0.5), model_id="norm-annotated", grad_norm_sq=rng.gamma(2.0, 2.0, 50))
bound = gradient_norm_bound(ds_norm, m_const=1.0, s=0.01, lam=0.5)
print(f"\nmean squared input-gradient norm: {bound.mean_grad_norm_sq:.4f}")
print(f"cumulant bound coefficient {bound.j_coefficient:.4f}, at lam 0.5: {bound.bound_j:.4f}")
print(f"inverse-rate bound at s 0.01: {bound.bound_iinv:.4f}")
