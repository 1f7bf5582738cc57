"""Walk through the three core functions on small, fully understood datasets.

The cumulant J(lam) measures how heavy the low-loss tail of a model's loss
distribution is; its Legendre transform I(a) is the exponential decay rate of
the probability that an empirical mean undershoots the true mean by a; and
the inverse I^{-1}(s) converts a rate budget back into a deviation level.
"""

import math

from ratefn import (
    LambdaGrid,
    cumulant_curve,
    estimate_cumulant,
    from_losses,
    inverse_rate,
    rate,
    rate_curve,
    summarize,
)

LN2 = math.log(2.0)

# A dataset with two loss levels: one sample nails its prediction (loss 0),
# the other assigns probability 1/2 to the truth (loss ln 2).
ds = from_losses([0.0, LN2], model_id="two-point")
s = summarize(ds)
print(f"dataset: losses {ds.losses.tolist()}")
print(f"mean {s.empirical_loss:.6f}, min {s.min_loss}, variance {s.variance:.6f}\n")

print("cumulant values (always >= 0, increasing, convex, J(0) = 0):")
for lam in (0.0, 0.5, 1.0, 2.0, 8.0):
    print(f"  J({lam:>4}) = {estimate_cumulant(ds, lam):.6f}")

curve = cumulant_curve(ds, LambdaGrid.log_spaced(1e-2, 1e2, 9))
print("\ntilt grid evaluation (lambda, J, J'):")
for lam, j, dj in zip(curve.grid.values, curve.j_values, curve.j_derivs):
    print(f"  {lam:10.4f}  {j:10.6f}  {dj:10.6f}")
print("J' climbs from 0 toward the gap mean - min =", f"{s.empirical_loss - s.min_loss:.6f}")

# The rate function: deviations are only possible up to the gap; beyond it
# the evaluation saturates and reports an infinite rate.
print("\nrate evaluations:")
for ev in rate_curve(ds, [0.1, 0.2, 0.3, 0.34]):
    print(f"  I({ev.a}) = {ev.value:.6f}  (optimal tilt {ev.lambda_star:.4f})")
boundary = rate(ds, s.empirical_loss - s.min_loss)
print(f"  at the gap itself: saturated = {boundary.saturated}, value = {boundary.value}")

# The inverse rate: budgets beyond b_max = log(count/min_count) saturate to
# the gap. Feeding the inverse value back through the rate recovers the
# budget: the two solvers are exact inverses on the interior.
print("\ninverse-rate evaluations:")
for budget in (0.01, 0.05, 0.2):
    ev = inverse_rate(ds, budget)
    back = rate(ds, ev.value)
    print(
        f"  I^-1({budget}) = {ev.value:.6f}, rate(I^-1) = {back.value:.6f}, "
        f"b_max = {ev.b_max:.6f}"
    )
sat = inverse_rate(ds, 1.0)
print(f"  I^-1(1.0): saturated = {sat.saturated}, value = gap = {sat.value:.6f}")

# A constant-loss model deviates with probability zero: infinite rate, zero
# inverse rate, at every level.
const = from_losses([0.7, 0.7, 0.7], model_id="constant")
print("\nconstant-loss model:")
print(f"  rate(0.1) saturated: {rate(const, 0.1).saturated}")
print(f"  inverse_rate(0.3) value: {inverse_rate(const, 0.3).value}")
