"""Generalization bounds, smoothness comparisons, augmentation checks, and
quadratic approximations built on the cumulant and rate machinery.

The flagship result is the high-probability bound
``L <= L_train + inverse_rate((p/n) * log(2/delta))`` evaluated on a held-out
loss dataset. Because the inverse rate never exceeds the mean held-out loss,
the bound always lands in ``[mean, 2*mean]`` when the dataset's own mean
stands in for the training loss.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cumulant import CumulantCurve, LambdaGrid, cumulant_curve, estimate_cumulant, held_curve, tilted_moments
from .errors import (
    DimensionMismatch,
    InvalidA,
    InvalidLambda,
    InvalidS,
    MissingGradients,
    MissingGradNorms,
    ValidationError,
    ZeroVariance,
    check_real,
)
from .loss_data import LossDataset, ModelMeta, _exact_mean, group_sizes, reduce_augmented, summarize
from .rate import DEFAULT_TOL, TILT_CAP, InverseRateEvaluation, RateSolver, _solver, inverse_rate, rate

DOMINANCE_SLACK = 1e-12
# Rounding allowed for a value the kernel or a tangent forms, relative to the
# magnitudes that form it: 2**-40 is 8192 ulps (see _rate_bounds).
_ROUNDING = 2.0 ** -40


@dataclass(frozen=True)
class BoundReport:
    """High-probability upper bound on the population loss.

    ``s`` is the budget ``(p/n)*log(2/delta)`` used for the inverse rate;
    ``s_union`` is the sharper union-bound budget ``(p*log(2)+log(1/delta))/n``
    reported alongside for transparency. ``upper_bound`` adds the inverse
    rate to the training loss (the dataset's own mean when none is supplied,
    flagged by ``used_dataset_mean``).
    """

    meta: ModelMeta
    empirical_loss: float
    s: float
    s_union: float
    inverse_rate: InverseRateEvaluation
    train_loss: float
    used_dataset_mean: bool
    upper_bound: float


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Outcome of comparing two models' deviation behavior.

    ``cumulant_dominance`` holds when A's cumulant sits below B's on the
    tested tilts of the grid. It bears on A's rate dominating B's only on the
    tested tilts/deviations, not at every deviation: the cumulants may cross
    off the grid (the ROADMAP has a counterexample, where A's cumulant
    passes B's at a tilt of 1e6). ``rate_dominance_on`` is the largest tested
    deviation up to which A's rate dominates pointwise (0 when even the first
    point fails).
    """

    beta: float
    cumulant_dominance: bool
    rate_dominance_on: float
    verdict: str
    a_values: tuple[float, ...]


@dataclass(frozen=True)
class ApproxReport:
    """An exact quantity next to its quadratic approximation."""

    quantity: str
    x: float
    exact: float
    approx: float
    abs_error: float


@dataclass(frozen=True)
class CovarianceTaylor:
    """Quadratic-form cumulant approximation from parameter gradients."""

    report: ApproxReport
    quadratic_form: float
    inverse_rate_approx: float | None


@dataclass(frozen=True)
class GradNormBound:
    """Cumulant and inverse-rate bounds from mean squared input-gradient norms.

    ``j_coefficient`` scales the quadratic tilt bound ``j_coefficient * lam**2``;
    the constant ``m_const`` is a caller assumption, so neither bound is
    asserted against the data, only reported.
    """

    m_const: float
    s: float
    mean_grad_norm_sq: float
    j_coefficient: float
    bound_iinv: float
    lam: float | None = None
    bound_j: float | None = None


@dataclass(frozen=True)
class DAReport:
    """Per-tilt comparison of a grouped dataset against its reduced form.

    ``gaps[i] = j_flat[i] - j_reduced[i]`` should never fall below minus
    round-off: averaging within groups can only lower the cumulant.
    """

    lambdas: tuple[float, ...]
    j_flat: tuple[float, ...]
    j_reduced: tuple[float, ...]
    gaps: tuple[float, ...]
    mean_flat: float
    mean_reduced: float
    equal_group_sizes: bool
    mean_preserved: bool


@dataclass(frozen=True)
class OrderingClaim:
    """Auditable record of an interpolator-ordering argument.

    The population conclusion is never asserted; the record carries the
    premises (training loss within epsilon, rate dominance up to beta) and
    the held-out means so the claim can be checked against data.
    """

    epsilon: float
    train_loss_a: float
    premise_ok: bool
    s: float
    beta: float
    beta_smooth_ok: bool
    claim: str
    holdout_mean_a: float
    holdout_mean_b: float
    holdout_consistent: bool


def _budget(meta: ModelMeta) -> float:
    """The inverse-rate budget ``(p/n)*log(2/delta)`` of a bound on a model class."""
    return (meta.param_count / meta.train_size) * math.log(2.0 / meta.delta)


def generalization_bound(
    ds: LossDataset,
    meta: ModelMeta,
    train_loss: float | None = None,
) -> BoundReport:
    """Bound the population loss from a held-out loss dataset.

    ``ds`` should hold per-sample losses on data not used for training. When
    ``train_loss`` is omitted the dataset's own mean is used and flagged.
    """
    used_dataset_mean = train_loss is None
    if not used_dataset_mean:
        train_loss = check_real(train_loss, ValidationError, "train_loss", "non-negative")
    s = _budget(meta)
    s_union = (meta.param_count * math.log(2.0) + math.log(1.0 / meta.delta)) / meta.train_size
    inv = inverse_rate(ds, s)
    summary = summarize(ds)
    base = summary.empirical_loss if used_dataset_mean else train_loss
    return BoundReport(
        meta=meta,
        empirical_loss=summary.empirical_loss,
        s=s,
        s_union=s_union,
        inverse_rate=inv,
        train_loss=base,
        used_dataset_mean=used_dataset_mean,
        upper_bound=base + inv.value,
    )


def _rate_bounds(curve: CumulantCurve, a: float) -> tuple[float, float, float]:
    """``(lower, upper, margin)`` for the rate at a deviation ``0 < a < mean - min``,
    read from a cumulant curve without a pass: ``lower <= I(a) <= upper``,
    and ``RateSolver.rate(a)`` gives a value within ``margin`` of them.

    Convex duality gives both bounds. Every tilt bounds the rate from
    below, ``I(a) >= lam*a - J(lam)``, tilt 0 included. The tangents of J
    at two tilts whose J' bracket ``a`` lie below J, so ``lam*a - J(lam)``
    is at most ``lam*a`` less the larger tangent, which is largest where
    the tangents cross. Taken there as ``lam*a`` less the smaller tangent,
    it bounds the rate from above wherever the rounded crossing lands.
    Tilt 0, where ``J = J' = 0`` exactly, is a tangent point too, so
    deviations left of the grid are bracketed. With no bracket, or one past
    the solver's ``TILT_CAP``, the upper bound and the margin are ``inf``:
    nothing then bounds where the solver's tilt lies, or whether it finds one.

    The margin, with ``tol`` the solver's ``DEFAULT_TOL``. The bracket's J'
    lie at least ``tol*(mean - min)`` from ``a``, with room for their
    rounding, so the solver's tilt, whose J' lies within that of ``a``, is
    in the bracket with the optimum. As ``lam*a - J(lam)`` is concave with
    slope ``a - J'``, the solver's value is at most
    ``tol*(mean - min)*lam_hi`` below the rate, ``lam_hi`` being the
    bracket's top tilt. Every figure besides, the curve's J and J', the
    solver's value and these bounds, sums terms no larger than
    ``lam_hi*mean`` (``lam*a``; J, at most ``lam*(mean - min)``; a tilted
    mean of the losses, at most ``mean``) and the log of a sum of ``count``
    exps, each rounded within a few ulps of those magnitudes times
    ``log2(count)`` for a pairwise sum: far inside ``_ROUNDING``, 8192
    ulps. So the margin, ``tol*(mean - min)*lam_hi +
    _ROUNDING*(1 + log(count) + lam_hi*mean)``, bounds what rounding and
    ``tol`` can move; it is not fitted to data.
    """
    s = curve.summary
    mean, gap = s.empirical_loss, s.empirical_loss - s.min_loss
    lams, js, slopes = (0.0, *curve.grid.values), (0.0, *curve.j_values), (0.0, *curve.j_derivs)
    tol = DEFAULT_TOL
    reach = tol * gap + 2.0 * _ROUNDING * mean
    lo = bisect.bisect_right(slopes, a - reach) - 1
    hi = bisect.bisect_left(slopes, a + reach)
    if (lo < 0 or hi == len(lams) or not (slopes[lo] <= a - reach and slopes[hi] >= a + reach)
            or lams[hi] * gap > TILT_CAP):
        return max(0.0, *(lam * a - j for lam, j in zip(lams, js))), math.inf, math.inf
    lower = max(0.0, *(lams[k] * a - js[k] for k in range(lo, hi + 1)))
    step = lams[hi] - lams[lo]
    # The tangents cross at lams[lo] + t*step, with t in [0, 1] for a convex J.
    t = (slopes[hi] - (js[hi] - js[lo]) / step) / (slopes[hi] - slopes[lo])
    lam = lams[lo] + min(max(t, 0.0), 1.0) * step
    upper = lam * a - min(js[lo] + slopes[lo] * (lam - lams[lo]), js[hi] + slopes[hi] * (lam - lams[hi]))
    margin = tol * gap * lams[hi] + _ROUNDING * (1.0 + math.log(s.count) + lams[hi] * mean)
    return lower, upper, margin


def _rate_dominates(solver_a: RateSolver, solver_b: RateSolver, a: float,
                    curve_a: CumulantCurve | None = None, curve_b: CumulantCurve | None = None) -> bool:
    """Whether A's solved rate at ``a`` is at least B's less ``DOMINANCE_SLACK``.

    A saturated rate is infinite, so it dominates anything. Given both
    datasets' curves, the answer comes from :func:`_rate_bounds` when the
    bounds separate by more than their margins, and the slack for a "no";
    otherwise, or without curves, both rates are solved.
    """
    if solver_a.saturates(a):
        return True
    if solver_b.saturates(a):
        return False
    if curve_a is not None and curve_b is not None:
        lower_a, upper_a, margin_a = _rate_bounds(curve_a, a)
        lower_b, upper_b, margin_b = _rate_bounds(curve_b, a)
        if lower_a - upper_b > margin_a + margin_b:
            return True
        if lower_b - upper_a > margin_a + margin_b + DOMINANCE_SLACK:
            return False
    return solver_a.rate(a).value >= solver_b.rate(a).value - DOMINANCE_SLACK


def _default_a_values(ds_a: LossDataset, ds_b: LossDataset) -> tuple[float, ...]:
    sa, sb = summarize(ds_a), summarize(ds_b)
    gaps = [g for g in (sa.empirical_loss - sa.min_loss, sb.empirical_loss - sb.min_loss) if g > 0]
    if not gaps:
        return (1e-3,)
    top = 0.95 * min(gaps)
    return tuple(_product(top, (k,), 12.0) for k in range(1, 13))


def compare_smoothness(
    ds_a: LossDataset,
    ds_b: LossDataset,
    grid: LambdaGrid | None = None,
    a_values: Sequence[float] | None = None,
    beta: float | None = None,
) -> SmoothnessVerdict:
    """Decide whether model A deviates less than model B.

    A is "smoother" when its cumulant lies below B's on the tested tilts of
    the grid (pointwise, with round-off slack). Read as rate dominance, this
    holds only on the tested tilts/deviations: nothing checks the tilts
    between or beyond the grid points, and the ROADMAP gives a pair whose
    cumulants cross past the default grid, where the verdict is wrong.
    Failing that, A is "beta_smoother" when its rate
    dominates B's on all tested deviations up to ``beta`` (``max(a_values)``
    when ``beta`` is not given). Otherwise the pair is incomparable at the
    tested resolution.

    Each deviation is first decided from the two curves this call computes:
    their tangents bound each rate from both sides (:func:`_rate_bounds`),
    and where the bounds separate by more than their margins, which cover
    the curves' rounding and the solver's ``tol``, they prove what the two
    solved rates would give. Only where they overlap, or where either
    curve does not bracket the deviation, are both rates solved. So every
    reported value is the one solving every rate gives.
    """
    if grid is None:
        grid = LambdaGrid.default()
    if a_values is None:
        a_values = _default_a_values(ds_a, ds_b)
    a_values = tuple(check_real(a, InvalidA, "deviation a") for a in a_values)
    if not a_values or any(b <= a for a, b in zip(a_values, a_values[1:])):
        raise InvalidA("a_values must be non-empty, positive and strictly increasing")

    curve_a = cumulant_curve(ds_a, grid)
    curve_b = cumulant_curve(ds_b, grid)
    cumulant_dominance = all(
        ja <= jb + DOMINANCE_SLACK for ja, jb in zip(curve_a.j_values, curve_b.j_values)
    )

    beta_eff = check_real(beta, InvalidA, "beta") if beta is not None else a_values[-1]
    rate_dominance_on = 0.0
    solver_a, solver_b = _solver(ds_a, hold=False), _solver(ds_b, hold=False)
    for a in a_values:
        if not _rate_dominates(solver_a, solver_b, a, curve_a, curve_b):
            break
        rate_dominance_on = a

    if cumulant_dominance:
        verdict = "smoother"
        beta_out = math.inf
    else:
        tested_up_to_beta = [a for a in a_values if a <= beta_eff]
        beta_ok = bool(tested_up_to_beta) and all(a <= rate_dominance_on for a in tested_up_to_beta)
        verdict = "beta_smoother" if beta_ok else "incomparable"
        beta_out = beta_eff
    return SmoothnessVerdict(
        beta=beta_out,
        cumulant_dominance=cumulant_dominance,
        rate_dominance_on=rate_dominance_on,
        verdict=verdict,
        a_values=a_values,
    )


def interpolator_ordering(
    train_loss_a: float,
    ds_a: LossDataset,
    ds_b: LossDataset,
    meta: ModelMeta,
    epsilon: float | None = None,
    a_values: Sequence[float] | None = None,
) -> OrderingClaim:
    """Check the premises under which interpolator A's population loss is
    bounded by B's plus epsilon, and report the held-out evidence.

    ``beta`` is A's inverse rate at the bound budget; the smoothness premise
    asks A's rate to dominate B's on deviations up to ``beta``, and
    ``beta_smooth_ok`` checks it on the tested deviations ``a_values`` only,
    not between them (see the ROADMAP). A violated training-loss premise is
    reported, not raised.

    When both datasets hold a cumulant curve (:func:`cumulant.held_curve`,
    on any grid), each deviation is decided from the curves' tangent bounds
    where they separate, as in :func:`compare_smoothness`, and solved
    elsewhere; without both, every deviation is solved. The call computes
    no curve of its own: on two fresh 2e5-loss sets, two grid passes cost
    more than the solves they would save. ``beta`` is always solved.
    """
    eps = meta.epsilon if epsilon is None else check_real(epsilon, ValidationError, "epsilon", "non-negative")
    train_loss_a = check_real(train_loss_a, ValidationError, "train_loss_a", "non-negative")
    premise_ok = train_loss_a <= eps
    s = _budget(meta)
    solver_a = _solver(ds_a, hold=False)
    beta = solver_a.inverse_rate(s).value
    if a_values is None:
        a_values = tuple(_product(beta, (k,), 8.0) for k in range(1, 9)) if beta > 0 else (1e-6,)
    a_values = [check_real(a, InvalidA, "deviation a", "non-negative") for a in a_values]
    if not a_values:
        raise InvalidA("a_values must be non-empty")
    solver_b = _solver(ds_b, hold=False)
    curves = held_curve(ds_a), held_curve(ds_b)
    beta_smooth_ok = all(_rate_dominates(solver_a, solver_b, a, *curves) for a in a_values if a > 0)
    mean_a = summarize(ds_a).empirical_loss
    mean_b = summarize(ds_b).empirical_loss
    return OrderingClaim(
        epsilon=eps,
        train_loss_a=train_loss_a,
        premise_ok=premise_ok,
        s=s,
        beta=beta,
        beta_smooth_ok=beta_smooth_ok,
        claim=f"population loss of {ds_a.model_id} <= population loss of {ds_b.model_id} + {eps:g}",
        holdout_mean_a=mean_a,
        holdout_mean_b=mean_b,
        holdout_consistent=mean_a <= mean_b + eps,
    )


def da_inequality_check(ds_grouped: LossDataset, grid: LambdaGrid | None = None) -> DAReport:
    """Verify that within-group averaging lowers the cumulant at every tilt.

    With equal group sizes the reduction preserves the grand mean exactly and
    the per-tilt gaps are non-negative up to round-off. Unequal sizes degrade
    the mean comparison to a mean of group means; ``reduce_augmented`` warns
    and ``equal_group_sizes`` records it.
    """
    if grid is None:
        grid = LambdaGrid.default()
    reduced = reduce_augmented(ds_grouped)  # raises MissingGroupId when ungrouped
    sizes = group_sizes(ds_grouped)
    flat_curve = cumulant_curve(ds_grouped, grid)
    reduced_curve = cumulant_curve(reduced, grid)
    gaps = [jf - jr for jf, jr in zip(flat_curve.j_values, reduced_curve.j_values)]
    mean_flat = flat_curve.summary.empirical_loss
    mean_reduced = reduced_curve.summary.empirical_loss
    # Where both cumulants pass the float64 range, inf - inf is NaN: the gap is
    # taken from their parts, J = lam*(mean - min) + log(mean(exp(-lam*(loss - min)))).
    past = [k for k, gap in enumerate(gaps) if gap != gap]
    if past:
        lams = [grid.values[k] for k in past]
        spread = (mean_flat - flat_curve.summary.min_loss) - (mean_reduced - reduced_curve.summary.min_loss)
        for k, lam, log_flat, log_reduced in zip(past, lams, _log_means(ds_grouped, lams), _log_means(reduced, lams)):
            gaps[k] = lam * spread + (log_flat - log_reduced)
    return DAReport(
        lambdas=grid.values,
        j_flat=flat_curve.j_values,
        j_reduced=reduced_curve.j_values,
        gaps=tuple(gaps),
        mean_flat=mean_flat,
        mean_reduced=mean_reduced,
        equal_group_sizes=bool(sizes.min() == sizes.max()),
        mean_preserved=mean_reduced == mean_flat,
    )


def _log_means(ds: LossDataset, lams: Sequence[float]) -> list[float]:
    """``log(mean(exp(-lam*(loss - min))))`` at each tilt: the cumulant less ``lam*(mean - min)``."""
    lo, x = summarize(ds).min_loss, ds.losses
    return [log_total - math.log(x.size) for log_total, _ in tilted_moments(x, lams, lo, float(x.max()) - lo)]


def _product(coefficient: float, factors: Sequence[float], divisor: float = 1.0, root: bool = False) -> float:
    """``coefficient * f1 * f2 * ... / divisor``, or its square root, for a
    positive coefficient and divisor and non-negative factors, formed as the
    significands' product with its power of two applied once (halved outside
    the root), so it is infinite only past the float64 range. Where every
    partial product of the plain left-to-right form and its quotient are
    normal, scaling by a power of two commutes with each rounding, so this
    gives that form's bits. An infinite factor gives ``inf``, a zero factor
    or an infinite divisor 0."""
    # math.frexp keeps an infinity or a zero as its significand, which carries it through.
    parts = [math.frexp(v) for v in (coefficient, *factors)]
    fraction, exponent = math.frexp(divisor)
    significand = math.prod(f for f, _ in parts) / fraction
    power = sum(e for _, e in parts) - exponent
    if root:
        significand, power = math.sqrt(math.ldexp(significand, power % 2)), power // 2
    try:
        return math.ldexp(significand, power)
    except OverflowError:
        return math.inf


def _abs_error(exact: float, approx: float) -> float:
    """``|exact - approx|``, or infinity whenever ``exact`` is infinite, even
    where ``approx`` is infinite too and the difference would be NaN."""
    return math.inf if math.isinf(exact) else abs(exact - approx)


def variance_taylor(ds: LossDataset, lam: float) -> ApproxReport:
    """Compare the cumulant at ``lam`` against its small-tilt quadratic
    ``lam**2 * variance / 2``."""
    lam = check_real(lam, InvalidLambda, "tilt")
    summary = summarize(ds)
    exact = estimate_cumulant(ds, lam)
    approx = _product(0.5, (lam, lam, summary.variance))
    return ApproxReport("lambda", lam, exact, approx, _abs_error(exact, approx))


def variance_rate_approx(ds: LossDataset, mode: str, x: float) -> ApproxReport:
    """Quadratic approximations of the rate (``a**2 / (2*variance)``) or the
    inverse rate (``sqrt(2*s*variance)``) against the solver values.

    ``mode`` is ``"rate"`` or ``"inverse_rate"``. Rate mode needs strictly
    positive variance; a saturated exact rate shows up as an infinite error.
    """
    summary = summarize(ds)
    if mode == "rate":
        x = check_real(x, InvalidA, "deviation")
        if summary.variance == 0.0:
            raise ZeroVariance("rate approximation needs positive loss variance")
        approx = _product(0.5, (x, x), summary.variance)
        exact = rate(ds, x).value
        return ApproxReport("a", x, exact, approx, _abs_error(exact, approx))
    if mode == "inverse_rate":
        x = check_real(x, InvalidS, "budget")
        approx = _product(2.0, (x, summary.variance), root=True)
        exact = inverse_rate(ds, x).value
        return ApproxReport("s", x, exact, approx, _abs_error(exact, approx))
    raise InvalidA(f"mode must be 'rate' or 'inverse_rate', got {mode!r}")


def _centred(columns: np.ndarray) -> np.ndarray:
    """The columns less their means, centred a second time where that helps.

    The rounding of a column's mean stays in every centred value. Where the
    centred values still sum to more than the bound on their sum's own
    rounding, ``count * 2**-53`` times the sum of their magnitudes, that sum
    is this error, and subtracting its mean takes it out (the corrected
    two-pass algorithm of Chan, Golub and LeVeque, The American Statistician
    37, 1983). Elsewhere the sum is rounding noise, and the column is left.
    """
    centred = columns - columns.mean(axis=0)
    residual = centred.sum(axis=0)
    noise = len(columns) * 2.0 ** -53 * np.abs(centred).sum(axis=0)
    centred -= np.where(np.abs(residual) > noise, residual / len(columns), 0.0)
    return centred


def _scaled_quadratic_form(grads: np.ndarray, delta: np.ndarray) -> float:
    """``mean(((grads - mean) @ delta)**2)`` where a plain product or the
    gradients' column sum overflows.

    Each gradient column is scaled below one by its own power of two,
    centred and scaled again to bring its deviations below one; its
    contributions, with the displacement's exponent added, are aligned to the
    largest exponent among the columns that contribute. Such scaling changes
    no digit of a value it keeps in the normal range, so this gives the
    plain form's bits on operands scaled into the range and is infinite only
    when its value lies beyond it.
    """
    def exponent(values: np.ndarray, axis: int | None = None) -> np.ndarray:
        return np.frexp(np.abs(values).max(axis=axis))[1]

    g_exp = exponent(grads, 0)
    centred = _centred(np.ldexp(grads, -g_exp))
    c_exp = exponent(centred, 0)
    fraction, d_exp = np.frexp(delta)
    col_exp = g_exp + c_exp + d_exp
    live = centred.any(axis=0) & (fraction != 0)
    if not live.any():
        return 0.0
    top = int(col_exp[live].max())
    # A column that contributes nothing keeps a finite weight: its products are 0.
    projected = np.ldexp(centred, -c_exp) @ np.ldexp(fraction, np.minimum(col_exp - top, 0))
    p_exp = int(exponent(projected))
    projected = np.ldexp(projected, -p_exp)
    try:
        return math.ldexp(float(projected @ projected) / len(grads), 2 * (top + p_exp))
    except OverflowError:
        return math.inf


def covariance_taylor(
    ds: LossDataset,
    theta_minus_theta0: Sequence[float],
    lam: float,
    s: float | None = None,
) -> CovarianceTaylor:
    """Quadratic cumulant approximation from the empirical covariance of
    parameter gradients.

    With ``q`` the quadratic form of the displacement under the gradient
    covariance, the cumulant approximation is ``lam**2 * q / 2`` and, when a
    budget ``s`` is supplied, the matching inverse-rate approximation is
    ``sqrt(2*s*q)``. Where a gradient column's sum or a product in ``q``
    overflows, ``q`` is recomputed on operands scaled by powers of two, so it
    is infinite only when its value lies beyond the float64 range.
    """
    lam = check_real(lam, InvalidLambda, "tilt")
    grads = ds.grad_theta
    if grads is None:
        raise MissingGradients("every record needs a grad_theta vector")
    delta = np.asarray([check_real(x, ValidationError, "displacement", "any") for x in theta_minus_theta0])
    if grads.shape[1] != delta.shape[0]:
        raise DimensionMismatch(
            f"gradient vectors have length {grads.shape[1]}, displacement has {delta.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        projected = _centred(grads) @ delta
        quad = float(projected @ projected) / len(ds)
    if not math.isfinite(quad):
        quad = _scaled_quadratic_form(grads, delta)
    approx = _product(0.5, (lam, lam, quad))
    exact = estimate_cumulant(ds, lam)
    report = ApproxReport("lambda", lam, exact, approx, _abs_error(exact, approx))
    inv_approx = None
    if s is not None:
        s = check_real(s, InvalidS, "budget")
        inv_approx = _product(2.0, (s, quad), root=True)
    return CovarianceTaylor(report=report, quadratic_form=quad, inverse_rate_approx=inv_approx)


def gradient_norm_bound(
    ds: LossDataset,
    m_const: float,
    s: float,
    lam: float | None = None,
) -> GradNormBound:
    """Report cumulant and inverse-rate bounds from squared input-gradient norms.

    The cumulant bound is ``m_const * mean_grad_norm_sq * lam**2`` and the
    inverse-rate bound is ``sqrt(s) * sqrt(m_const * mean_grad_norm_sq)``.
    The mean is the norms' ``math.fsum`` over their count, or past the
    float64 range their exact sum over it, rounded once. Both bounds are
    formed by :func:`_product`, so each is ``inf`` only where it lies past
    the float64 range, even where ``j_coefficient`` does. ``m_const`` comes
    from a smoothness assumption the caller owns, so the bounds are reported
    without being checked against the data.
    """
    m_const = check_real(m_const, ValidationError, "m_const")
    s = check_real(s, InvalidS, "budget")
    norms = ds.grad_norm_sq
    if norms is None or np.isnan(norms).any():
        raise MissingGradNorms("every record needs a grad_norm_sq value")
    g2 = _exact_mean(norms)
    bound_j = None
    if lam is not None:
        lam = check_real(lam, InvalidLambda, "tilt")
        bound_j = _product(m_const, (g2, lam, lam))
    return GradNormBound(
        m_const=m_const,
        s=s,
        mean_grad_norm_sq=g2,
        j_coefficient=m_const * g2,
        bound_iinv=math.sqrt(s) * _product(m_const, (g2,), root=True),
        lam=lam,
        bound_j=bound_j,
    )
