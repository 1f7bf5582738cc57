"""Generalization bounds, smoothness comparisons, augmentation checks, and
quadratic approximations built on the cumulant and rate machinery.

The flagship result is the high-probability bound
``L <= L_train + inverse_rate((p/n) * log(2/delta))`` evaluated on a held-out
loss dataset. Because the inverse rate never exceeds the mean held-out loss,
the bound always lands in ``[mean, 2*mean]`` when the dataset's own mean
stands in for the training loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cumulant import LambdaGrid, cumulant_curve, estimate_cumulant
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
from .loss_data import LossDataset, ModelMeta, group_sizes, reduce_augmented, summarize
from .rate import InverseRateEvaluation, RateSolver, inverse_rate, rate

DOMINANCE_SLACK = 1e-12


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


def _rate_dominates(solver_a: RateSolver, solver_b: RateSolver, a: float) -> bool:
    # A saturated rate is infinite, so it dominates anything.
    eval_a = solver_a.rate(a)
    if eval_a.saturated:
        return True
    eval_b = solver_b.rate(a)
    if eval_b.saturated:
        return False
    return eval_a.value >= eval_b.value - DOMINANCE_SLACK


def _default_a_values(ds_a: LossDataset, ds_b: LossDataset) -> tuple[float, ...]:
    sa, sb = summarize(ds_a), summarize(ds_b)
    gaps = [g for g in (sa.empirical_loss - sa.min_loss, sb.empirical_loss - sb.min_loss) if g > 0]
    if not gaps:
        return (1e-3,)
    top = 0.95 * min(gaps)
    return tuple(top * k / 12 for k in range(1, 13))


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
    """
    if grid is None:
        grid = LambdaGrid.default()
    if a_values is None:
        a_values = _default_a_values(ds_a, ds_b)
    a_values = tuple(check_real(a, InvalidA, "deviation a") for a in a_values)
    if any(b <= a for a, b in zip(a_values, a_values[1:])):
        raise InvalidA("a_values must be positive and strictly increasing")

    curve_a = cumulant_curve(ds_a, grid)
    curve_b = cumulant_curve(ds_b, grid)
    cumulant_dominance = all(
        ja <= jb + DOMINANCE_SLACK for ja, jb in zip(curve_a.j_values, curve_b.j_values)
    )

    beta_eff = check_real(beta, InvalidA, "beta") if beta is not None else a_values[-1]
    rate_dominance_on = 0.0
    solver_a, solver_b = RateSolver(ds_a), RateSolver(ds_b)
    for a in a_values:
        if not _rate_dominates(solver_a, solver_b, a):
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
    """
    eps = meta.epsilon if epsilon is None else check_real(epsilon, ValidationError, "epsilon", "non-negative")
    train_loss_a = check_real(train_loss_a, ValidationError, "train_loss_a", "non-negative")
    premise_ok = train_loss_a <= eps
    s = _budget(meta)
    solver_a = RateSolver(ds_a)
    beta = solver_a.inverse_rate(s).value
    if a_values is None:
        a_values = tuple(beta * k / 8 for k in range(1, 9)) if beta > 0 else (1e-6,)
    a_values = [check_real(a, InvalidA, "deviation a", "non-negative") for a in a_values]
    solver_b = RateSolver(ds_b)
    beta_smooth_ok = all(_rate_dominates(solver_a, solver_b, a) for a in a_values if a > 0)
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
    gaps = tuple(jf - jr for jf, jr in zip(flat_curve.j_values, reduced_curve.j_values))
    mean_flat = flat_curve.summary.empirical_loss
    mean_reduced = reduced_curve.summary.empirical_loss
    return DAReport(
        lambdas=grid.values,
        j_flat=flat_curve.j_values,
        j_reduced=reduced_curve.j_values,
        gaps=gaps,
        mean_flat=mean_flat,
        mean_reduced=mean_reduced,
        equal_group_sizes=bool(sizes.min() == sizes.max()),
        mean_preserved=mean_reduced == mean_flat,
    )


def _quadratic(lam: float, coefficient: float) -> float:
    """``lam**2 * coefficient / 2``, infinite for an infinite coefficient even
    where ``lam**2`` underflows to zero."""
    return math.inf if math.isinf(coefficient) else 0.5 * lam * lam * coefficient


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
    approx = _quadratic(lam, summary.variance)
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
        approx = x * x / (2.0 * summary.variance)
        exact = rate(ds, x).value
        return ApproxReport("a", x, exact, approx, _abs_error(exact, approx))
    if mode == "inverse_rate":
        x = check_real(x, InvalidS, "budget")
        approx = math.sqrt(2.0 * x * summary.variance)
        exact = inverse_rate(ds, x).value
        return ApproxReport("s", x, exact, approx, _abs_error(exact, approx))
    raise InvalidA(f"mode must be 'rate' or 'inverse_rate', got {mode!r}")


def _scaled_quadratic_form(grads: np.ndarray, delta: np.ndarray) -> float:
    """``mean(((grads - mean) @ delta)**2)`` where a plain product overflows.

    The gradients, the displacement and then the projections are each scaled
    by a power of two that brings their largest magnitude below one. Such
    scaling changes no digit of a value it keeps in the normal range, so no
    product overflows and the form is infinite only when its value lies
    beyond the float64 range.
    """
    def exponent(values: np.ndarray) -> int:
        return math.frexp(float(np.abs(values).max()))[1]

    g_exp, d_exp = exponent(grads) + 1, exponent(delta)  # + 1: centring at most doubles a magnitude
    scaled = np.ldexp(grads, -g_exp)
    projected = (scaled - scaled.mean(axis=0)) @ np.ldexp(delta, -d_exp)
    p_exp = exponent(projected)
    projected = np.ldexp(projected, -p_exp)
    try:
        return math.ldexp(float(projected @ projected) / len(grads), 2 * (g_exp + d_exp + p_exp))
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
    ``sqrt(2*s*q)``. A gradient column whose sum lies beyond the float64
    range raises ``ValidationError``. Where a product in ``q`` overflows,
    ``q`` is recomputed on operands scaled by powers of two, so it is
    infinite only when its value lies beyond the float64 range.
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
        mean = grads.mean(axis=0)
        if not np.isfinite(mean).all():
            raise ValidationError("the sum of the grad_theta vectors overflows float64")
        projected = (grads - mean) @ delta
        quad = float(projected @ projected) / len(ds)
    if not math.isfinite(quad):
        quad = _scaled_quadratic_form(grads, delta)
    approx = _quadratic(lam, quad)
    exact = estimate_cumulant(ds, lam)
    report = ApproxReport("lambda", lam, exact, approx, _abs_error(exact, approx))
    inv_approx = None
    if s is not None:
        s = check_real(s, InvalidS, "budget")
        inv_approx = math.sqrt(2.0 * s * quad)
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
    ``m_const`` comes from a smoothness assumption the caller owns, so the
    bounds are reported without being checked against the data.
    """
    m_const = check_real(m_const, ValidationError, "m_const")
    s = check_real(s, InvalidS, "budget")
    norms = ds.grad_norm_sq
    if norms is None or np.isnan(norms).any():
        raise MissingGradNorms("every record needs a grad_norm_sq value")
    g2 = math.fsum(norms.tolist()) / len(ds)
    coefficient = m_const * g2
    bound_j = None
    if lam is not None:
        lam = check_real(lam, InvalidLambda, "tilt")
        bound_j = coefficient * lam * lam
    return GradNormBound(
        m_const=m_const,
        s=s,
        mean_grad_norm_sq=g2,
        j_coefficient=coefficient,
        bound_iinv=math.sqrt(s) * math.sqrt(coefficient),
        lam=lam,
        bound_j=bound_j,
    )
