"""Rate function and inverse rate function via convex scalar bisection.

The rate of a deviation ``a`` is ``sup_{lam>0} lam*a - J(lam)``; its inverse
at a budget ``s`` is ``inf_{lam>0} (J(lam)+s)/lam``. Both optima are located
by bisection on a monotone statistic: the cumulant derivative for the rate,
and the Bregman gap ``B(lam) = lam*J'(lam) - J(lam)`` for the inverse.
Saturation (the requested ``a`` or ``s`` falling outside the empirical
domain) is detected analytically before any solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cumulant import LambdaGrid, cumulant_pair
from .errors import InvalidA, InvalidS, SolverFailure, ValidationError, check_real
from .loss_data import LossDataset, summarize

DEFAULT_TOL = 1e-10
LAMBDA_CAP = 1e9
_MAX_BISECT = 200


@dataclass(frozen=True)
class RateEvaluation:
    """Rate value at one deviation, with the optimizing tilt.

    ``saturated`` marks deviations at or beyond the empirical gap
    ``mean - min``, where the rate is infinite; ``value`` and
    ``lambda_star`` are then ``math.inf``.
    """

    a: float
    value: float
    lambda_star: float
    saturated: bool


@dataclass(frozen=True)
class InverseRateEvaluation:
    """Inverse rate value at one budget, with the optimizing tilt.

    ``b_max`` is the supremum of the Bregman gap, ``log(count / min_count)``;
    budgets at or beyond it saturate, with ``value`` equal to the empirical
    gap ``mean - min`` and ``lambda_star = math.inf``. Unrestricted
    evaluations never exceed the empirical mean loss.
    """

    s: float
    value: float
    lambda_star: float
    saturated: bool
    b_max: float


class _Curve:
    """Per-dataset arrays and scalars shared by repeated solver evaluations."""

    def __init__(self, ds: LossDataset):
        s = summarize(ds)
        self.losses = ds.losses
        self.mean = s.empirical_loss
        self.lo = s.min_loss
        self.gap = max(s.empirical_loss - s.min_loss, 0.0)
        self.b_max = math.log(s.count) - math.log(s.min_loss_count)

    def j(self, lam: float) -> float:
        return cumulant_pair(self.losses, lam, self.mean, self.lo)[0]

    def dj(self, lam: float) -> float:
        return cumulant_pair(self.losses, lam, self.mean, self.lo)[1]

    def bregman(self, lam: float) -> float:
        j, dj = cumulant_pair(self.losses, lam, self.mean, self.lo)
        return lam * dj - j


def _bisect_increasing(f: Callable[[float], float], target: float, tol: float) -> float | None:
    """Solve ``f(lam) = target`` for an increasing ``f`` with ``f(0) <= target``.

    Doubles an upper bracket from 1.0; returns ``None`` when no bracket exists
    below the tilt cap. Stops on a residual within ``tol`` or on interval
    exhaustion at machine precision.
    """
    hi = 1.0
    while f(hi) < target:
        hi *= 2.0
        if hi > LAMBDA_CAP:
            return None
    lo = 0.0
    mid = 0.5 * hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        value = f(mid)
        if abs(value - target) <= tol:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rate_on(curve: _Curve, a: float, tol: float) -> RateEvaluation:
    if a >= curve.gap - tol:
        return RateEvaluation(a=a, value=math.inf, lambda_star=math.inf, saturated=True)
    lam = _bisect_increasing(curve.dj, a, tol)
    if lam is None:
        raise SolverFailure(
            f"no tilt below {LAMBDA_CAP:g} reaches derivative {a!r} (gap {curve.gap!r})"
        )
    value = max(0.0, lam * a - curve.j(lam))
    return RateEvaluation(a=a, value=value, lambda_star=lam, saturated=False)


def rate(ds: LossDataset, a: float, tol: float = DEFAULT_TOL) -> RateEvaluation:
    """Rate of deviating ``a`` below the mean: ``sup_{lam>0} lam*a - J(lam)``.

    Deviations at or beyond ``mean - min`` (within ``tol``) saturate to an
    infinite rate; elsewhere the optimizer solves ``J'(lam) = a``.
    """
    a = check_real(a, InvalidA, "deviation a")
    return _rate_on(_Curve(ds), a, check_real(tol, ValidationError, "tol", "non-negative"))


def _inverse_on(curve: _Curve, s: float, tol: float) -> InverseRateEvaluation:
    if s >= curve.b_max - tol:
        return InverseRateEvaluation(
            s=s, value=curve.gap, lambda_star=math.inf, saturated=True, b_max=curve.b_max
        )
    lam = _bisect_increasing(curve.bregman, s, tol)
    if lam is None:
        raise SolverFailure(
            f"no tilt below {LAMBDA_CAP:g} reaches Bregman gap {s!r} (sup {curve.b_max!r})"
        )
    value = min((curve.j(lam) + s) / lam, curve.mean)
    return InverseRateEvaluation(s=s, value=value, lambda_star=lam, saturated=False, b_max=curve.b_max)


def inverse_rate(ds: LossDataset, s: float, tol: float = DEFAULT_TOL) -> InverseRateEvaluation:
    """Inverse rate at budget ``s``: ``inf_{lam>0} (J(lam)+s)/lam``.

    Budgets at or beyond ``b_max = log(count/min_count)`` (within ``tol``)
    saturate to the empirical gap; elsewhere the optimizer solves
    ``lam*J'(lam) - J(lam) = s`` and the value never exceeds the mean loss.
    """
    s = check_real(s, InvalidS, "budget s")
    return _inverse_on(_Curve(ds), s, check_real(tol, ValidationError, "tol", "non-negative"))


def grid_inverse_rate(ds: LossDataset, s: float, grid: LambdaGrid) -> InverseRateEvaluation:
    """Inverse rate restricted to a finite tilt grid: ``min_{lam in grid} (J(lam)+s)/lam``.

    Ties resolve to the smallest tilt. The restricted value dominates the
    unrestricted one and may exceed the mean loss when the grid misses the
    optimum; the result is never flagged saturated.
    """
    s = check_real(s, InvalidS, "budget s")
    curve = _Curve(ds)
    candidates = [(curve.j(lam) + s) / lam for lam in grid.values]
    best = int(np.argmin(candidates))
    return InverseRateEvaluation(
        s=s,
        value=candidates[best],
        lambda_star=grid.values[best],
        saturated=False,
        b_max=curve.b_max,
    )


def rate_curve(ds: LossDataset, a_values: Sequence[float], tol: float = DEFAULT_TOL) -> list[RateEvaluation]:
    """Rate evaluations over an increasing sequence of deviations."""
    checked = [check_real(a, InvalidA, "deviation a") for a in a_values]
    if any(b <= a for a, b in zip(checked, checked[1:])):
        raise InvalidA("a_values must be strictly increasing")
    tol = check_real(tol, ValidationError, "tol", "non-negative")
    curve = _Curve(ds)
    return [_rate_on(curve, a, tol) for a in checked]
