"""Rate function and inverse rate function via a safeguarded Newton solver.

The rate of a deviation ``a`` is ``sup_{lam>0} lam*a - J(lam)``; its inverse
at a budget ``s`` is ``inf_{lam>0} (J(lam)+s)/lam``. Both are solved on the
dataset's cumulant in normalized units: with ``gap = mean - min``, the
losses ``d = (loss - min)/gap`` have minimum 0 and mean 1, and the tilt
``mu = lam*gap`` gives ``K(mu) = J(lam)``, ``K'(mu) = J'(lam)/gap`` and
``K''(mu) = J''(lam)/gap**2``. One pass of the cumulant module's one exp
kernel, ``tilted_moments``, returns all three, so every figure below is free
of the loss scale; ``grid_inverse_rate`` reads J from the dataset's
cumulant curve.

``rate``, ``inverse_rate`` and ``rate_curve`` hold the solver of the last
dataset they solved on, with ``d``, and reuse it while they are called on
that dataset; a call on another dataset drops it before building its own,
so at most one such ``d`` is held. The dataset itself is held weakly, and
the solver goes with it. The two-dataset analyses use the held solver of
either dataset but hold none of their own. With the kernel's exponent row, held per thread,
a repeated top-level solve allocates nothing the size of the losses.

The optima solve an increasing equation: ``K'(mu) = a/gap`` for the rate
and the Bregman gap ``B(mu) = mu*K'(mu) - K(mu) = s`` (slope ``mu*K''``) for
the inverse. Newton steps are kept inside a bracket that every evaluation
narrows; a step that leaves the bracket, or does not halve the one before,
falls back to bisection (geometric while the bracket spans more than a
factor of four, and a fourfold expansion while no point above the root is
known), so the solver always converges (``rtsafe`` in Numerical Recipes).
It typically takes 3 to 10 passes. ``tol`` bounds the residual of ``K'``,
that is of ``J'`` relative to the gap, and of ``B``, which is in nats; the
tilt cap ``TILT_CAP`` is on ``mu``. Saturation (the requested ``a`` or
``s`` falling outside the empirical domain) is detected analytically before
any solving.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cumulant import LambdaGrid, cumulant_curve, tilted_moments
from .errors import InvalidA, InvalidS, SolverFailure, ValidationError, check_real
from .loss_data import DatasetSummary, LossDataset, summarize

DEFAULT_TOL = 1e-10
# Largest normalized tilt lam*(mean - min) the solver tries.
TILT_CAP = 1e9
_MAX_STEPS = 200
# Once a Newton step is shorter than this fraction of the tilt, the solver
# stops as soon as the residual no longer halves: it has reached rounding.
_STEP_RTOL = 1e-6


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


def _b_max(s: DatasetSummary) -> float:
    return math.log(s.count) - math.log(s.min_loss_count)


def _newton(fdf: Callable[[float], tuple[float, float, float]], target: float, mu: float, lo: float,
            tol: float) -> tuple[float, float] | None:
    """Solve ``f(mu) = target`` for an increasing ``f`` with ``f(lo) <= target``.

    ``fdf(mu)`` returns ``f``, ``f'`` and the log-mean ``ell`` of the pass.
    Starts at ``mu``. Stops on a residual within ``tol``, on a residual
    that no longer halves after a Newton step shorter than ``_STEP_RTOL`` of
    the tilt, or on a bracket exhausted at machine precision; returns the
    tilt with the smallest residual seen, with its ``ell``. Returns ``None``
    when ``f(TILT_CAP) < target``.
    """
    hi, dx_old, best, previous, near = math.inf, math.inf, math.inf, math.inf, False
    for _ in range(_MAX_STEPS):
        f, df, ell = fdf(mu)
        residual = f - target
        if abs(residual) < best:
            point, best = (mu, ell), abs(residual)
        if best <= tol or (near and abs(residual) > 0.5 * previous):
            break
        previous = abs(residual)
        if residual < 0.0:
            lo = mu
        else:
            hi = mu
        if lo >= TILT_CAP:
            return None
        new = mu - residual / df if df > 0.0 else math.nan
        near = abs(new - mu) <= _STEP_RTOL * mu
        if not near and (not lo < new < hi or abs(new - mu) > 0.5 * dx_old):
            if hi == math.inf:  # every point so far lies below the root: expand
                new = min(new if new > 4.0 * lo else 4.0 * lo, TILT_CAP)
            else:
                new = math.sqrt(lo * hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if not lo < new < hi:
            break
        dx_old, mu = abs(new - mu), new
    return point


class RateSolver:
    """Rate and inverse-rate solves on one dataset's cumulant in normalized units.

    Holds the normalized losses ``d`` (one read-only array of the dataset's
    length), so repeated solves on a dataset share them; each evaluation's
    exp pass runs in the calling thread's held exponent row (see
    ``cumulant.tilted_moments``) and adds only a boolean mask at large
    tilts. A solver may be shared between threads.
    """

    def __init__(self, ds: LossDataset):
        s = summarize(ds)
        self.mean = s.empirical_loss
        self.gap = max(s.empirical_loss - s.min_loss, 0.0)
        self.b_max = _b_max(s)
        if self.gap > 0.0:
            d = ds.losses - s.min_loss
            d /= self.gap
            d.flags.writeable = False
            self.d = d
            self.log_count = math.log(s.count)
            # K''(0) is the variance of d, at least 1/(count - 1) with min 0 and
            # mean 1 (the floor absorbs rounding); K'' <= max(d)**2/4 everywhere.
            self.var = max(float(d @ d) / d.size - 1.0, 1.0 / d.size)
            self.top = float(d.max())

    def terms(self, mu: float) -> tuple[float, float, float]:
        """At normalized tilt ``mu``, from one exp pass: ``ell = log(mean(exp(-mu*d)))``,
        so ``K = mu + ell``, and the tilted mean and variance of ``d``, so
        ``K' = 1 - mean`` and ``K'' = variance``."""
        (log_total, tilted, variance), = tilted_moments(self.d, (mu,), 0.0, self.top, curvature=True)
        return log_total - self.log_count, tilted, variance

    def _slope(self, mu: float) -> tuple[float, float, float]:
        ell, tilted, variance = self.terms(mu)
        return 1.0 - tilted, variance, ell

    def _bregman(self, mu: float) -> tuple[float, float, float]:
        # B = mu*K' - K = -mu*mean - ell, without the cancellation of mu*K' and K.
        ell, tilted, variance = self.terms(mu)
        return -mu * tilted - ell, mu * variance, ell

    def saturates(self, a: float, tol: float = DEFAULT_TOL) -> bool:
        """Whether the rate at a checked deviation ``a`` saturates: ``a`` at or
        beyond ``(mean - min)*(1 - tol)``, where ``rate`` reports ``inf``."""
        return a >= self.gap * (1.0 - tol)

    def rate(self, a: float, tol: float = DEFAULT_TOL) -> RateEvaluation:
        """Rate at a checked deviation ``a``; see ``rate``."""
        if self.saturates(a, tol):
            return RateEvaluation(a=a, value=math.inf, lambda_star=math.inf, saturated=True)
        alpha = a / self.gap
        # K' <= mu*max(d)**2/4 keeps the root above `lo`; the start is K' ~ mu*var.
        lo = 4.0 * alpha / self.top**2
        solved = _newton(self._slope, alpha, min(alpha / self.var, TILT_CAP), lo, tol)
        if solved is None:
            raise SolverFailure(
                f"no tilt below {TILT_CAP / self.gap:g} reaches derivative {a!r} (gap {self.gap!r})"
            )
        mu, ell = solved
        # mu*alpha - K, with K = mu + ell
        value = max(0.0, -(mu * (1.0 - alpha) + ell))
        return RateEvaluation(a=a, value=value, lambda_star=mu / self.gap, saturated=False)

    def inverse_rate(self, s: float, tol: float = DEFAULT_TOL) -> InverseRateEvaluation:
        """Inverse rate at a checked budget ``s``; see ``inverse_rate``."""
        if s >= self.b_max - tol or self.gap == 0.0:
            return InverseRateEvaluation(s=s, value=self.gap, lambda_star=math.inf, saturated=True, b_max=self.b_max)
        # B <= mu**2*max(d)**2/8 keeps the root above `lo`; the start is B ~ mu**2*var/2.
        lo = math.sqrt(8.0 * s) / self.top
        solved = _newton(self._bregman, s, min(math.sqrt(2.0 * s / self.var), TILT_CAP), lo, tol)
        if solved is None:
            raise SolverFailure(
                f"no tilt below {TILT_CAP / self.gap:g} reaches Bregman gap {s!r} (sup {self.b_max!r})"
            )
        mu, ell = solved
        # gap*(K + s)/mu, with K = mu + ell
        value = min(self.gap * (1.0 + (ell + s) / mu), self.mean)
        return InverseRateEvaluation(s=s, value=value, lambda_star=mu / self.gap, saturated=False, b_max=self.b_max)


# (weak reference to the dataset, its solver) of the last top-level solve, or None.
_last: tuple[weakref.ref, RateSolver] | None = None


def _forget(ref: weakref.ref) -> None:
    """Drop the held solver once its dataset is collected."""
    global _last
    held = _last
    if held is not None and held[0] is ref:
        _last = None


def _solver(ds: LossDataset, hold: bool = True) -> RateSolver:
    """The held solver when it belongs to ``ds``; otherwise a new one, held in
    its place, or with ``hold`` false not held, which leaves the held one be.

    A held entry always pairs a dataset with its own solver, so threads that
    race here need no lock: the loser of a race builds one solver more."""
    global _last
    held = _last
    if held is not None and held[0]() is ds:
        return held[1]
    if not hold:
        return RateSolver(ds)
    _last = None  # free the old solver's d before building the new one
    solver = RateSolver(ds)
    _last = (weakref.ref(ds, _forget), solver)
    return solver


def rate(ds: LossDataset, a: float, tol: float = DEFAULT_TOL) -> RateEvaluation:
    """Rate of deviating ``a`` below the mean: ``sup_{lam>0} lam*a - J(lam)``.

    Deviations at or beyond ``(mean - min)*(1 - tol)`` saturate to an
    infinite rate; elsewhere the optimizer solves ``J'(lam) = a`` to within
    ``tol*(mean - min)``.
    """
    a = check_real(a, InvalidA, "deviation a")
    tol = check_real(tol, ValidationError, "tol", "non-negative")
    return _solver(ds).rate(a, tol)


def inverse_rate(ds: LossDataset, s: float, tol: float = DEFAULT_TOL) -> InverseRateEvaluation:
    """Inverse rate at budget ``s``: ``inf_{lam>0} (J(lam)+s)/lam``.

    Budgets at or beyond ``b_max = log(count/min_count)`` (within ``tol``)
    saturate to the empirical gap; elsewhere the optimizer solves
    ``lam*J'(lam) - J(lam) = s`` and the value never exceeds the mean loss.
    """
    s = check_real(s, InvalidS, "budget s")
    tol = check_real(tol, ValidationError, "tol", "non-negative")
    return _solver(ds).inverse_rate(s, tol)


def grid_inverse_rate(ds: LossDataset, s: float, grid: LambdaGrid) -> InverseRateEvaluation:
    """Inverse rate restricted to a finite tilt grid: ``min_{lam in grid} (J(lam)+s)/lam``.

    Ties resolve to the smallest tilt. The restricted value dominates the
    unrestricted one and may exceed the mean loss when the grid misses the
    optimum; the result is never flagged saturated. J comes from
    :func:`cumulant_curve`, so a dataset that holds the grid's curve makes
    no pass.
    """
    s = check_real(s, InvalidS, "budget s")
    candidates = [(j + s) / lam for lam, j in zip(grid.values, cumulant_curve(ds, grid).j_values)]
    best = int(np.argmin(candidates))
    return InverseRateEvaluation(
        s=s,
        value=candidates[best],
        lambda_star=grid.values[best],
        saturated=False,
        b_max=_b_max(summarize(ds)),
    )


def rate_curve(ds: LossDataset, a_values: Sequence[float], tol: float = DEFAULT_TOL) -> list[RateEvaluation]:
    """Rate evaluations over an increasing sequence of deviations."""
    checked = [check_real(a, InvalidA, "deviation a") for a in a_values]
    if any(b <= a for a, b in zip(checked, checked[1:])):
        raise InvalidA("a_values must be strictly increasing")
    tol = check_real(tol, ValidationError, "tol", "non-negative")
    solver = _solver(ds)
    return [solver.rate(a, tol) for a in checked]
