"""Numerically stable estimation of the loss cumulant function.

For a loss multiset with mean ``L`` and minimum ``m``, the plug-in cumulant at
tilt ``lam`` is::

    J(lam) = lam * (L - m) + log(sum_i exp(-lam * (loss_i - m))) - log(M)

Shifting exponents by the minimum makes the largest summand exactly one, so
the evaluation cannot overflow for any tilt. The derivative is the gap
between the plain mean and the mean under weights proportional to
``exp(-lam * loss)``; it lives in ``[0, L - m]``.

One kernel, ``tilted_moments``, makes every exp pass over losses: the
cumulant entry points here and the rate solvers (which also take the tilted
variance, so J, J' and J'' come from one pass). Every grid pass goes through
``cumulant_curve``, and a dataset holds the last curve computed on it.
It evaluates tilts in blocks, one row of exponents per tilt, built in place
in a buffer that each thread holds and reuses: it grows only, to at most
``max(M, _BLOCK_FLOATS)`` floats for the largest ``M`` the thread has
passed over, so a pass allocates nothing the size of the losses once the
thread has made one as large.
``exp`` is slow on arguments whose result underflows, so lanes at or below
``EXP_CUTOFF`` are set to zero without calling it; their ``exp`` is exactly
``0.0``, so every value stays bit for bit what a plain per-tilt pass gives.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InternalConsistencyError, InvalidLambda, ValidationError, check_count, check_real
from .loss_data import DatasetSummary, LossDataset, summarize

# J >= 0 is a theorem; round-off below zero is clamped, anything beyond this
# tolerance indicates a bug upstream.
NEG_TOL = 1e-12

DEFAULT_GRID_LO = 1e-3
DEFAULT_GRID_HI = 1e3
DEFAULT_GRID_SIZE = 64
MAX_GRID_SIZE = 10**6

# exp(x) rounds to 0.0 for every x below about -745.13, and numpy's exp is
# slow there; lanes at or below the cutoff are zeroed without calling it.
EXP_CUTOFF = -745.2
# A block of tilts holds at most max(M, _BLOCK_FLOATS) exponents.
_BLOCK_FLOATS = 65536
_NO_CONTEXT = contextlib.nullcontext()
# Each thread's exponent buffer; see _exponents.
_held = threading.local()
# Values weighted in [0, 1] sum to at most the weights' total times the largest
# value; below this power of two, with room for round-off, no such sum overflows.
_DOT_LIMIT = 2.0 ** 1023


def _grid_args(lo, hi, count) -> tuple[float, float, int]:
    """A grid factory's ends, which must be finite and positive, and its count."""
    count = check_count(count, ValidationError, "grid count")
    if count > MAX_GRID_SIZE:
        raise ValidationError(f"grid count must be at most {MAX_GRID_SIZE}, got {count!r}")
    return check_real(lo, ValidationError, "grid start"), check_real(hi, ValidationError, "grid stop"), count


@dataclass(frozen=True)
class LambdaGrid:
    """A strictly increasing grid of positive tilt values."""

    values: tuple[float, ...]
    spacing: str = "log"

    def __post_init__(self):
        values = tuple(check_real(v, ValidationError, "grid value") for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValidationError("a tilt grid must be non-empty")
        if self.spacing not in ("linear", "log"):
            raise ValidationError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("grid values must be finite, positive, strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def linear(lo: float, hi: float, count: int) -> "LambdaGrid":
        return LambdaGrid(tuple(np.linspace(*_grid_args(lo, hi, count))), spacing="linear")

    @staticmethod
    def log_spaced(lo: float, hi: float, count: int) -> "LambdaGrid":
        return LambdaGrid(tuple(np.geomspace(*_grid_args(lo, hi, count))), spacing="log")

    @staticmethod
    def default() -> "LambdaGrid":
        """64 log-spaced tilts on [1e-3, 1e3]; covers the curvature region for nat-scale losses.

        Grids are immutable, so every call returns the one instance built at import.
        """
        return _DEFAULT_GRID


_DEFAULT_GRID = LambdaGrid.log_spaced(DEFAULT_GRID_LO, DEFAULT_GRID_HI, DEFAULT_GRID_SIZE)


@dataclass(frozen=True)
class CumulantCurve:
    """Cumulant values and derivatives over a tilt grid, with the dataset summary."""

    grid: LambdaGrid
    j_values: tuple[float, ...]
    j_derivs: tuple[float, ...]
    summary: DatasetSummary


def _exp_in_place(z: np.ndarray, largest: float) -> None:
    """``np.exp(z, out=z)`` for exponents ``z <= 0`` whose magnitude is at most
    ``largest``, without calling ``exp`` on lanes at or below ``EXP_CUTOFF``.

    The clamp at -746 keeps a lane that overflowed to ``-inf`` from turning
    into NaN when the mask multiplies it by zero.
    """
    if largest > -EXP_CUTOFF:
        np.maximum(z, -746.0, out=z)
        keep = z > EXP_CUTOFF
        z *= keep
        np.exp(z, out=z)
        z *= keep
    else:
        np.exp(z, out=z)


def _exponents(size: int) -> np.ndarray:
    """The first ``size`` floats of this thread's exponent buffer, which is
    replaced by a larger one when it is shorter. Its values are whatever the
    last pass left; every pass writes each lane it reads."""
    row = getattr(_held, "row", None)
    if row is None or row.size < size:
        row = _held.row = np.empty(size)
    return row[:size]


def tilted_moments(x: np.ndarray, lams: Sequence[float], lo: float, top: float,
                   curvature: bool = False) -> list[tuple[float, ...]]:
    """The one exp pass: at each tilt ``t`` of ``lams``, ``log(sum(exp(-t*(x - lo))))``
    and the mean of ``x`` under weights proportional to ``exp(-t*x)``.

    With ``curvature`` a third value, the variance of ``x`` under the same
    weights, comes from the same pass. It squares ``x``, so pass values of
    order one with ``lo = 0``, as the rate solvers do. ``top`` is
    ``max(x) - lo``: once a block's largest ``t*top`` passes ``-EXP_CUTOFF``,
    lanes that underflow skip ``exp``. Tilts go in blocks of rows
    ``-t*(x - lo)`` built in place, at most ``max(M, _BLOCK_FLOATS)``
    exponents, in the calling thread's held buffer (see :func:`_exponents`):
    after a thread's first pass over ``M`` losses no pass allocates an array
    as large as ``x``, apart from the underflow mask of a large tilt. No
    view of the buffer outlives the call. Each row sums
    pairwise as a 1-D pass does, and its tilted mean is one dot product of
    its own, all rows of a block in one stacked call (see :func:`_row_dots`).
    """
    rows = max(_BLOCK_FLOATS // x.size, 1)
    # A lone tilt takes a 1-D row and a scalar factor, on which numpy's per-call cost is lower.
    if len(lams) == 1:
        z = _exponents(x.size)
    else:
        rows = min(rows, len(lams))
        z = _exponents(rows * x.size).reshape(rows, x.size)
    moments = []
    for start in range(0, len(lams), rows):
        block = lams[start:start + rows]
        if z.ndim == 1:
            factor = -block[0]
        else:
            z = z[:len(block)]
            factor = np.negative(block)[:, None]
        # A product past the float64 range is -inf, and exp takes it to 0:
        # the saturated result intended, so numpy's overflow warning is not.
        # No product passes it unless the largest does; errstate costs about
        # 1 us, so only then is it entered.
        reach = max(block) * top
        with np.errstate(over="ignore") if reach == math.inf else _NO_CONTEXT:
            if lo:
                np.subtract(x, lo, out=z)
                z *= factor
            else:
                np.multiply(x, factor, out=z)
        _exp_in_place(z, reach)
        totals = z.sum(axis=1).tolist() if z.ndim == 2 else [float(z.sum())]
        tilted = _tilted_means(z, x, totals, lo + top)
        logs = map(math.log, totals)
        if curvature:
            z *= x
            second = _row_dots(z, x)
            spreads = [max(dot / total - mean * mean, 0.0) for dot, total, mean in zip(second, totals, tilted)]
            moments += zip(logs, tilted, spreads)
        else:
            moments += zip(logs, tilted)
    return moments


def _tilted_means(z: np.ndarray, x: np.ndarray, totals: list[float], peak: float) -> list[float]:
    """``row @ x / total`` for each row of ``z`` and its total; ``peak`` is ``max(x)``.

    A sum that passes the float64 range is taken again on ``x / _DOT_LIMIT``
    and its mean scaled back, which keeps its digits: a power of two commutes
    with the rounding (values below 2 lose bits far under the sum's last one).
    The other rows keep their bits."""
    if max(totals) * peak < _DOT_LIMIT:
        return [dot / total for dot, total in zip(_row_dots(z, x), totals)]
    with np.errstate(over="ignore"):
        dots = _row_dots(z, x)
    lows = _row_dots(z, x / _DOT_LIMIT)
    return [dot / total if dot < math.inf else low / total * _DOT_LIMIT for dot, low, total in zip(dots, lows, totals)]


def _row_dots(z: np.ndarray, x: np.ndarray) -> list[float]:
    """``row @ x`` for each row of ``z``, or for ``z`` itself when it is 1-D.

    The stacked product runs one dot product per row, so each value equals
    ``row @ x`` bit for bit; ``z @ x``, a matrix-vector product, rounds
    differently.
    """
    if z.ndim == 1:
        return [float(z @ x)]
    return np.matmul(z[:, None, :], x[:, None])[:, 0, 0].tolist()


def cumulant_pairs(ds: LossDataset, lams: Sequence[float]) -> list[tuple[float, float]]:
    """The cumulant and its derivative at each positive tilt of ``lams``.

    The derivative is the mean minus the exponentially tilted mean, clamped
    to [0, mean - min].
    """
    s = summarize(ds)
    x, mean, lo = ds.losses, s.empirical_loss, s.min_loss
    pairs = []
    for lam, (log_total, tilted) in zip(lams, tilted_moments(x, lams, lo, float(x.max()) - lo)):
        value = lam * (mean - lo) + log_total - math.log(x.size)
        if value < 0.0:
            if value <= -NEG_TOL:
                raise InternalConsistencyError(f"cumulant came out {value!r} < -{NEG_TOL}")
            value = 0.0
        pairs.append((value, min(max(mean - tilted, 0.0), mean - lo)))
    return pairs


def _at(ds: LossDataset, lam: float) -> tuple[float, float]:
    lam = check_real(lam, InvalidLambda, "tilt", "non-negative")
    return cumulant_pairs(ds, (lam,))[0] if lam else (0.0, 0.0)


def estimate_cumulant(ds: LossDataset, lam: float) -> float:
    """Plug-in cumulant of the dataset's loss distribution at tilt ``lam``.

    ``lam = 0`` returns exactly 0 without computation.
    """
    return _at(ds, lam)[0]


def cumulant_derivative(ds: LossDataset, lam: float) -> float:
    """Derivative of the plug-in cumulant at tilt ``lam``; lies in [0, mean - min]."""
    return _at(ds, lam)[1]


def cumulant_curve(ds: LossDataset, grid: LambdaGrid | None = None) -> CumulantCurve:
    """Evaluate the cumulant and its derivative over a tilt grid.

    The dataset holds the last curve computed on it. A call with that curve's
    grid, or an equal one (same values and spacing), returns the held curve
    itself without a pass; any other grid computes a new curve, which then
    replaces it.
    """
    if grid is None:
        grid = LambdaGrid.default()
    held = held_curve(ds)
    if held is not None and held.grid == grid:
        return held
    j_values, j_derivs = zip(*cumulant_pairs(ds, grid.values))
    curve = CumulantCurve(grid=grid, j_values=j_values, j_derivs=j_derivs, summary=summarize(ds))
    object.__setattr__(ds, "_curve", curve)
    return curve


def held_curve(ds: LossDataset) -> CumulantCurve | None:
    """The curve ``ds`` holds from its last :func:`cumulant_curve` call, on
    whatever grid that was, or ``None``; never makes a pass."""
    return ds._curve
