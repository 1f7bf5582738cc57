"""Closed-form oracles on finite loss distributions and Monte Carlo validation.

Everything here works on an exactly known discrete distribution, so cumulant
and rate values are computed from first principles, independently of the
plug-in estimators. Randomness comes from the Philox 4x64 counter-based bit
generator keyed by the caller's seed; draws are consumed in fixed-size
chunks, so a given seed always reproduces the same report bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidA,
    InvalidLambda,
    NonRationalProbs,
    ParseError,
    SolverFailure,
    ValidationError,
    check_real,
    not_utf8,
)
from .loss_data import LossDataset

PROB_TOL = 1e-12        # probabilities must sum to one within this
_ORACLE_CAP = 1e12      # tilt cap for the oracle's own refinement search
_TRIAL_CHUNK = 16384    # trials simulated per batch; fixed so streams are reproducible
_BLOCK_DRAWS = 1 << 14  # draws held in memory at once, in whole samples (128 KB each)


@dataclass(frozen=True)
class DiscreteLossDistribution:
    """A finite loss distribution: support values (nats) and their probabilities."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("a distribution needs at least one atom")
        if len(self.values) != len(self.probs):
            raise ValidationError("values and probs must have the same length")
        values = tuple(check_real(v, ValidationError, "loss values", "non-negative") for v in self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", tuple(check_real(p, ValidationError, "probabilities") for p in self.probs))
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

    @property
    def mean(self) -> float:
        return math.fsum(p * v for p, v in zip(self.probs, self.values))

    @property
    def min_value(self) -> float:
        return min(self.values)

    @property
    def min_mass(self) -> float:
        lo = self.min_value
        return math.fsum(p for p, v in zip(self.probs, self.values) if v == lo)


@dataclass(frozen=True)
class CramerReport:
    """Monte Carlo tail estimate against the exact decay rate.

    ``neg_log_rate`` is ``-(1/n) log(p_hat)``, or ``math.inf`` when no trial
    produced the event.
    """

    n: int
    a: float
    trials: int
    hit_count: int
    p_hat: float
    neg_log_rate: float
    exact_rate: float
    seed: int


@dataclass(frozen=True)
class TiltedCramerReport(CramerReport):
    """Importance-sampled tail estimate with its sampling diagnostics.

    Trials are drawn from the law tilted by ``tilt`` (the exact optimum of
    ``lam*a - J(lam)``), so ``hit_count`` counts tilted trials that produced the
    event. ``p_hat`` is the mean over trials of the likelihood ratio on a hit
    (zero on a miss) and ``stderr`` its standard error (``math.inf`` for a
    single trial). ``effective_sample_size`` is ``(sum w)^2 / sum(w^2)`` over
    the weighted hits. ``neg_log_rate`` is computed in log space, so it stays finite when
    ``p_hat`` and ``stderr`` underflow to zero.
    """

    tilt: float
    stderr: float
    effective_sample_size: float


@dataclass(frozen=True)
class BiasProbeReport:
    """Sampling distribution of the plug-in cumulant against its exact value.

    ``underestimates`` is true when the replicate mean sits at or below the
    exact value plus three standard errors, the expected direction of the
    plug-in estimator's bias.
    """

    n: int
    lam: float
    replicates: int
    mean_estimate: float
    stderr: float
    exact_value: float
    underestimates: bool
    seed: int


def exact_cumulant(dist: DiscreteLossDistribution, lam: float) -> float:
    """Exact cumulant ``log E[exp(lam*(mean - loss))]`` of a discrete distribution."""
    lam = check_real(lam, InvalidLambda, "tilt", "non-negative")
    if lam == 0.0:
        return 0.0
    values = np.asarray(dist.values)
    probs = np.asarray(dist.probs)
    lo = dist.min_value
    z = float(probs @ np.exp(-lam * (values - lo)))
    result = lam * (dist.mean - lo) + math.log(z)
    return max(result, 0.0)


def _exact_tilted_mean(dist: DiscreteLossDistribution, lam: float) -> float:
    values = np.asarray(dist.values)
    probs = np.asarray(dist.probs)
    w = probs * np.exp(-lam * (values - dist.min_value))
    return float(w @ values) / float(w.sum())


def exact_rate(dist: DiscreteLossDistribution, a: float, resolution: int = 2048) -> float:
    """Exact rate at deviation ``a`` by grid search plus local bisection.

    Maximizes ``lam*a - J(lam)`` over ``resolution`` log-spaced tilts in
    [1e-6, 1e6], then refines with bisection on the derivative. Returns
    ``math.inf`` beyond the gap ``mean - min``; exactly at the gap the value
    is ``-log(mass at the minimum)``, the finite boundary of a finite-support
    distribution.
    """
    a = check_real(a, InvalidA, "deviation a")
    if resolution < 8:
        raise ValidationError(f"resolution must be at least 8, got {resolution}")
    gap = dist.mean - dist.min_value
    if a > gap:
        return math.inf
    if a == gap:
        return -math.log(dist.min_mass)

    lam = _exact_tilt(dist, a, resolution)
    return max(0.0, lam * a - exact_cumulant(dist, lam))


def _exact_tilt(dist: DiscreteLossDistribution, a: float, resolution: int = 2048) -> float:
    """The optimum tilt of ``lam*a - J(lam)`` for ``0 < a < mean - min``.

    Grid search over ``resolution`` log-spaced tilts in [1e-6, 1e6], then
    bisection on ``J'(lam) = a``. Both ``exact_rate`` and the tilted
    ``cramer_tail`` use it, so the sampler tilts by the oracle's own optimum.
    """
    grid = np.geomspace(1e-6, 1e6, int(resolution))
    values = np.asarray(dist.values)
    probs = np.asarray(dist.probs)
    lo = dist.min_value
    j_grid = grid * (dist.mean - lo) + np.log(np.exp(-np.outer(grid, values - lo)) @ probs)
    objective = grid * a - j_grid
    k = int(np.argmax(objective))

    # The optimum satisfies J'(lam) = a with J' increasing; bracket around the
    # grid argmax, expanding upward if the whole grid undershoots.
    lam_lo = 0.0 if k == 0 else float(grid[k - 1])
    lam_hi = float(grid[k + 1]) if k + 1 < len(grid) else float(grid[-1])
    while _exact_tilted_mean(dist, lam_hi) > dist.mean - a:
        lam_hi *= 2.0
        if lam_hi > _ORACLE_CAP:
            raise SolverFailure(f"oracle bracket expansion exceeded {_ORACLE_CAP:g}")
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        if mid <= lam_lo or mid >= lam_hi:
            break
        if dist.mean - _exact_tilted_mean(dist, mid) < a:
            lam_lo = mid
        else:
            lam_hi = mid
    return 0.5 * (lam_lo + lam_hi)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _draw_losses(
    dist: DiscreteLossDistribution, gen: np.random.Generator, shape, probs=None
) -> np.ndarray:
    """Inverse-CDF draws from ``dist``, or from its atoms weighted by ``probs``."""
    cum = np.cumsum(dist.probs if probs is None else probs)
    u = gen.random(shape)
    idx = np.searchsorted(cum, u, side="right")
    np.clip(idx, 0, len(dist.values) - 1, out=idx)
    return np.asarray(dist.values)[idx]


def _sample_means(
    dist: DiscreteLossDistribution, gen: np.random.Generator, trials: int, n: int, probs=None
) -> np.ndarray:
    """Means of ``trials`` samples of ``n`` draws each, drawn in blocks of about
    ``_BLOCK_DRAWS`` draws.

    The generator hands out draws in the same sequence however the requests
    are split, and each mean reduces its own sample's row alone, so the means
    equal those of one ``(trials, n)`` draw without holding it in memory.
    """
    means = np.empty(trials)
    rows = max(1, _BLOCK_DRAWS // n)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        means[start:stop] = _draw_losses(dist, gen, (stop - start, n), probs).mean(axis=1)
    return means


def sample_dataset(dist: DiscreteLossDistribution, n: int, seed: int) -> LossDataset:
    """Draw ``n`` i.i.d. losses by inverse CDF on a Philox stream keyed by ``seed``."""
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    losses = _draw_losses(dist, _generator(seed), n)
    return LossDataset.from_columns(losses, model_id=f"sampled-{seed}")


def expand_to_dataset(dist: DiscreteLossDistribution, denominator: int) -> LossDataset:
    """Expand rational probabilities into proportional exact sample counts."""
    if denominator < 1:
        raise ValidationError(f"denominator must be at least 1, got {denominator}")
    counts = []
    for p in dist.probs:
        scaled = p * denominator
        count = round(scaled)
        if abs(scaled - count) > 1e-9 or count < 1:
            raise NonRationalProbs(
                f"probability {p!r} times denominator {denominator} is not a positive integer"
            )
        counts.append(int(count))
    return LossDataset.from_columns(
        np.repeat(np.asarray(dist.values, dtype=np.float64), counts),
        model_id=f"expanded-{denominator}",
        sample_ids=[f"v{i}c{j}" for i, c in enumerate(counts) for j in range(c)],
    )


def cramer_tail(
    dist: DiscreteLossDistribution,
    n: int,
    a: float,
    trials: int,
    seed: int,
    method: str = "plain",
) -> CramerReport:
    """Estimate the probability that an ``n``-sample mean undershoots the mean by ``a``.

    Each trial draws ``n`` losses and counts a hit when ``mean - sample_mean >= a``
    (exact comparison, no tolerance). Zero hits are reported through an
    infinite ``neg_log_rate``, not an error.

    ``method="plain"`` samples ``dist`` itself; its relative error grows like
    ``1/sqrt(trials * p)``, so it cannot resolve tails far below
    ``1/trials``. ``method="tilted"`` samples the exponentially tilted law
    (Siegmund 1976; Sadowsky & Bucklew 1990) and returns a
    ``TiltedCramerReport``: each hit is weighted by the likelihood ratio
    ``exp(-n*(lam*(mean - sample_mean) - J(lam)))``, which on the event is at
    most ``exp(-n*I(a))``, so the relative error stays bounded as the tail
    shrinks.
    """
    a = check_real(a, InvalidA, "deviation a")
    gap = dist.mean - dist.min_value
    if a >= gap:
        raise InvalidA(f"deviation a must lie in (0, {gap!r}), got {a!r}")
    if n < 1 or trials < 1:
        raise ValidationError("n and trials must be at least 1")
    if method == "tilted":
        return _tilted_tail(dist, n, a, trials, seed)
    if method != "plain":
        raise ValidationError(f"method must be 'plain' or 'tilted', got {method!r}")

    gen = _generator(seed)
    mean = dist.mean
    hits = 0
    remaining = trials
    while remaining > 0:
        take = min(_TRIAL_CHUNK, remaining)
        sample_means = _sample_means(dist, gen, take, n)
        hits += int(np.count_nonzero(mean - sample_means >= a))
        remaining -= take
    p_hat = hits / trials
    neg_log_rate = math.inf if hits == 0 else -math.log(p_hat) / n
    return CramerReport(
        n=n,
        a=a,
        trials=trials,
        hit_count=hits,
        p_hat=p_hat,
        neg_log_rate=neg_log_rate,
        exact_rate=exact_rate(dist, a),
        seed=seed,
    )


def _tilted_tail(dist, n, a, trials, seed) -> TiltedCramerReport:
    lam = _exact_tilt(dist, a)
    rate = lam * a - exact_cumulant(dist, lam)
    values = np.asarray(dist.values)
    tilted = np.asarray(dist.probs) * np.exp(-lam * (values - dist.min_value))
    tilted /= tilted.sum()

    # A hit at deviation d has weight exp(-n*rate) * r with r = exp(-n*lam*(d - a))
    # in (0, 1]; sums run over r so that nothing underflows before the logs.
    gen = _generator(seed)
    mean = dist.mean
    hits, r_sum, r_sq = 0, 0.0, 0.0
    remaining = trials
    while remaining > 0:
        take = min(_TRIAL_CHUNK, remaining)
        dev = mean - _sample_means(dist, gen, take, n, tilted)
        r = np.exp(-n * lam * (dev[dev >= a] - a))
        hits += r.size
        r_sum += float(r.sum())
        r_sq += float(r @ r)
        remaining -= take
    scale = math.exp(-n * rate)
    r_mean = r_sum / trials
    if trials > 1:
        r_var = max(0.0, (r_sq / trials - r_mean * r_mean) * trials / (trials - 1))
        stderr = scale * math.sqrt(r_var / trials)
    else:
        stderr = math.inf
    return TiltedCramerReport(
        n=n,
        a=a,
        trials=trials,
        hit_count=hits,
        p_hat=scale * r_mean,
        neg_log_rate=math.inf if r_sum == 0.0 else rate - math.log(r_mean) / n,
        exact_rate=max(0.0, rate),
        seed=seed,
        tilt=lam,
        stderr=stderr,
        effective_sample_size=0.0 if r_sq == 0.0 else r_sum * r_sum / r_sq,
    )


def estimator_bias_probe(
    dist: DiscreteLossDistribution,
    n: int,
    lam: float,
    replicates: int,
    seed: int,
) -> BiasProbeReport:
    """Replicate the plug-in cumulant on fresh samples and compare to the exact value."""
    lam = check_real(lam, InvalidLambda, "tilt", "non-negative")
    if replicates < 30:
        raise ValidationError(f"replicates must be at least 30, got {replicates}")
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")

    gen = _generator(seed)
    estimates = np.empty(replicates)
    done = 0
    rows_per_chunk = max(1, _BLOCK_DRAWS // n)
    while done < replicates:
        take = min(rows_per_chunk, replicates - done)
        losses = _draw_losses(dist, gen, (take, n))
        lo = losses.min(axis=1)
        means = losses.mean(axis=1)
        z = np.exp(-lam * (losses - lo[:, None]))
        j = lam * (means - lo) + np.log(z.sum(axis=1)) - math.log(n)
        estimates[done : done + take] = np.maximum(j, 0.0)
        done += take
    mean_estimate = float(estimates.mean())
    stderr = 0.0 if replicates < 2 else float(estimates.std(ddof=1) / math.sqrt(replicates))
    exact = exact_cumulant(dist, lam)
    return BiasProbeReport(
        n=n,
        lam=lam,
        replicates=replicates,
        mean_estimate=mean_estimate,
        stderr=stderr,
        exact_value=exact,
        underestimates=mean_estimate <= exact + 3.0 * stderr,
        seed=seed,
    )


def load_distribution(path: str | Path) -> DiscreteLossDistribution:
    """Load a distribution from JSON: ``{"values": [...], "probs": [...]}``."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict) or "values" not in obj or "probs" not in obj:
        raise ParseError(f"{path}: expected an object with 'values' and 'probs'")
    for key in ("values", "probs"):
        if not isinstance(obj[key], list):
            raise ParseError(f"{path}: {key!r} must be an array, got {obj[key]!r}")
    return DiscreteLossDistribution(tuple(obj["values"]), tuple(obj["probs"]))
