"""Closed-form oracles on finite loss distributions and Monte Carlo validation.

Everything here works on an exactly known discrete distribution, so cumulant
and rate values are computed from first principles, independently of the
plug-in estimators. Randomness comes from the Philox 4x64 counter-based bit
generator keyed by the caller's seed. A Monte Carlo estimator cuts its
samples into fixed units (blocks of rows, or weight windows) and splits the
units over the CPUs the process may use: each part skips ahead on the
counter to its first draw, and the units' results fold in unit order. So a
given seed reproduces the same report bit for bit, whatever that count.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
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
    check_count,
    check_real,
    input_file,
)
from .loss_data import LossDataset, _numbered_ids

PROB_TOL = 1e-12        # probabilities must sum to one within this
_ORACLE_CAP = 1e12      # tilt cap for the oracle's own refinement search
_ORACLE_GRID = 2048     # log-spaced tilts on [1e-6, 1e6] the oracle searches before refining
_BLOCK_DRAWS = 1 << 14  # draws held in memory at once, in whole samples (128 KB each)
_TAIL_VECTORS = 10**7   # exact_tail refuses more count vectors than this
_COUNT_BLOCK = 1 << 16  # count vectors enumerated at once by exact_tail
_WEIGHT_WINDOW = 16384  # tilted trials per float sum of weights: fixes the summation grouping, not memory
_COMPARE_ATOMS = 128    # laws up to this many atoms pick atoms by comparisons (uint8 indices allow 256)
_MAX_PARTS = 8          # at most this many threads share one estimator's draws


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


def exact_rate(dist: DiscreteLossDistribution, a: float) -> float:
    """Exact rate at deviation ``a`` by grid search plus local bisection.

    Maximizes ``lam*a - J(lam)`` over ``_ORACLE_GRID`` log-spaced tilts in
    [1e-6, 1e6], then refines with bisection on the derivative. Returns
    ``math.inf`` beyond the gap ``mean - min``; exactly at the gap the value
    is ``-log(mass at the minimum)``, the finite boundary of a finite-support
    distribution.
    """
    a = check_real(a, InvalidA, "deviation a")
    gap = dist.mean - dist.min_value
    if a > gap:
        return math.inf
    if a == gap:
        return -math.log(dist.min_mass)

    lam = _exact_tilt(dist, a)
    return max(0.0, lam * a - exact_cumulant(dist, lam))


def _exact_tilt(dist: DiscreteLossDistribution, a: float) -> float:
    """The optimum tilt of ``lam*a - J(lam)`` for ``0 < a < mean - min``.

    Grid search over ``_ORACLE_GRID`` log-spaced tilts in [1e-6, 1e6], then
    bisection on ``J'(lam) = a``. Both ``exact_rate`` and the tilted
    ``cramer_tail`` use it, so the sampler tilts by the oracle's own optimum.
    """
    grid = np.geomspace(1e-6, 1e6, _ORACLE_GRID)
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


def exact_tail(dist: DiscreteLossDistribution, n: int, a: float) -> float:
    """Exact probability that an ``n``-sample mean undershoots the mean by ``a`` or more.

    Sums the multinomial probabilities of the count vectors ``c`` (``c[j]``
    draws of atom ``j``, ``sum(c) = n``) in ``cramer_tail``'s event
    ``mean - (c . values)/n >= a``, with log-pmfs from ``lgamma`` combined by
    log-sum-exp. The event is decided in floating point away from its
    boundary; within rounding of it, it is decided on the law's exact
    rationals, each number read as the decimal it prints as (so 0.2 is 1/5)
    and the probabilities normalized to sum to one. A tie counts as a hit, as
    ``>=`` says; ``cramer_tail`` compares in floating point, where rounding
    can put a tie on either side, so test it on laws and deviations without
    ties. A law of ``k`` atoms has ``C(n+k-1, k-1)`` count vectors; more than
    ``_TAIL_VECTORS`` raise ``ValidationError``.
    """
    from fractions import Fraction  # here, so that importing ratefn does not load decimal

    a = check_real(a, InvalidA, "deviation a")
    n = check_count(n, ValidationError, "n")
    k = len(dist.values)
    vectors = math.comb(n + k - 1, k - 1)
    if vectors > _TAIL_VECTORS:
        raise ValidationError(
            f"{vectors} count vectors for n={n} and {k} atoms; exact_tail enumerates at most {_TAIL_VECTORS:g}"
        )
    values = np.asarray(dist.values)
    log_probs = np.log(np.asarray(dist.probs))
    log_factorials = np.fromiter((math.lgamma(c + 1.0) for c in range(n + 1)), np.float64, n + 1)
    bound = n * (dist.mean - a)
    slack = 1e-9 * n * (float(values.max()) + a)
    exact_values = [Fraction(repr(v)) for v in dist.values]
    exact_probs = [Fraction(repr(p)) for p in dist.probs]
    exact_mean = sum(p * v for p, v in zip(exact_probs, exact_values)) / sum(exact_probs)
    exact_bound = n * (exact_mean - Fraction(repr(a)))

    top, scaled = -math.inf, 0.0  # log-sum-exp so far: sum = scaled * exp(top)
    for counts in _count_vectors(n, k):
        sums = counts @ values
        hit = sums <= bound - slack
        for i in np.flatnonzero(np.abs(sums - bound) <= slack):
            hit[i] = sum(int(c) * v for c, v in zip(counts[i], exact_values)) <= exact_bound
        log_pmf = log_factorials[n] - log_factorials[counts[hit]].sum(axis=1) + counts[hit] @ log_probs
        if log_pmf.size:
            block_top = float(log_pmf.max())
            new_top = max(top, block_top)
            scaled = scaled * math.exp(top - new_top) + float(np.exp(log_pmf - new_top).sum())
            top = new_top
    return 0.0 if scaled == 0.0 else math.exp(top + math.log(scaled))


def _count_vectors(n: int, k: int, head: tuple = ()):
    """Yield blocks whose rows are ``head`` followed by a vector of ``k``
    non-negative integers summing to ``n``; every such vector comes once.

    Rows are grouped by their first count: consecutive first counts share a
    block while it holds at most ``_COUNT_BLOCK`` rows, and a first count
    whose vectors alone exceed that is split again on the next count.
    """
    if k == 1:
        yield np.array([[*head, n]])
        return

    def after(first):  # vectors whose first count is ``first`` or more
        return math.comb(n - first + k - 1, k - 1)

    start = 0
    while start <= n:
        if after(start) - after(start + 1) > _COUNT_BLOCK:
            yield from _count_vectors(n - start, k - 1, (*head, start))
            start += 1
            continue
        # the block runs up to the last stop with after(start) - after(stop) <= _COUNT_BLOCK
        fits = bisect.bisect_right(range(start, n + 2), _COUNT_BLOCK - after(start), key=lambda f: -after(f))
        stop = start + fits - 1
        firsts = np.arange(start, stop)
        yield _spread([np.full(len(firsts), h) for h in head] + [firsts], n - firsts, k - 1)
        start = stop


def _spread(columns: list, rest: np.ndarray, parts: int) -> np.ndarray:
    """Complete each row of ``columns`` in every way that splits its ``rest``
    into ``parts`` non-negative counts, by stars and bars one column at a
    time: a row with r left spreads into r + 1 rows whose next count runs
    over 0..r."""
    for _ in range(parts - 1):
        reps = rest + 1
        count = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        columns = [np.repeat(col, reps) for col in columns] + [count]
        rest = np.repeat(rest, reps) - count
    return np.column_stack([*columns, rest])


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _part_count(units: int) -> int:
    """How many parts share ``units`` units of draws: one per CPU the process
    may use, at most ``_MAX_PARTS``, and at least two units a part."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, _MAX_PARTS, units // 2))


def _split_stream(seed: int, n: int, samples: int, size: int, reduce) -> list:
    """``reduce(gen, first, count)`` of each unit of ``size`` samples of ``n``
    draws (the last unit may be shorter), in unit order. ``gen`` hands out
    the unit's draws of the Philox stream keyed by ``seed``, which start at
    draw ``first * n``.

    The units go to ``_part_count`` contiguous parts. Each part keys its own
    generator and moves it to its first draw: Philox is counter-based, so
    ``advance(k)`` skips ``4 * k`` doubles, and the rest are drawn and
    dropped. The calling thread runs part 0 and a new thread each other
    part; all are joined before the return, and one part runs without a
    thread. When a part raises, the others stop before their next unit and
    the first exception propagates once all have stopped. ``reduce`` may run
    outside the calling thread, so it calls no public function of ratefn:
    tracers that wrap those keep one span stack for the process.
    """
    units = -(-samples // size)
    parts = _part_count(units)
    cuts = [units * part // parts for part in range(parts + 1)]
    results = [None] * units
    errors = []

    def run(part: int) -> None:
        try:
            gen = _generator(seed)
            skip = cuts[part] * size * n
            gen.bit_generator.advance(skip // 4)
            gen.random(skip % 4)
            for unit in range(cuts[part], cuts[part + 1]):
                if errors:
                    return
                first = unit * size
                results[unit] = reduce(gen, first, min(size, samples - first))
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for part in range(1, parts):
            threads.append(threading.Thread(target=run, args=(part,)))
            threads[-1].start()
        run(0)
    except BaseException as exc:  # a thread that would not start, or an interrupt between parts
        errors.append(exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting
                errors.append(exc)
    if errors:
        raise errors[0]
    return results


def _atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the atom that inverse-CDF sampling picks for each uniform ``u``.

    ``cum`` holds the cumulative masses, non-decreasing. Atom ``j`` is picked
    when ``cum[j-1] <= u < cum[j]``, so a ``u`` equal to a cumulative boundary
    picks the upper atom, and a ``u`` at or past ``cum[-1]`` (when rounding
    leaves it below 1) picks the last atom. That is ``searchsorted(cum, u,
    side="right")`` clipped to ``k - 1``. Up to ``_COMPARE_ATOMS`` atoms the
    index is counted as the number of boundaries ``cum[:-1]`` at or below
    ``u``, which is the same integer and costs a few flat comparison passes
    instead of a branchy binary search per draw.
    """
    k = len(cum)
    if k > _COMPARE_ATOMS:
        idx = np.searchsorted(cum, u, side="right")
        return np.minimum(idx, k - 1, out=idx)
    if k == 1:
        return np.zeros(u.shape, dtype=np.uint8)
    idx = (u >= cum[0]).view(np.uint8)
    for c in cum[1:-1]:
        idx += u >= c
    return idx


def _law(dist: DiscreteLossDistribution, probs=None) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of ``dist`` and their cumulative masses, under ``probs`` when given."""
    return np.asarray(dist.values), np.cumsum(dist.probs if probs is None else probs)


def _draw_losses(law: tuple[np.ndarray, np.ndarray], gen: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF draws from ``law``, the atoms and cumulative masses of :func:`_law`.

    One uniform per draw picks an atom by ``_atom_index``: a uniform equal to a
    cumulative boundary picks the upper atom.
    """
    values, cum = law
    return np.take(values, _atom_index(cum, gen.random(shape)))


def _block_rows(n: int) -> int:
    """Samples of ``n`` draws in one block of about ``_BLOCK_DRAWS`` draws."""
    return max(1, _BLOCK_DRAWS // n)


def _loss_blocks(law, gen: np.random.Generator, samples: int, n: int):
    """Yield ``samples`` samples of ``n`` draws each as ``(rows, n)`` blocks of
    ``_block_rows(n)`` rows (the last may be shorter).

    The generator hands out draws in the same sequence however the requests
    are split, and each sample is one row, reduced alone, so a caller sees
    the rows of one ``(samples, n)`` draw without holding it in memory.
    """
    rows = _block_rows(n)
    for start in range(0, samples, rows):
        yield _draw_losses(law, gen, (min(rows, samples - start), n))


def sample_dataset(dist: DiscreteLossDistribution, n: int, seed: int) -> LossDataset:
    """Draw ``n`` i.i.d. losses by inverse CDF on a Philox stream keyed by ``seed``."""
    n = check_count(n, ValidationError, "n")
    seed = check_count(seed, ValidationError, "seed", minimum=0)
    losses = _draw_losses(_law(dist), _generator(seed), n)
    return LossDataset(losses, model_id=f"sampled-{seed}")


def expand_to_dataset(dist: DiscreteLossDistribution, denominator: int) -> LossDataset:
    """Expand rational probabilities into proportional exact sample counts.

    Copy ``j`` of atom ``i`` has the sample id ``v{i}c{j}``. The ids are packed
    into one string, as a loaded dataset's are, and no Python string is built
    per sample.
    """
    denominator = check_count(denominator, ValidationError, "denominator")
    counts = []
    for p in dist.probs:
        scaled = p * denominator
        count = round(scaled)
        if abs(scaled - count) > 1e-9 or count < 1:
            raise NonRationalProbs(
                f"probability {p!r} times denominator {denominator} is not a positive integer"
            )
        counts.append(int(count))
    return LossDataset(
        np.repeat(np.asarray(dist.values, dtype=np.float64), counts),
        model_id=f"expanded-{denominator}",
        sample_ids=_numbered_ids([f"v{i}c" for i in range(len(counts))], counts),
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

    The trials' draws are split over the CPUs the process may use (see
    ``_split_stream``); the report does not depend on how many there are.
    """
    a = check_real(a, InvalidA, "deviation a")
    gap = dist.mean - dist.min_value
    if a >= gap:
        raise InvalidA(f"deviation a must lie in (0, {gap!r}), got {a!r}")
    n = check_count(n, ValidationError, "n")
    trials = check_count(trials, ValidationError, "trials")
    seed = check_count(seed, ValidationError, "seed", minimum=0)
    if method == "tilted":
        return _tilted_tail(dist, n, a, trials, seed)
    if method != "plain":
        raise ValidationError(f"method must be 'plain' or 'tilted', got {method!r}")

    mean = dist.mean
    law = _law(dist)

    def hits_in(gen, first, count):
        losses = _draw_losses(law, gen, (count, n))
        return int(np.count_nonzero(mean - losses.mean(axis=1) >= a))

    hits = sum(_split_stream(seed, n, trials, _block_rows(n), hits_in))
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
    # Each window of _WEIGHT_WINDOW trials is summed as one array and the window
    # sums are added in window order: the grouping sets the rounding of r_sum
    # and r_sq, so it stays fixed for every seed.
    law = _law(dist, tilted)
    mean = dist.mean

    def window(gen, first, count):
        dev = mean - np.concatenate([losses.mean(axis=1) for losses in _loss_blocks(law, gen, count, n)])
        r = np.exp(-n * lam * (dev[dev >= a] - a))
        return r.size, float(r.sum()), float(r @ r)

    hits, r_sum, r_sq = 0, 0.0, 0.0
    for count, total, squares in _split_stream(seed, n, trials, _WEIGHT_WINDOW, window):
        hits += count
        r_sum += total
        r_sq += squares
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
    """Replicate the plug-in cumulant on fresh samples and compare to the exact value.

    The replicates' draws are split over the CPUs the process may use (see
    ``_split_stream``); the report does not depend on how many there are.
    """
    lam = check_real(lam, InvalidLambda, "tilt", "non-negative")
    replicates = check_count(replicates, ValidationError, "replicates", minimum=30)
    n = check_count(n, ValidationError, "n")
    seed = check_count(seed, ValidationError, "seed", minimum=0)

    estimates = np.empty(replicates)
    law = _law(dist)

    def estimate(gen, first, count):
        losses = _draw_losses(law, gen, (count, n))
        lo = losses.min(axis=1)
        means = losses.mean(axis=1)
        z = np.exp(-lam * (losses - lo[:, None]))
        j = lam * (means - lo) + np.log(z.sum(axis=1)) - math.log(n)
        estimates[first : first + count] = np.maximum(j, 0.0)

    _split_stream(seed, n, replicates, _block_rows(n), estimate)
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
    try:
        with input_file(path) as path:
            obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict) or "values" not in obj or "probs" not in obj:
        raise ParseError(f"{path}: expected an object with 'values' and 'probs'")
    for key in ("values", "probs"):
        if not isinstance(obj[key], list):
            raise ParseError(f"{path}: {key!r} must be an array, got {obj[key]!r}")
    return DiscreteLossDistribution(tuple(obj["values"]), tuple(obj["probs"]))
