"""Cumulant estimator: exact values, structural properties, and the oracle match."""

import copy
import importlib
import math
import pickle
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ratefn import (
    DiscreteLossDistribution,
    InternalConsistencyError,
    InvalidLambda,
    LambdaGrid,
    ValidationError,
    compare_smoothness,
    cumulant_curve,
    cumulant_derivative,
    estimate_cumulant,
    exact_cumulant,
    expand_to_dataset,
    from_losses,
    grid_inverse_rate,
    inverse_rate,
    rate,
    rate_curve,
    reduce_augmented,
    summarize,
)
from conftest import random_dataset, random_distribution
from ratefn.cumulant import EXP_CUTOFF, MAX_GRID_SIZE, NEG_TOL, _exp_in_place, _row_dots
from ratefn.loss_data import DatasetSummary

LN2 = math.log(2.0)
cumulant_module = importlib.import_module("ratefn.cumulant")


class TestGrid:
    def test_default_grid(self):
        grid = LambdaGrid.default()
        assert len(grid) == 64
        assert grid.values[0] == pytest.approx(1e-3)
        assert grid.values[-1] == pytest.approx(1e3)
        assert grid.spacing == "log"

    def test_default_grid_is_built_once(self):
        grid = LambdaGrid.default()
        assert LambdaGrid.default() is grid
        assert grid.values == tuple(np.geomspace(1e-3, 1e3, 64))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValidationError):
            LambdaGrid(())
        with pytest.raises(ValidationError):
            LambdaGrid((0.0, 1.0))
        with pytest.raises(ValidationError):
            LambdaGrid((1.0, 1.0))
        with pytest.raises(ValidationError):
            LambdaGrid((1.0, 2.0), spacing="cubic")

    @pytest.mark.parametrize("count", [MAX_GRID_SIZE + 1, 10**20])
    def test_rejects_oversized_counts(self, count):
        # numpy would raise its own ValueError (or try to allocate) before the cap.
        for factory in (LambdaGrid.linear, LambdaGrid.log_spaced):
            with pytest.raises(ValidationError, match=f"at most {MAX_GRID_SIZE}"):
                factory(1.0, 2.0, count)


class TestPointValues:
    def test_zero_tilt_is_exactly_zero(self, two_point_ds):
        assert estimate_cumulant(two_point_ds, 0.0) == 0.0

    def test_constant_losses(self, constant_ds):
        assert estimate_cumulant(constant_ds, 3.0) == 0.0

    def test_two_point_closed_form(self, two_point_ds):
        # log((exp(mean) + exp(mean - ln 2)) / 2) with mean = ln2 / 2
        mean = LN2 / 2
        expected = math.log((math.exp(mean) + math.exp(mean - LN2)) / 2)
        np.testing.assert_allclose(estimate_cumulant(two_point_ds, 1.0), expected, atol=1e-12)
        assert abs(expected - 0.058891) < 1e-6

    def test_invalid_tilts(self, two_point_ds):
        for bad in (-1.0, float("nan"), float("inf"), "x"):
            with pytest.raises(InvalidLambda):
                estimate_cumulant(two_point_ds, bad)

    def test_huge_tilt_does_not_overflow(self, two_point_ds):
        value = estimate_cumulant(two_point_ds, 1e9)
        assert math.isfinite(value)


class TestDerivative:
    def test_zero_tilt(self, two_point_ds):
        assert cumulant_derivative(two_point_ds, 0.0) == 0.0

    def test_constant_dataset(self, constant_ds):
        assert cumulant_derivative(constant_ds, 4.2) == 0.0

    def test_large_tilt_approaches_gap(self, two_point_ds):
        # the tilted mean collapses onto the minimum-loss sample
        np.testing.assert_allclose(cumulant_derivative(two_point_ds, 500.0), LN2 / 2, atol=1e-12)

    def test_bounds_hold_on_random_data(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ds = random_dataset(rng)
            s = summarize(ds)
            for lam in (1e-3, 0.3, 2.0, 50.0, 1e4):
                d = cumulant_derivative(ds, lam)
                assert 0.0 <= d <= s.empirical_loss - s.min_loss


class TestCurve:
    def test_linear_grid_convexity_and_monotonicity(self, two_point_ds):
        curve = cumulant_curve(two_point_ds, LambdaGrid.linear(0.5, 1.5, 3))
        j = curve.j_values
        assert j[0] <= j[1] <= j[2]
        assert j[1] <= (j[0] + j[2]) / 2 + 1e-12

    def test_constant_dataset_all_zero(self, constant_ds):
        curve = cumulant_curve(constant_ds)
        assert all(v == 0.0 for v in curve.j_values)
        assert all(v == 0.0 for v in curve.j_derivs)

    def test_log_grid_monotone(self, two_point_ds):
        curve = cumulant_curve(two_point_ds, LambdaGrid.default())
        assert all(b >= a for a, b in zip(curve.j_values, curve.j_values[1:]))

    def test_j_below_lambda_times_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = random_dataset(rng)
            mean = summarize(ds).empirical_loss
            curve = cumulant_curve(ds)
            for lam, j in zip(curve.grid.values, curve.j_values):
                assert j <= lam * mean * (1 + 1e-12) + 1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, size=40)
        grid = LambdaGrid.linear(0.1, 2.0, 96)
        curve = cumulant_curve(ds, grid)
        h = grid.values[1] - grid.values[0]
        for i in range(1, len(grid) - 1):
            fd = (curve.j_values[i + 1] - curve.j_values[i - 1]) / (2 * h)
            tol = max(1e-6, 1e-3 * abs(curve.j_derivs[i]))
            assert abs(curve.j_derivs[i] - fd) <= tol


def _two_pass_cumulant(losses, lam, mean, lo):
    """Reference: the cumulant from an exp pass of its own."""
    if lam == 0.0:
        return 0.0
    z = np.exp(-lam * (losses - lo))
    value = lam * (mean - lo) + math.log(float(z.sum())) - math.log(losses.size)
    if value < 0.0:
        if value <= -NEG_TOL:
            raise InternalConsistencyError(f"cumulant came out {value!r} < -{NEG_TOL}")
        value = 0.0
    return value


def _two_pass_derivative(losses, lam, mean, lo):
    """Reference: the derivative from an exp pass of its own."""
    if lam == 0.0:
        return 0.0
    w = np.exp(-lam * (losses - lo))
    tilted = float(w @ losses) / float(w.sum())
    return min(max(mean - tilted, 0.0), mean - lo)


class TestOnePassKernel:
    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e6, 1e100])
    def test_bitwise_equal_to_two_passes(self, scale):
        rng = np.random.default_rng(23)
        base = np.concatenate([[0.0, 0.0], rng.exponential(size=997), [30.0]])
        losses = rng.permutation(base) * scale
        ds = from_losses(losses)
        s = summarize(ds)
        tilts = [0.0, *(t / scale for t in np.geomspace(1e-4, 1e5, 104).tolist())]
        for lam in tilts:
            expected = (
                _two_pass_cumulant(losses, lam, s.empirical_loss, s.min_loss),
                _two_pass_derivative(losses, lam, s.empirical_loss, s.min_loss),
            )
            got = estimate_cumulant(ds, lam), cumulant_derivative(ds, lam)
            assert list(map(repr, got)) == list(map(repr, expected)), (scale, lam)

    def test_consistency_check_is_kept(self):
        # A mean passed below its true value makes the cumulant negative beyond round-off.
        losses = np.array([0.0, 1.0])
        with pytest.raises(InternalConsistencyError):
            _two_pass_cumulant(losses, 1.0, 0.1, 0.0)
        # The same mean planted in a dataset's cached summary reaches the check
        # through the public entry points.
        ds = from_losses(losses)
        object.__setattr__(ds, "_summary", DatasetSummary(2, 0.1, 0.0, 1, 0.25))
        for entry in (estimate_cumulant, cumulant_derivative):
            with pytest.raises(InternalConsistencyError):
                entry(ds, 1.0)
        with pytest.raises(InternalConsistencyError):
            cumulant_curve(ds, LambdaGrid((1.0,)))

    def test_curve_uses_the_kernel(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, size=50)
        s = summarize(ds)
        curve = cumulant_curve(ds)
        for lam, j, dj in zip(curve.grid.values, curve.j_values, curve.j_derivs):
            assert (j, dj) == (_two_pass_cumulant(ds.losses, lam, s.empirical_loss, s.min_loss),
                               _two_pass_derivative(ds.losses, lam, s.empirical_loss, s.min_loss))
            assert estimate_cumulant(ds, lam) == j
            assert cumulant_derivative(ds, lam) == dj


def _per_tilt(losses, lams):
    """Reference: unmasked exp passes of their own per tilt, as reprs."""
    ds = from_losses(losses)
    s = summarize(ds)
    return [repr((_two_pass_cumulant(ds.losses, lam, s.empirical_loss, s.min_loss),
                  _two_pass_derivative(ds.losses, lam, s.empirical_loss, s.min_loss))) for lam in lams]


def _curve_reprs(losses, lams):
    curve = cumulant_curve(from_losses(losses), LambdaGrid(tuple(lams)))
    return [repr(pair) for pair in zip(curve.j_values, curve.j_derivs)]


class TestGridKernel:
    """The blocked, underflow-masked grid pass gives exactly the per-tilt values."""

    def test_exp_is_zero_at_and_below_the_cutoff(self):
        for x in (EXP_CUTOFF, np.nextafter(EXP_CUTOFF, -np.inf), -746.0, -1e308, -np.inf):
            assert repr(float(np.exp(np.float64(x)))) == "0.0", x
            assert repr(float(np.exp(np.full(3, x))[1])) == "0.0", x

    def test_masked_exp_equals_exp_lane_by_lane(self):
        # exp(-745.1) is the smallest subnormal, 5e-324, so the mask must not reach it.
        z = -np.array([0.0, 1.0, 708.5, 745.0, 745.1, 745.13, 745.14, np.nextafter(745.2, 0.0), 745.2, 746.0,
                       1e308, np.inf])
        expected = np.exp(z)
        assert expected[4] == 5e-324
        for largest in (np.inf, 746.0):
            got = z.copy()
            _exp_in_place(got, largest)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 1023, 65535, 65536, 65537, 100003])
    def test_sizes_match_per_tilt_passes(self, size):
        # 128 tilts up to 1e5: with 1023 losses the first block of 64 tilts
        # stays below the cutoff and the second is masked.
        rng = np.random.default_rng(size)
        losses = rng.exponential(size=size)
        lams = np.geomspace(1e-3, 1e5, 128).tolist()
        assert _curve_reprs(losses, lams) == _per_tilt(losses, lams)

    def test_subnormal_and_cutoff_lanes(self):
        # At lam = 1 the exponents are minus the losses: subnormal results in
        # (-745.13, -708.4], lanes on either side of the cutoff, and lanes
        # far below it; the other tilts put the same lanes elsewhere.
        losses = [0.0, 1.0, 708.4, 708.5, 720.0, 740.0, 745.0, 745.13, np.nextafter(745.2, 0.0), 745.2,
                  np.nextafter(745.2, np.inf), 746.0, 800.0, 1e4]
        lams = [0.5, 0.9, 1.0, 1.0000001, 2.0, 1e3]
        assert _curve_reprs(losses, lams) == _per_tilt(losses, lams)
        assert _curve_reprs(losses[:9], lams) == _per_tilt(losses[:9], lams)

    @pytest.mark.parametrize("shape", [(1, 100_000), (3, 20_000), (64, 64), (8, 8192), (7, 33)])
    def test_stacked_row_dots_equal_each_rows_dot(self, shape):
        rng = np.random.default_rng(shape[1])
        z = np.exp(-rng.exponential(size=shape) * rng.uniform(0.0, 50.0, size=(shape[0], 1)))
        x = rng.exponential(size=shape[1])
        assert _row_dots(z, x) == [float(row @ x) for row in z]
        assert _row_dots(z[0], x) == [float(z[0] @ x)]

    def test_overflowing_exponents_do_not_turn_into_nan(self):
        # lam*(x - min) overflows to inf for the two large losses.
        losses = [0.0, 5e307, 1e308]
        with np.errstate(over="ignore"):
            curve = cumulant_curve(from_losses(losses), LambdaGrid((1e3,)))
            assert _curve_reprs(losses, [1e3]) == _per_tilt(losses, [1e3])
        assert curve.j_values == (math.inf,)
        assert curve.j_derivs == (5e307,)


def _kernel_values(sets):
    """Curves, lone-tilt passes and solves on copies of ``sets``, as float hex strings."""
    values = []
    for ds in sets:
        fresh = copy.copy(ds)  # holds no curve, so the grid pass is made here
        s = summarize(fresh)
        gap = s.empirical_loss - s.min_loss
        curve = cumulant_curve(fresh)
        values += curve.j_values + curve.j_derivs
        values += [estimate_cumulant(fresh, lam) for lam in (1e-3, 1.0, 1e3)]
        values += [cumulant_derivative(fresh, 1.0)]
        for ev in (rate(fresh, 0.5 * gap), inverse_rate(fresh, 0.1), *rate_curve(fresh, (0.2 * gap, 0.9 * gap))):
            values += [ev.value, ev.lambda_star]
    return [float(v).hex() for v in values]


def _in_a_new_thread(function):
    result = []
    thread = threading.Thread(target=lambda: result.append(function()))
    thread.start()
    thread.join()
    return result[0]


class TestHeldExponentRow:
    """Each thread reuses one exponent buffer; what a larger pass left in it
    never reaches a value."""

    def test_a_dirty_row_gives_the_bits_of_a_new_one(self):
        rng = np.random.default_rng(30)
        large = from_losses(rng.exponential(size=200_000))
        # 1e5 losses take one row per tilt; 1000 losses take blocks of 64 rows.
        sets = [from_losses(rng.lognormal(0.0, 1.5, size=100_000)), from_losses(rng.exponential(size=1000))]

        def dirty():
            cumulant_curve(large)
            estimate_cumulant(large, 2.0)
            assert cumulant_module._held.row.size == 200_000
            return _kernel_values(sets)

        def clean():
            assert getattr(cumulant_module._held, "row", None) is None
            return _kernel_values(sets)

        assert _in_a_new_thread(dirty) == _in_a_new_thread(clean)

    def test_the_row_grows_only(self):
        def sizes():
            grown = []
            for size in (10, 100_000, 50, 70_000, 120_000):
                estimate_cumulant(from_losses(np.arange(float(size))), 1.0)
                grown.append(cumulant_module._held.row.size)
            cumulant_curve(from_losses(np.arange(10.0)))  # 64 tilts in one block of 640 exponents
            return grown + [cumulant_module._held.row.size]

        assert _in_a_new_thread(sizes) == [10, 100_000, 100_000, 100_000, 120_000, 120_000]


def _fraction_derivative(losses, lam):
    """The mean less the tilted mean, in exact arithmetic on the float weights."""
    lo = min(losses)
    weights = [Fraction(math.exp(-lam * (v - lo))) for v in losses]
    tilted = sum(w * Fraction(v) for w, v in zip(weights, losses)) / sum(weights)
    return sum(map(Fraction, losses)) / len(losses) - tilted


class TestTiltedMeanPastTheRange:
    """A tilted weighted sum past the float64 range is taken on scaled losses,
    so J' stays in [0, mean - min] and numpy warns of no overflow."""

    @pytest.mark.parametrize("losses", [[1e308, 1e308, 1.5e308], [1.5e308, 1.5e308], [0.0, 1.5e308, 1.5e308]])
    def test_derivative_against_fractions(self, losses):
        ds = from_losses(losses)
        lams = (1e-310, 2e-308, 1e-307, 1e-3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = cumulant_curve(ds, LambdaGrid(lams))
            lone = [cumulant_derivative(ds, lam) for lam in lams]
        assert list(curve.j_derivs) == lone
        for lam, derivative in zip(lams, lone):
            assert derivative == pytest.approx(float(_fraction_derivative(losses, lam)), rel=1e-12, abs=0.0), lam

    def test_the_kernel_example(self):
        # At lam = 1e-3 the 1.5e308 lane has weight 0, so J' is the mean less the minimum.
        ds = from_losses([1e308, 1e308, 1.5e308])
        assert cumulant_derivative(ds, 1e-3) == pytest.approx(1e308 / 6, rel=1e-12)

    def test_cumulant_keeps_its_bits(self):
        # J is formed from the unscaled weights, so scaling its tilted mean leaves it as it was.
        ds = from_losses([1e308, 1e308, 1.5e308])
        s, lams = summarize(ds), (1e-310, 2e-308, 1e-3)
        expected = [_two_pass_cumulant(ds.losses, lam, s.empirical_loss, s.min_loss) for lam in lams]
        assert cumulant_curve(ds, LambdaGrid(lams)).j_values == tuple(expected)


@pytest.fixture
def grid_passes(monkeypatch):
    """The tilt counts of every kernel call that ``cumulant`` makes; the rate
    solvers call the kernel from ``rate`` and are not counted."""
    passes = []
    kernel = cumulant_module.tilted_moments

    def counted(x, lams, *args, **kwargs):
        passes.append(len(lams))
        return kernel(x, lams, *args, **kwargs)

    monkeypatch.setattr(cumulant_module, "tilted_moments", counted)
    return passes


class TestHeldCurve:
    """A dataset holds its last grid curve, so a repeated grid pass on the
    same dataset and grid is a read."""

    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(31)
        return random_dataset(rng, size=60, model_id="A"), random_dataset(rng, size=60, model_id="B")

    def test_a_repeated_call_makes_no_pass(self, pair, grid_passes):
        ds_a, ds_b = pair
        grid = LambdaGrid.log_spaced(1e-2, 1e2, 16)
        first = [cumulant_curve(ds_a, grid), grid_inverse_rate(ds_a, 0.1, grid),
                 compare_smoothness(ds_a, ds_b, grid)]
        assert grid_passes == [16, 16]  # ds_a's curve, then ds_b's in compare_smoothness
        grid_passes.clear()
        again = [cumulant_curve(ds_a, grid), grid_inverse_rate(ds_a, 0.1, grid),
                 compare_smoothness(ds_a, ds_b, grid)]
        assert grid_passes == []
        assert again[0] is first[0]
        assert again[1:] == first[1:]

    def test_the_default_grid_is_held_too(self, pair, grid_passes):
        ds = pair[0]
        curve = cumulant_curve(ds)
        assert cumulant_curve(ds, LambdaGrid.default()) is curve
        assert grid_inverse_rate(ds, 0.1, LambdaGrid.default()).lambda_star in curve.grid.values
        assert grid_passes == [64]

    def test_another_grid_recomputes_and_replaces(self, pair, grid_passes):
        ds = pair[0]
        log_grid = LambdaGrid((0.5, 1.0, 1.5))
        linear_grid = LambdaGrid((0.5, 1.0, 1.5), spacing="linear")
        first = cumulant_curve(ds, log_grid)
        other = cumulant_curve(ds, LambdaGrid((0.5, 1.0)))
        same_values = cumulant_curve(ds, linear_grid)
        assert grid_passes == [3, 2, 3]
        assert same_values.grid is linear_grid and same_values is not first
        assert same_values.j_values == first.j_values and other.j_values == first.j_values[:2]
        assert ds._curve is same_values
        # Only the last grid is held: the first one now makes a pass again.
        assert cumulant_curve(ds, log_grid) is not first
        assert grid_passes == [3, 2, 3, 3]

    def test_copies_and_pickles_start_empty(self, pair, grid_passes):
        ds = pair[0]
        curve = cumulant_curve(ds)
        for clone in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
            assert clone._curve is None
            assert clone == ds and hash(clone) == hash(ds)
            assert cumulant_curve(clone) is not curve
        assert grid_passes == [64] * 4

    def test_a_hit_has_the_bits_of_a_fresh_pass(self):
        rng = np.random.default_rng(37)
        losses = rng.lognormal(0.0, 1.5, size=5000)
        ds = from_losses(losses)
        curve = cumulant_curve(ds)
        fresh = cumulant_curve(from_losses(losses.copy()))
        held = cumulant_curve(ds, LambdaGrid.log_spaced(1e-3, 1e3, 64))
        assert held is curve
        assert np.array(held.j_values).tobytes() == np.array(fresh.j_values).tobytes()
        assert np.array(held.j_derivs).tobytes() == np.array(fresh.j_derivs).tobytes()
        assert held.summary == fresh.summary


class TestAgainstOracle:
    def test_expanded_distribution_matches_exactly(self):
        rng = np.random.default_rng(17)
        grid = LambdaGrid.default()
        for _ in range(5):
            dist, denom = random_distribution(rng)
            ds = expand_to_dataset(dist, denom)
            for lam in grid.values:
                np.testing.assert_allclose(
                    estimate_cumulant(ds, lam), exact_cumulant(dist, lam), atol=1e-9, rtol=0
                )

    def test_jensen_bound_under_grouping(self):
        # averaging within equal-size groups can only lower the cumulant
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(2, 7)) * 2
            losses = rng.uniform(0, 2, size=m)
            groups = [f"g{i // 2}" for i in range(m)]
            flat = from_losses(losses)
            grouped = from_losses(losses, group_ids=groups)
            reduced = reduce_augmented(grouped)
            for lam in (0.05, 0.7, 3.0, 40.0):
                assert estimate_cumulant(reduced, lam) <= estimate_cumulant(flat, lam) + 1e-12

    def test_downward_bias_of_the_estimator(self, bernoulli_dist):
        # sample means of the estimate should not exceed the exact value
        # by more than sampling noise
        rng = np.random.default_rng(31)
        lam = 2.0
        exact = exact_cumulant(bernoulli_dist, lam)
        estimates = []
        for _ in range(400):
            losses = rng.choice([0.0, 1.0], size=40)
            if losses.min() == losses.max():
                continue
            estimates.append(estimate_cumulant(from_losses(losses), lam))
        mean = np.mean(estimates)
        stderr = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        assert mean <= exact + 3 * stderr
