"""Rate and inverse-rate solvers: identities, saturation, and oracle checks."""

import copy
import gc
import importlib
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratefn import (
    DiscreteLossDistribution,
    InvalidA,
    InvalidS,
    LambdaGrid,
    ModelMeta,
    SolverFailure,
    compare_smoothness,
    cumulant_curve,
    cumulant_derivative,
    estimate_cumulant,
    exact_cumulant,
    expand_to_dataset,
    from_losses,
    grid_inverse_rate,
    interpolator_ordering,
    inverse_rate,
    load_dataset,
    rate,
    rate_curve,
    summarize,
)
from ratefn.cumulant import EXP_CUTOFF
from ratefn.rate import DEFAULT_TOL, RateSolver
from conftest import binary_kl, random_dataset, random_distribution

# The package attribute ``ratefn.rate`` is the function; this is the module.
rate_module = importlib.import_module("ratefn.rate")
cumulant_module = importlib.import_module("ratefn.cumulant")

LN2 = math.log(2.0)
DATA = Path(__file__).parent / "data"


class TestRate:
    def test_bernoulli_matches_binary_kl(self, bernoulli_ds):
        for a in (0.05, 0.1, 0.2, 0.3):
            ev = rate(bernoulli_ds, a)
            assert not ev.saturated
            np.testing.assert_allclose(ev.value, binary_kl(0.5 - a), atol=1e-6, rtol=0)

    def test_constant_dataset_saturates(self, constant_ds):
        ev = rate(constant_ds, 0.3)
        assert ev.saturated
        assert math.isinf(ev.value)
        assert math.isinf(ev.lambda_star)

    def test_boundary_deviation_saturates(self, two_point_ds):
        ev = rate(two_point_ds, LN2 / 2)
        assert ev.saturated

    def test_beyond_boundary_saturates(self, two_point_ds):
        assert rate(two_point_ds, 10.0).saturated

    def test_saturates_is_the_rule_rate_applies(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            ds = random_dataset(rng)
            solver = RateSolver(ds)
            for tol in (DEFAULT_TOL, 1e-3):
                for fraction in (0.5, 1 - 2 * tol, 1 - tol, 1 - tol / 2, 1.0, 1.5):
                    a = fraction * solver.gap
                    assert solver.saturates(a, tol) == solver.rate(a, tol).saturated

    def test_invalid_deviations(self, two_point_ds):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidA):
                rate(two_point_ds, bad)

    def test_stationarity_of_optimizer(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ds = random_dataset(rng)
            s = summarize(ds)
            a = 0.4 * (s.empirical_loss - s.min_loss)
            ev = rate(ds, a)
            assert not ev.saturated
            np.testing.assert_allclose(cumulant_derivative(ds, ev.lambda_star), a, atol=1e-8)
            np.testing.assert_allclose(
                ev.value, ev.lambda_star * a - estimate_cumulant(ds, ev.lambda_star), atol=1e-12
            )

    def test_solver_failure_when_bracket_exceeds_cap(self):
        # two nearly tied minima force the bracket past the tilt cap when the
        # saturation guard is disabled by a tiny tolerance
        ds = from_losses([0.0, 1e-9, 2.0])
        gap = summarize(ds).empirical_loss
        with pytest.raises(SolverFailure):
            rate(ds, gap - 1e-12, tol=1e-16)


class TestInverseRate:
    def test_constant_dataset_is_zero(self, constant_ds):
        ev = inverse_rate(constant_ds, 0.3)
        assert ev.value == 0.0
        assert ev.saturated
        assert ev.b_max == 0.0

    def test_two_point_budget(self, two_point_ds):
        ev = inverse_rate(two_point_ds, 0.05)
        assert not ev.saturated
        assert ev.value <= LN2 / 2
        back = rate(two_point_ds, ev.value)
        np.testing.assert_allclose(back.value, 0.05, atol=1e-6)

    def test_bernoulli_saturation_at_ln2(self, bernoulli_ds):
        for s in (LN2, 0.75, 5.0):
            ev = inverse_rate(bernoulli_ds, s)
            assert ev.saturated
            assert ev.value == 0.5
            np.testing.assert_allclose(ev.b_max, LN2, rtol=1e-15)

    def test_stationarity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ds = random_dataset(rng)
            ev = inverse_rate(ds, 0.08)
            if ev.saturated:
                continue
            lam = ev.lambda_star
            residual = lam * cumulant_derivative(ds, lam) - estimate_cumulant(ds, lam)
            np.testing.assert_allclose(residual, 0.08, atol=1e-8)

    def test_stationarity_at_a_large_tilt(self):
        # Two minima 1e-7 apart: the budget is reached only past a tilt of 1e7,
        # where lam*J' and J each exceed 1e7 and their difference must not cancel.
        losses = np.array([0.0, 1e-7, *np.linspace(1.0, 2.0, 50)])
        s = 0.99 * math.log(losses.size)
        lam = inverse_rate(from_losses(losses), s).lambda_star
        assert lam > 1e7
        z = np.exp(-lam * losses)
        bregman = math.log(losses.size) - math.log(z.sum()) - lam * float(z @ losses) / z.sum()
        assert abs(bregman - s) <= 1e-10

    def test_invalid_budgets(self, two_point_ds):
        for bad in (0.0, -0.1, float("nan")):
            with pytest.raises(InvalidS):
                inverse_rate(two_point_ds, bad)

    def test_value_never_exceeds_mean(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ds = random_dataset(rng)
            mean = summarize(ds).empirical_loss
            for s in (1e-4, 0.05, 0.5, 3.0, 50.0):
                assert inverse_rate(ds, s).value <= mean


class TestLegendreRoundTrip:
    def test_round_trip_on_random_datasets(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ds = random_dataset(rng, size=30)
            b_max = inverse_rate(ds, 1e-3).b_max
            for s in np.geomspace(1e-3, 0.9 * b_max, 8):
                ev = inverse_rate(ds, float(s))
                assert not ev.saturated
                back = rate(ds, ev.value)
                assert abs(back.value - s) <= 1e-6 * max(1.0, s)


class TestShapeProperties:
    def test_monotone_in_a_and_s(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, size=50)
        s = summarize(ds)
        gap = s.empirical_loss - s.min_loss
        a_grid = np.linspace(0.05 * gap, 0.8 * gap, 9)
        values = [rate(ds, float(a)).value for a in a_grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

        b_max = inverse_rate(ds, 1e-3).b_max
        s_grid = np.linspace(0.05 * b_max, 0.8 * b_max, 9)
        ivalues = [inverse_rate(ds, float(x)).value for x in s_grid]
        assert all(b >= a - 1e-12 for a, b in zip(ivalues, ivalues[1:]))

    def test_rate_convex_inverse_concave(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, size=50)
        s = summarize(ds)
        gap = s.empirical_loss - s.min_loss
        a_grid = np.linspace(0.05 * gap, 0.8 * gap, 11)
        values = [rate(ds, float(a)).value for a in a_grid]
        for i in range(1, len(values) - 1):
            assert values[i] <= (values[i - 1] + values[i + 1]) / 2 + 1e-10

        b_max = inverse_rate(ds, 1e-3).b_max
        s_grid = np.linspace(0.05 * b_max, 0.8 * b_max, 11)
        ivalues = [inverse_rate(ds, float(x)).value for x in s_grid]
        for i in range(1, len(ivalues) - 1):
            assert ivalues[i] >= (ivalues[i - 1] + ivalues[i + 1]) / 2 - 1e-10

    def test_vanishing_at_origin(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            ds = random_dataset(rng)  # losses in [0, 1], variance <= 1/4
            ev_rate = rate(ds, 1e-8)
            if not ev_rate.saturated:
                assert ev_rate.value <= 1e-4
            assert inverse_rate(ds, 1e-8).value <= 1e-4


class TestGridInverseRate:
    def test_singleton_grid_closed_form(self, two_point_ds):
        lam0 = 0.8
        s = 0.04
        ev = grid_inverse_rate(two_point_ds, s, LambdaGrid((lam0,), spacing="linear"))
        expected = (estimate_cumulant(two_point_ds, lam0) + s) / lam0
        assert ev.value == expected
        assert ev.lambda_star == lam0
        assert not ev.saturated

    def test_grid_containing_optimum_matches_solver(self, two_point_ds):
        s = 0.05
        exact = inverse_rate(two_point_ds, s)
        grid = LambdaGrid(tuple(sorted({0.5, exact.lambda_star, 2.0})), spacing="linear")
        approx = grid_inverse_rate(two_point_ds, s, grid)
        np.testing.assert_allclose(approx.value, exact.value, atol=1e-9)

    def test_restricted_dominates_unrestricted(self):
        rng = np.random.default_rng(16)
        grid = LambdaGrid.default()
        for _ in range(20):
            ds = random_dataset(rng)
            for s in (0.01, 0.1, 0.6):
                assert grid_inverse_rate(ds, s, grid).value >= inverse_rate(ds, s).value - 1e-12

    def test_invalid_budget(self, two_point_ds):
        with pytest.raises(InvalidS):
            grid_inverse_rate(two_point_ds, -1.0, LambdaGrid.default())


def _unmasked_cumulant(losses, lam, mean, lo):
    """Reference: the cumulant from a plain exp pass of its own."""
    z = np.exp(-lam * (losses - lo))
    return max(lam * (mean - lo) + math.log(float(z.sum())) - math.log(losses.size), 0.0)


def _unmasked_moments(d, mu):
    """Reference: the solver's log-sum, tilted mean and variance from a plain exp pass."""
    z = np.exp(d * -mu)
    total = float(z.sum())
    tilted = float(z @ d) / total
    z *= d
    return math.log(total), tilted, max(float(z @ d) / total - tilted * tilted, 0.0)


def _per_tilt_grid_inverse(ds, s, lams):
    """Reference: the grid minimum from one unmasked exp pass per tilt."""
    summary = summarize(ds)
    candidates = [(_unmasked_cumulant(ds.losses, lam, summary.empirical_loss, summary.min_loss) + s) / lam
                  for lam in lams]
    best = int(np.argmin(candidates))
    return repr(candidates[best]), lams[best]


# Losses whose exponents at lam = 1 give subnormal results, sit on either
# side of the underflow cutoff, or lie far below it.
_UNDERFLOW_LOSSES = [0.0, 1.0, 708.4, 708.5, 720.0, 740.0, 745.0, 745.13, np.nextafter(745.2, 0.0), 745.2,
                     np.nextafter(745.2, np.inf), 746.0, 800.0, 1e4]


class TestMaskedKernelExactness:
    """The grid kernel and the solver's pass skip exp on underflowing lanes
    without changing a bit of what they return."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 1023, 65535, 65536, 65537, 100003])
    def test_grid_inverse_rate_sizes(self, size):
        ds = from_losses(np.random.default_rng(size).exponential(size=size))
        lams = tuple(np.geomspace(1e-3, 1e5, 128).tolist())
        for s in (1e-3, 0.1, 3.0):
            ev = grid_inverse_rate(ds, s, LambdaGrid(lams))
            assert (repr(ev.value), ev.lambda_star) == _per_tilt_grid_inverse(ds, s, lams)

    def test_grid_inverse_rate_underflow_lanes(self):
        lams = (0.5, 0.9, 1.0, 1.0000001, 2.0, 1e3)
        for losses in (_UNDERFLOW_LOSSES, _UNDERFLOW_LOSSES[:9]):
            ds = from_losses(losses)
            for s in (1e-3, 0.5, 2.5):
                ev = grid_inverse_rate(ds, s, LambdaGrid(lams))
                assert (repr(ev.value), ev.lambda_star) == _per_tilt_grid_inverse(ds, s, lams)

    def test_grid_inverse_rate_overflowing_exponents(self):
        ds = from_losses([0.0, 5e307, 1e308])
        with np.errstate(over="ignore"):
            ev = grid_inverse_rate(ds, 0.1, LambdaGrid((1e3,)))
            assert (repr(ev.value), ev.lambda_star) == _per_tilt_grid_inverse(ds, 0.1, (1e3,))
        assert ev.value == math.inf

    @pytest.mark.parametrize("losses", [
        np.random.default_rng(41).exponential(size=1000),
        np.random.default_rng(43).lognormal(0.0, 1.5, size=5000),
        _UNDERFLOW_LOSSES,
    ], ids=["exponential", "lognormal", "underflow"])
    def test_solver_terms_match_an_unmasked_pass(self, losses):
        solver = RateSolver(from_losses(losses))
        mus = np.geomspace(1e-2, 1e5, 60).tolist()
        assert any(mu * solver.top > -EXP_CUTOFF for mu in mus) and any(mu * solver.top < 1.0 for mu in mus)
        for mu in mus:
            log_total, tilted, variance = _unmasked_moments(solver.d, mu)
            assert repr(solver.terms(mu)) == repr((log_total - solver.log_count, tilted, variance)), mu


class TestRateCurve:
    def test_constant_dataset_all_saturated(self, constant_ds):
        evals = rate_curve(constant_ds, [0.1, 0.2, 0.3])
        assert all(ev.saturated for ev in evals)

    def test_bernoulli_increasing_kl(self, bernoulli_ds):
        evals = rate_curve(bernoulli_ds, [0.1, 0.2, 0.3])
        values = [ev.value for ev in evals]
        assert values == sorted(values)
        np.testing.assert_allclose(values, [binary_kl(0.4), binary_kl(0.3), binary_kl(0.2)], atol=1e-6)

    def test_saturation_flips_exactly_once(self, two_point_ds):
        gap = LN2 / 2
        evals = rate_curve(two_point_ds, list(np.linspace(0.1 * gap, 1.5 * gap, 15)))
        flags = [ev.saturated for ev in evals]
        assert flags == sorted(flags)  # False... then True...
        assert flags[0] is False and flags[-1] is True

    def test_requires_increasing_a(self, bernoulli_ds):
        with pytest.raises(InvalidA):
            rate_curve(bernoulli_ds, [0.2, 0.1])


class TestAgainstBruteForce:
    def test_rate_matches_dense_grid_maximization(self):
        # independent check: maximize lam*a - J_exact(lam) on 1e5 log-spaced tilts
        rng = np.random.default_rng(18)
        for _ in range(3):
            dist, denom = random_distribution(rng, max_atoms=5)
            ds = expand_to_dataset(dist, denom)
            gap = dist.mean - dist.min_value
            lams = np.geomspace(1e-6, 1e6, 100_000)
            values = np.asarray(dist.values)
            probs = np.asarray(dist.probs)
            j = lams * (dist.mean - dist.min_value) + np.log(
                np.exp(-np.outer(lams, values - dist.min_value)) @ probs
            )
            for frac in (0.2, 0.5, 0.8):
                a = frac * gap
                brute = float(np.max(lams * a - j))
                ev = rate(ds, a)
                np.testing.assert_allclose(ev.value, brute, atol=1e-5)


class TestLossScale:
    """{0, .3, 1, 2.5} scaled by c: I_c(0.1c) = I(0.1) = 0.0055085 and I_c^-1(0.05) = 0.29150c."""

    BASE = np.array([0.0, 0.3, 1.0, 2.5])

    @pytest.mark.parametrize("c", [1e-14, 1e-12, 1e-9, 1e150, 1e300])
    def test_scaled_set_matches_unscaled(self, c):
        unscaled = from_losses(self.BASE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = from_losses(self.BASE * c)
            ev = rate(ds, 0.1 * c)
            inv = inverse_rate(ds, 0.05)
        assert not ev.saturated and not inv.saturated
        assert ev.value == pytest.approx(0.0055085, abs=1e-7)
        assert ev.value == pytest.approx(rate(unscaled, 0.1).value, rel=1e-12)
        assert inv.value / c == pytest.approx(0.29150, abs=1e-5)
        assert inv.value / c == pytest.approx(inverse_rate(unscaled, 0.05).value, rel=1e-12)
        assert inv.b_max == math.log(4.0)


# Losses on a 1e-3 lattice in [0, 1] with at least two distinct values, a
# scale c in [1e-12, 1e200] and a fraction of the gap or of b_max.
_LOSSES = (
    st.lists(st.integers(0, 1000), min_size=2, max_size=30)
    .filter(lambda v: len(set(v)) > 1)
    .map(lambda v: np.array(v) / 1000.0)
)
_SCALES = st.floats(-12.0, 200.0).map(lambda e: 10.0**e)
_FRACTIONS = st.floats(0.05, 0.8)
_PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def _gap_and_b_max(ds):
    s = summarize(ds)
    return s.empirical_loss - s.min_loss, math.log(s.count / s.min_loss_count)


class TestInvariantProperties:
    @_PROPERTY
    @given(_LOSSES, _SCALES, _FRACTIONS)
    def test_scale_equivariance(self, losses, c, fraction):
        ds, scaled = from_losses(losses), from_losses(losses * c)
        gap, b_max = _gap_and_b_max(ds)
        a = fraction * gap
        assert rate(scaled, c * a).value == pytest.approx(rate(ds, a).value, rel=1e-9, abs=1e-15)
        s = fraction * b_max
        assert inverse_rate(scaled, s).value / c == pytest.approx(inverse_rate(ds, s).value, rel=1e-9)

    @_PROPERTY
    @given(_LOSSES, _SCALES, st.floats(0.0, 10.0), st.floats(0.01, 100.0))
    def test_shift_invariance(self, losses, c, shift, tilt):
        ds, shifted = from_losses(losses * c), from_losses((losses + shift) * c)
        lam = tilt / c
        assert estimate_cumulant(shifted, lam) == pytest.approx(estimate_cumulant(ds, lam), rel=1e-9, abs=1e-12)
        a = 0.5 * _gap_and_b_max(ds)[0]
        assert rate(shifted, a).value == pytest.approx(rate(ds, a).value, rel=1e-8)

    @_PROPERTY
    @given(_LOSSES, _SCALES, _FRACTIONS)
    def test_legendre_round_trip(self, losses, c, fraction):
        ds = from_losses(losses * c)
        s = fraction * _gap_and_b_max(ds)[1]
        ev = inverse_rate(ds, s)
        assert not ev.saturated
        assert rate(ds, ev.value).value == pytest.approx(s, rel=1e-8)


class TestKernelMemory:
    """The kernel builds each block of exponents in place, so a single-tilt
    entry, a solve or a grid pass on 1e5 losses holds one array of exponents
    the size of the losses, plus its underflow mask, and nothing else as
    large."""

    @pytest.fixture(scope="class")
    def ds(self):
        ds = from_losses(np.random.default_rng(3).exponential(size=100_000))
        summarize(ds)  # cached on the dataset, so no call below computes it
        return ds

    @staticmethod
    def _peak(thunk) -> int:
        tracemalloc.start()
        try:
            thunk()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("call", ["estimate-1", "estimate-1e3", "rate", "grid-inverse-rate"])
    def test_peak_below_one_and_a_half_datasets(self, ds, call):
        solver = RateSolver(ds)
        gap, _ = _gap_and_b_max(ds)
        # A copy holds no curve, so the grid call makes a pass of its own.
        fresh = copy.copy(ds)
        summarize(fresh)
        assert fresh._curve is None
        thunk = {
            "estimate-1": lambda: estimate_cumulant(ds, 1.0),
            "estimate-1e3": lambda: estimate_cumulant(ds, 1e3),
            "rate": lambda: solver.rate(0.999 * gap),
            "grid-inverse-rate": lambda: grid_inverse_rate(fresh, 0.1, LambdaGrid.default()),
        }[call]
        peak = self._peak(thunk)
        assert peak < 1.5 * ds.losses.nbytes, peak / ds.losses.nbytes

    def test_a_held_curve_takes_no_pass_memory(self, ds):
        held = copy.copy(ds)
        summarize(held)
        cumulant_curve(held)
        peak = self._peak(lambda: grid_inverse_rate(held, 0.1, LambdaGrid.default()))
        assert peak < 0.01 * ds.losses.nbytes, peak / ds.losses.nbytes


class TestKernelPasses:
    @pytest.fixture(scope="class")
    def large_sets(self):
        rng = np.random.default_rng(5)
        return [from_losses(rng.exponential(1.0, 100_000)), from_losses(rng.lognormal(0.0, 1.5, 100_000))]

    def test_at_most_twelve_passes_per_solve(self, large_sets, monkeypatch):
        passes = []
        kernel = rate_module.tilted_moments

        def counted(*args, **kwargs):
            passes[-1] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(rate_module, "tilted_moments", counted)
        for ds in large_sets:
            gap, _ = _gap_and_b_max(ds)
            for fraction in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9):
                passes.append(0)
                assert not rate(ds, fraction * gap).saturated
            for s in (1e-4, 1e-3, 0.01, 0.1, 1.0, 5.0):
                passes.append(0)
                assert not inverse_rate(ds, s).saturated
        assert max(passes) <= 12, passes

    def test_held_curves_decide_the_analyses_without_a_pass(self, large_sets, monkeypatch):
        passes = []
        kernel = rate_module.tilted_moments

        def counted(*args, **kwargs):
            passes.append(args[1])
            return kernel(*args, **kwargs)

        exp_ds, lognormal_ds = large_sets
        for ds in large_sets:
            cumulant_curve(ds)
        meta = ModelMeta(10, 50_000, 0.05)
        monkeypatch.setattr(rate_module, "tilted_moments", counted)
        monkeypatch.setattr(cumulant_module, "tilted_moments", counted)
        compare_smoothness(exp_ds, lognormal_ds)
        assert passes == []
        RateSolver(exp_ds).inverse_rate((10 / 50_000) * math.log(2 / 0.05))
        beta_passes = list(passes)
        passes.clear()
        interpolator_ordering(0.0, exp_ds, lognormal_ds, meta)
        assert passes == beta_passes
        # Equal rates leave the bounds overlapping: those deviations are solved.
        passes.clear()
        compare_smoothness(exp_ds, exp_ds)
        assert passes

    def test_one_solver_per_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        ds_a, ds_b = random_dataset(rng, size=40, model_id="A"), random_dataset(rng, size=40, model_id="B")
        built = []
        init = RateSolver.__init__

        def counted(self, ds):
            built.append(ds.model_id)
            init(self, ds)

        monkeypatch.setattr(RateSolver, "__init__", counted)
        compare_smoothness(ds_a, ds_b)
        assert sorted(built) == ["A", "B"]
        built.clear()
        interpolator_ordering(0.0, ds_a, ds_b, ModelMeta(10, 1000, 0.05))
        assert sorted(built) == ["A", "B"]


def _solves(ds, count):
    """``count`` alternating top-level rate and inverse-rate values on ``ds``."""
    gap, _ = _gap_and_b_max(ds)
    return [(rate(ds, gap * (k + 1) / (count + 2)) if k % 2 else inverse_rate(ds, 0.01 * (k + 1))).value
            for k in range(count)]


class TestHeldSolver:
    """``rate`` and ``inverse_rate`` reuse the solver of the last dataset they
    solved on, and let it go with that dataset."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = RateSolver.__init__

        def counted(self, ds):
            built.append(ds.model_id)
            init(self, ds)

        monkeypatch.setattr(RateSolver, "__init__", counted)
        monkeypatch.setattr(rate_module, "_last", None)
        return built

    def test_a_repeated_solve_builds_nothing(self, built):
        ds = from_losses(np.random.default_rng(11).exponential(size=100_000), model_id="exp")
        gap, _ = _gap_and_b_max(ds)
        first = rate(ds, 0.5 * gap)
        tracemalloc.start()
        try:
            second = rate(ds, 0.5 * gap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first
        assert peak < 0.05 * ds.losses.nbytes, peak / ds.losses.nbytes
        inverse_rate(ds, 0.1)
        rate_curve(ds, (0.1 * gap, 0.2 * gap))
        assert built == ["exp"]

    def test_another_dataset_replaces_the_solver(self, built):
        rng = np.random.default_rng(12)
        a, b = from_losses(rng.exponential(size=50), model_id="A"), from_losses(rng.exponential(size=50), model_id="B")
        for ds in (a, a, b, b, a):
            inverse_rate(ds, 0.1)
        assert built == ["A", "B", "A"]

    def test_analyses_use_the_held_solver_and_keep_it(self, built):
        rng = np.random.default_rng(15)
        a, b = from_losses(rng.exponential(size=50), model_id="A"), from_losses(rng.exponential(size=50), model_id="B")
        inverse_rate(b, 0.1)
        held = rate_module._last
        compare_smoothness(a, b)
        interpolator_ordering(0.0, a, b, ModelMeta(10, 1000, 0.05))
        assert built == ["B", "A", "A"]
        assert rate_module._last is held

    def test_the_solver_goes_with_its_dataset(self, built):
        ds = from_losses(np.random.default_rng(13).exponential(size=1000))
        rate(ds, 0.1)
        d = weakref.ref(rate_module._last[1].d)
        del ds
        gc.collect()
        assert rate_module._last is None
        assert d() is None

    @pytest.mark.parametrize("shared", [True, False], ids=["one-dataset", "two-datasets"])
    def test_threads_get_the_sequential_bits(self, shared):
        # Four threads, more than the cores, switching often: each holds its
        # own exponent row and takes the shared solver or replaces it.
        rng = np.random.default_rng(14)
        first = from_losses(rng.exponential(size=20_000))
        sets = [first, first if shared else from_losses(rng.lognormal(0.0, 1.5, size=20_000))] * 2
        expected = [_solves(copy.copy(ds), 24) for ds in sets]
        results = [None] * len(sets)
        start = threading.Barrier(len(sets))

        def work(k):
            start.wait()
            results[k] = _solves(sets[k], 24)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(sets))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert [[v.hex() for v in r] for r in results] == [[v.hex() for v in r] for r in expected]


# (fixture, solver, a or s) -> (value, lambda_star) of the bisection solver
# this one replaced, at its default tolerance. "s" 0.036888794541139365 is
# the budget of the `bound` command for p=10, n=1000, delta=0.05.
PREVIOUS = {
    ("a.csv", "rate", 0.1): (0.015924085851420425, 0.3343790275976062),
    ("a.csv", "rate", 0.2): (0.07117497319101132, 0.7997767087072134),
    ("a.csv", "rate", 0.3): (0.1842757289047829, 1.5230286810547113),
    ("a.csv", "rate", 0.5): (0.8179376445125297, 6.183320179581642),
    ("a.csv", "inverse_rate", 0.01): (0.08002384835260336, 0.25952667370438576),
    ("a.csv", "inverse_rate", 0.05): (0.17060313471029345, 0.6440112655982375),
    ("a.csv", "inverse_rate", 0.1): (0.2322084267230063, 0.9948747484013438),
    ("a.csv", "inverse_rate", 0.036888794541139365): (0.14838772543688367, 0.5378704108297825),
    ("b.csv", "rate", 0.1): (0.03794162923214506, 0.8432045020163059),
    ("b.csv", "rate", 0.2): (0.19699830447673017, 2.5658712200820446),
    ("b.csv", "rate", 0.3): (0.6438225447823376, 7.481558203697205),
    ("b.csv", "inverse_rate", 0.01): (0.053848689059706446, 0.3906377702951431),
    ("b.csv", "inverse_rate", 0.05): (0.11310117763731721, 1.0000781435519457),
    ("b.csv", "inverse_rate", 0.1): (0.15238282083337906, 1.5745429322123528),
    ("b.csv", "inverse_rate", 0.036888794541139365): (0.09874068197371355, 0.8288879673928022),
}


@pytest.mark.parametrize("key", sorted(PREVIOUS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_agrees_with_previous_solver(key):
    name, kind, x = key
    value, lam_old = PREVIOUS[key]
    ds = load_dataset(DATA / name)
    gap, _ = _gap_and_b_max(ds)
    ev = rate(ds, x) if kind == "rate" else inverse_rate(ds, x)
    assert abs(ev.value - value) <= 1e-12 * value
    # The old solver left |J'(lam) - a| or |B(lam) - s| within DEFAULT_TOL; the
    # new one within DEFAULT_TOL * gap for J' and DEFAULT_TOL for B. The tilts
    # may therefore differ by the sum over the slope, J'' or lam * J''.
    j2 = RateSolver(ds).terms(lam_old * gap)[2] * gap * gap
    slope, new_tol = (j2, DEFAULT_TOL * gap) if kind == "rate" else (lam_old * j2, DEFAULT_TOL)
    assert abs(ev.lambda_star - lam_old) * slope <= 1.01 * (DEFAULT_TOL + new_tol)
