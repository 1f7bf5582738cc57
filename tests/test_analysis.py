"""Bounds, smoothness verdicts, augmentation checks, and quadratic approximations."""

import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratefn import (
    DimensionMismatch,
    InvalidA,
    LambdaGrid,
    LossDataset,
    MissingGradients,
    MissingGradNorms,
    ModelMeta,
    SolverFailure,
    UnequalGroupsWarning,
    ZeroVariance,
    compare_smoothness,
    compose_augmented,
    covariance_taylor,
    cumulant_curve,
    da_inequality_check,
    estimate_cumulant,
    from_losses,
    generalization_bound,
    gradient_norm_bound,
    interpolator_ordering,
    inverse_rate,
    rate,
    rate_curve,
    reduce_augmented,
    summarize,
    variance_rate_approx,
    variance_taylor,
)
from ratefn import analysis, loss_data
from ratefn.cumulant import held_curve
from ratefn.rate import RateSolver
from conftest import binary_kl, random_dataset

LN2 = math.log(2.0)


class TestGeneralizationBound:
    def test_constant_dataset_bound_is_its_mean(self, constant_ds):
        report = generalization_bound(constant_ds, ModelMeta(5, 100, 0.1))
        assert report.inverse_rate.value == 0.0
        assert report.upper_bound == 0.7

    def test_budget_formula(self, two_point_ds):
        report = generalization_bound(two_point_ds, ModelMeta(10, 1000, 0.05))
        np.testing.assert_allclose(report.s, 0.01 * math.log(40.0), rtol=1e-15)
        assert abs(report.s - 0.036889) < 1e-6
        np.testing.assert_allclose(
            report.s_union, (10 * LN2 + math.log(20.0)) / 1000, rtol=1e-15
        )
        assert report.s_union < report.s

    def test_saturated_budget_still_bounded(self, bernoulli_ds):
        # huge p/n pushes the budget beyond the Bregman supremum
        report = generalization_bound(bernoulli_ds, ModelMeta(1000, 10, 0.05))
        assert report.inverse_rate.saturated
        assert report.upper_bound == 0.5 + 0.5
        mean = summarize(bernoulli_ds).empirical_loss
        assert mean <= report.upper_bound <= 2 * mean

    def test_bound_sanity_randomized(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            ds = random_dataset(rng)
            meta = ModelMeta(
                int(rng.integers(1, 500)), int(rng.integers(10, 5000)), float(rng.uniform(0.01, 0.5))
            )
            report = generalization_bound(ds, meta)
            mean = summarize(ds).empirical_loss
            assert mean <= report.upper_bound <= 2 * mean + 1e-15

    def test_caller_supplied_train_loss(self, two_point_ds):
        report = generalization_bound(two_point_ds, ModelMeta(2, 100, 0.1), train_loss=0.01)
        assert report.train_loss == 0.01
        assert not report.used_dataset_mean
        assert report.upper_bound == 0.01 + report.inverse_rate.value
        fallback = generalization_bound(two_point_ds, ModelMeta(2, 100, 0.1))
        assert fallback.used_dataset_mean


class TestCompareSmoothness:
    def test_constant_dominates_everything(self, constant_ds, bernoulli_ds):
        verdict = compare_smoothness(constant_ds, bernoulli_ds)
        assert verdict.cumulant_dominance
        assert verdict.verdict == "smoother"
        assert math.isinf(verdict.beta)

    def test_reflexive(self, bernoulli_ds):
        verdict = compare_smoothness(bernoulli_ds, bernoulli_ds)
        assert verdict.verdict == "smoother"

    def test_reduced_dataset_is_smoother(self):
        rng = np.random.default_rng(22)
        losses = rng.uniform(0, 2, size=12)
        grouped = from_losses(losses, group_ids=[f"g{i // 3}" for i in range(12)])
        flat = from_losses(losses)
        verdict = compare_smoothness(reduce_augmented(grouped), flat)
        assert verdict.verdict == "smoother"

    def test_wider_losses_are_rougher(self, bernoulli_ds):
        wide = from_losses([0.0, 2.0])
        verdict = compare_smoothness(wide, bernoulli_ds)
        assert not verdict.cumulant_dominance
        assert verdict.verdict == "incomparable"
        assert verdict.rate_dominance_on == 0.0
        # and the reverse direction is clean dominance
        reverse = compare_smoothness(bernoulli_ds, wide)
        assert reverse.verdict == "smoother"

    def test_beta_smoother_on_prefix(self):
        # A dominates B at small deviations but gives up near its own gap:
        # A = {0, 0.6} has the smaller variance (dominates early) but the
        # smaller gap too, so large deviations saturate B first... construct
        # the opposite: B has smaller support width.
        ds_a = from_losses([0.0, 0.0, 0.0, 1.0])  # mean 0.25, skewed
        ds_b = from_losses([0.0, 0.5])            # mean 0.25, symmetric
        a_values = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)
        verdict = compare_smoothness(ds_a, ds_b, a_values=a_values, beta=0.15)
        if not verdict.cumulant_dominance:
            assert verdict.verdict in ("beta_smoother", "incomparable")
            if verdict.verdict == "beta_smoother":
                assert verdict.rate_dominance_on >= 0.15

    def test_default_deviations_past_a_twelfth_of_the_range(self):
        # 0.95 * gap * 12 passes the float64 range; each deviation does not.
        ds = from_losses([1e308, 1.5e308])
        verdict = compare_smoothness(ds, ds)
        top = Fraction(0.95 * 2.5e307)
        for k, a in enumerate(verdict.a_values, start=1):
            assert abs(Fraction(a) - top * k / 12) <= Fraction(math.ulp(a))
        assert verdict.verdict == "smoother"

    def test_crossing_pair_cumulants_cross_past_the_grid(self):
        ds_a, ds_b = _crossing_pair()
        assert estimate_cumulant(ds_a, 1e6) == pytest.approx(100087.486, abs=5e-4)
        assert estimate_cumulant(ds_b, 1e6) == pytest.approx(99999.307, abs=5e-4)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the smoother verdict tests only the grid's tilts")
    def test_crossing_pair_is_not_smoother(self):
        ds_a, ds_b = _crossing_pair()
        assert compare_smoothness(ds_a, ds_b).verdict != "smoother"

    def test_empty_deviations_are_rejected(self, bernoulli_ds, two_point_ds):
        with pytest.raises(InvalidA):
            compare_smoothness(bernoulli_ds, two_point_ds, a_values=())


def _crossing_pair():
    """ROADMAP item 1's counterexample: A's cumulant lies below B's on the
    default grid, which ends at a tilt of 1e3, but above it at 1e6."""
    return from_losses([0.1001] * 99_999 + [0.0]), from_losses([0.0, 0.2])


class TestInterpolatorOrdering:
    def test_premise_violation_is_reported_not_raised(self, bernoulli_ds):
        claim = interpolator_ordering(
            0.5, bernoulli_ds, bernoulli_ds, ModelMeta(10, 100, 0.05), epsilon=0.01
        )
        assert not claim.premise_ok

    def test_self_comparison_is_consistent(self, bernoulli_ds):
        claim = interpolator_ordering(
            0.0, bernoulli_ds, bernoulli_ds, ModelMeta(10, 100, 0.05), epsilon=0.01
        )
        assert claim.premise_ok
        assert claim.beta_smooth_ok
        assert claim.holdout_consistent

    def test_mean_preserving_contraction(self):
        losses = [0.0, 1.0, 0.0, 1.0]
        ds_b = from_losses(losses, model_id="rough")
        contracted = reduce_augmented(from_losses(losses, group_ids=["g1", "g1", "g2", "g2"]))
        claim = interpolator_ordering(
            0.0, contracted, ds_b, ModelMeta(4, 200, 0.1), epsilon=0.05
        )
        assert claim.premise_ok
        assert claim.beta_smooth_ok
        assert claim.holdout_mean_a == claim.holdout_mean_b == 0.5
        assert claim.holdout_consistent
        assert claim.beta <= 0.5

    def test_default_deviations_past_an_eighth_of_the_range(self):
        ds = from_losses([0.0, 1.7e308])
        claim = interpolator_ordering(0.0, ds, ds, ModelMeta(10, 100, 0.05))
        assert 8 * Fraction(claim.beta) > Fraction(sys.float_info.max)
        assert claim.beta_smooth_ok

    def test_non_finite_deviation_is_rejected_not_skipped(self, bernoulli_ds):
        for bad in (math.nan, math.inf, -0.1):
            with pytest.raises(InvalidA):
                interpolator_ordering(0.0, bernoulli_ds, bernoulli_ds, ModelMeta(10, 100, 0.05), a_values=[bad])

    def test_empty_deviations_are_rejected(self, bernoulli_ds, two_point_ds):
        with pytest.raises(InvalidA):
            interpolator_ordering(0.0, bernoulli_ds, two_point_ds, ModelMeta(10, 100, 0.05), a_values=())

    def test_held_curves_give_the_same_claim(self):
        rng = np.random.default_rng(34)
        meta = ModelMeta(10, 50_000, 0.05)
        for k in range(20):
            xa, xb = _shaped(rng, rng.integers(2, 3000)), _shaped(rng, rng.integers(2, 3000))
            held = from_losses(xa), from_losses(xb)
            for ds in held:
                cumulant_curve(ds, _GRIDS[k % 2])
            bare = from_losses(xa), from_losses(xb)
            assert interpolator_ordering(0.0, *held, meta) == interpolator_ordering(0.0, *bare, meta)
            # The claim reads curves the datasets hold; it computes none.
            assert held_curve(bare[0]) is None and held_curve(bare[1]) is None


# The default grid and a coarse 16-tilt one.
_GRIDS = (LambdaGrid.default(), LambdaGrid.log_spaced(1e-2, 1e2, 16))
_SHAPES = {
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "uniform": lambda rng, n: rng.uniform(0.0, 1.0, n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, rng.uniform(0.1, 3.0), n),
    "two-point": lambda rng, n: np.where(rng.random(n) < rng.uniform(0.05, 0.95), 0.0, 1.0),
    "near-tied": lambda rng, n: np.where(rng.random(n) < 0.5, 0.0, 1.0) + rng.uniform(0.0, 1e-9, n),
}


def _shaped(rng, size, scale=1.0, shape=None):
    """``size`` losses of a named or drawn shape, times ``scale``, with at least two distinct values."""
    x = _SHAPES[shape or rng.choice(sorted(_SHAPES))](rng, int(size))
    x[0], x[-1] = 0.0, max(x[-1], 1.0)
    return x * scale


def _solved_dominance(solver_a, solver_b, a, *curves):
    """The rule before the tangent bounds: solve both rates at every deviation."""
    eval_a = solver_a.rate(a)
    if eval_a.saturated:
        return True
    eval_b = solver_b.rate(a)
    if eval_b.saturated:
        return False
    return eval_a.value >= eval_b.value - analysis.DOMINANCE_SLACK


class TestRateBounds:
    """``_rate_bounds`` brackets the solved rate from a curve's tangents, and
    the analyses' verdicts stay those of solving every rate."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(sorted(_SHAPES)), size=st.integers(2, 2000),
           scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]), coarse=st.booleans(),
           fractions=st.lists(st.one_of(
               st.floats(1e-9, 1.0, exclude_max=True),
               st.floats(-12.0, -1.0).map(lambda k: 1.0 - 10.0**k),  # near the gap
               st.floats(-9.0, -3.0).map(lambda k: 10.0**k),  # left of the grid
           ), min_size=1, max_size=8))
    def test_solved_rate_lies_within_the_bounds(self, seed, shape, size, scale, coarse, fractions):
        ds = from_losses(_shaped(np.random.default_rng(seed), size, scale, shape))
        curve, solver = cumulant_curve(ds, _GRIDS[coarse]), RateSolver(ds)
        for a in (f * solver.gap for f in fractions):
            if a <= 0.0 or solver.saturates(a):
                continue
            lower, upper, margin = analysis._rate_bounds(curve, a)
            assert 0.0 <= lower <= upper + margin
            try:
                solved = solver.rate(a).value
            except SolverFailure:  # ROADMAP item 2: the tilt cap, never within a bracket
                assert margin == math.inf
                continue
            assert lower - margin <= solved <= upper + margin, (a, lower, upper, margin)

    def test_tilt_zero_brackets_deviations_left_of_the_grid(self):
        ds = from_losses(np.random.default_rng(35).lognormal(0.0, 2.0, 5000))
        curve, solver = cumulant_curve(ds), RateSolver(ds)
        a = 0.5 * curve.j_derivs[0]
        lower, upper, margin = analysis._rate_bounds(curve, a)
        assert upper < math.inf and margin < 1e-9
        assert lower - margin <= solver.rate(a).value <= upper + margin

    def test_no_bracket_gives_no_upper_bound(self, bernoulli_ds):
        curve = cumulant_curve(bernoulli_ds)
        # The last tilt's J' is the gap itself in float64, less than tol*gap above `a`.
        lower, upper, margin = analysis._rate_bounds(curve, 0.5 * (1 - 1e-12))
        assert upper == margin == math.inf
        assert lower > 0.0

    def test_verdicts_equal_the_always_solve_loop(self, monkeypatch):
        rng = np.random.default_rng(33)
        meta = ModelMeta(10, 50_000, 0.05)
        solves = {}
        solve = RateSolver.rate

        def counted(self, a, tol=analysis.DEFAULT_TOL):
            solves[rule] = solves.get(rule, 0) + 1
            return solve(self, a, tol)

        monkeypatch.setattr(RateSolver, "rate", counted)
        for k, (xa, xb, kwargs) in enumerate(_pairs(rng, 300)):
            results = {}
            for rule in (analysis._rate_dominates, _solved_dominance):
                ds_a, ds_b = from_losses(xa), from_losses(xb)
                with monkeypatch.context() as patch:
                    patch.setattr(analysis, "_rate_dominates", rule)
                    results[rule] = (compare_smoothness(ds_a, ds_b, **kwargs),
                                     interpolator_ordering(0.0, ds_a, ds_b, meta))
            assert results[analysis._rate_dominates] == results[_solved_dominance], k
        # The bounds decide over a thousand deviations without solving.
        assert solves[_solved_dominance] - solves[analysis._rate_dominates] > 1000, solves


def _pairs(rng, count):
    """``count`` seeded (losses A, losses B, compare_smoothness keywords):
    ROADMAP item 1's crossing pair, then identical pairs, pairs apart by
    1e-12, and unrelated ones, at loss scales 1e-6 to 1e6, on either grid,
    some with explicit deviations and beta."""
    yield from ((ds.losses, other.losses, {}) for ds, other in (_crossing_pair(), _crossing_pair()[::-1]))
    for k in range(count - 2):
        scale = 10.0 ** rng.uniform(-6.0, 6.0) if k % 3 == 0 else 1.0
        xa = _shaped(rng, rng.integers(2, 3000), scale)
        xb = (xa.copy(), xa * (1 + 1e-12), xa + 1e-12 * scale * rng.random(xa.size),
              _shaped(rng, rng.integers(2, 3000), scale), _shaped(rng, rng.integers(2, 3000), scale))[k % 5]
        kwargs = {"grid": _GRIDS[k % 2]}
        if k % 4 == 1:
            top = min(x.mean() - x.min() for x in (xa, xb))
            kwargs["a_values"] = tuple(np.sort(rng.uniform(0.0, 1.2, 6)) * top)
        if k % 4 in (1, 2):
            kwargs["beta"] = float(rng.uniform(0.1, 1.0) * (xa.mean() - xa.min()))
        yield xa, xb, kwargs


class TestDACheck:
    def test_singleton_groups_have_zero_gaps(self):
        ds = from_losses([0.2, 0.5, 0.9], group_ids=["a", "b", "c"])
        report = da_inequality_check(ds)
        assert report.equal_group_sizes
        assert report.mean_preserved
        assert all(abs(g) <= 1e-12 for g in report.gaps)

    def test_strict_gap_for_spread_group(self):
        ds = from_losses([0.0, LN2, LN2, LN2], group_ids=["g1", "g1", "g2", "g2"])
        report = da_inequality_check(ds, LambdaGrid((1.0,), spacing="linear"))
        assert report.gaps[0] > 1e-4
        assert report.mean_preserved

    def test_gaps_never_negative(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m = int(rng.integers(2, 6)) * 3
            ds = from_losses(rng.uniform(0, 2, size=m), group_ids=[f"g{i % (m // 3)}" for i in range(m)])
            report = da_inequality_check(ds)
            assert min(report.gaps) >= -1e-12

    def test_chained_reduction_orders_gaps(self):
        rng = np.random.default_rng(26)
        losses = rng.uniform(0, 2, size=8)
        inner_groups = [f"i{k // 2}" for k in range(8)]
        grouped = from_losses(losses, group_ids=inner_groups)
        once = reduce_augmented(grouped)
        outer_map = {"i0": "o0", "i1": "o0", "i2": "o1", "i3": "o1"}
        twice = reduce_augmented(compose_augmented(once, outer_map))
        grid = LambdaGrid.default()
        flat = from_losses(losses)
        for lam in grid.values[::8]:
            j_flat = estimate_cumulant(flat, lam)
            j_once = estimate_cumulant(once, lam)
            j_twice = estimate_cumulant(twice, lam)
            assert j_twice <= j_once + 1e-12
            assert j_once <= j_flat + 1e-12

    def test_unequal_groups_flagged(self):
        ds = from_losses([0.1, 0.4, 0.9], group_ids=["a", "a", "b"])
        with pytest.warns(UnequalGroupsWarning):
            report = da_inequality_check(ds)
        assert not report.equal_group_sizes


class TestVarianceTaylor:
    def test_constant_dataset(self, constant_ds):
        report = variance_taylor(constant_ds, 0.5)
        assert report.exact == report.approx == 0.0

    def test_two_point_small_tilt(self, two_point_ds):
        report = variance_taylor(two_point_ds, 0.01)
        np.testing.assert_allclose(report.approx, 0.5e-4 * LN2**2 / 4, rtol=1e-12)
        assert abs(report.approx - 6.0055e-6) < 1e-9
        assert report.abs_error <= 1e-8

    def test_bernoulli_third_moment_bound(self, bernoulli_ds):
        lam = 0.1
        report = variance_taylor(bernoulli_ds, lam)
        np.testing.assert_allclose(report.approx, 1.25e-3, rtol=1e-12)
        third_abs_moment = 0.125  # E|loss - 1/2|^3 for {0, 1} losses
        assert report.abs_error <= third_abs_moment * lam**3

    def test_cubic_error_scaling(self):
        # two loss levels with unequal mass leave a nonzero cubic term, so
        # halving the tilt divides the quadratic-fit error by about eight
        ds = from_losses([0.0, LN2, LN2])
        errors = [variance_taylor(ds, lam).abs_error for lam in (0.04, 0.02, 0.01)]
        for first, second in zip(errors, errors[1:]):
            assert 6.5 <= first / second <= 9.5


class TestVarianceRateApprox:
    def test_inverse_mode_constant(self, constant_ds):
        report = variance_rate_approx(constant_ds, "inverse_rate", 0.05)
        assert report.approx == 0.0
        assert report.exact == 0.0

    def test_rate_mode_bernoulli(self, bernoulli_ds):
        report = variance_rate_approx(bernoulli_ds, "rate", 0.05)
        np.testing.assert_allclose(report.approx, 0.005, rtol=1e-12)
        np.testing.assert_allclose(report.exact, binary_kl(0.45), atol=1e-9)
        assert report.abs_error / report.exact < 0.05

    def test_inverse_mode_bernoulli(self, bernoulli_ds):
        report = variance_rate_approx(bernoulli_ds, "inverse_rate", 0.005)
        np.testing.assert_allclose(report.approx, 0.05, rtol=1e-12)
        assert report.abs_error / report.exact < 0.05

    def test_zero_variance_rejected_in_rate_mode(self, constant_ds):
        with pytest.raises(ZeroVariance):
            variance_rate_approx(constant_ds, "rate", 0.05)


class TestVarianceOnDemand:
    """Only the quadratic approximations read the variance; every solver path
    runs without the per-sample variance loop."""

    @staticmethod
    def _datasets():
        rng = np.random.default_rng(21)
        grouped = from_losses(rng.exponential(1.0, 400), model_id="grouped",
                              group_ids=[f"g{i // 4}" for i in range(400)])
        return from_losses(rng.exponential(1.0, 500), model_id="a"), from_losses(rng.gamma(2.0, 0.5, 500)), grouped

    def test_solver_paths_never_run_the_loop(self, monkeypatch):
        def no_loop(*args):
            raise AssertionError("variance loop ran")

        monkeypatch.setattr(loss_data, "_variance", no_loop)
        ds_a, ds_b, grouped = self._datasets()
        assert 0.0 < rate(ds_a, 0.3).value < math.inf
        assert 0.0 < inverse_rate(ds_a, 0.05).value < summarize(ds_a).empirical_loss
        assert len(rate_curve(ds_a, [0.1, 0.2, 0.4])) == 3
        assert len(cumulant_curve(ds_a).j_values) == 64
        assert generalization_bound(ds_b, ModelMeta(10, 1000, 0.05)).upper_bound > 0.0
        assert compare_smoothness(ds_a, ds_b).verdict in ("smoother", "beta_smoother", "incomparable")
        assert da_inequality_check(grouped).equal_group_sizes
        with pytest.raises(AssertionError, match="variance loop ran"):
            summarize(ds_a).variance

    def test_variance_taylor_runs_the_loop_once(self, variance_calls):
        ds = self._datasets()[0]
        variance_taylor(ds, 0.1)
        report = variance_taylor(ds, 0.2)
        assert len(variance_calls) == 1
        assert report.approx == 0.5 * 0.2 * 0.2 * summarize(ds).variance
        variance_rate_approx(ds, "rate", 0.1)
        assert len(variance_calls) == 1

    def test_tied_losses_skip_the_loop(self, variance_calls):
        assert variance_taylor(from_losses([0.4] * 5), 0.5).approx == 0.0
        assert variance_calls == []

    def test_signed_zeros_pin_the_minimum(self, variance_calls):
        ds = from_losses([0.3, -0.0, 0.0, 1.1, 0.0])
        s = summarize(ds)
        assert s.min_loss.hex() == "-0x0.0p+0"
        assert s.min_loss_count == 3
        assert rate(ds, 0.1).value > 0.0
        assert variance_calls == []


def _grad_dataset(grads, losses=None):
    return LossDataset(losses or [0.5] * len(grads), grad_theta=grads)


class TestCovarianceTaylor:
    def test_identical_gradients_give_zero(self):
        ds = _grad_dataset([[1.0, 2.0]] * 4)
        result = covariance_taylor(ds, [3.0, -1.0], 0.5)
        assert result.quadratic_form == 0.0
        assert result.report.approx == 0.0

    def test_hand_covariance_one_dim(self):
        ds = _grad_dataset([[1.0], [-1.0]])
        c = 0.7
        lam = 0.3
        result = covariance_taylor(ds, [c], lam)
        np.testing.assert_allclose(result.quadratic_form, c * c, rtol=1e-15)
        np.testing.assert_allclose(result.report.approx, lam * lam * c * c / 2, rtol=1e-15)

    def test_zero_displacement(self):
        ds = _grad_dataset([[1.0], [-1.0]])
        result = covariance_taylor(ds, [0.0], 1.0)
        assert result.report.approx == 0.0

    def test_inverse_rate_form(self):
        ds = _grad_dataset([[1.0], [-1.0]])
        result = covariance_taylor(ds, [2.0], 1.0, s=0.02)
        np.testing.assert_allclose(result.inverse_rate_approx, math.sqrt(2 * 0.02 * 4.0), rtol=1e-15)

    def test_missing_gradients(self, bernoulli_ds):
        with pytest.raises(MissingGradients):
            covariance_taylor(bernoulli_ds, [1.0], 1.0)

    def test_dimension_mismatch(self):
        ds = _grad_dataset([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            covariance_taylor(ds, [1.0], 1.0)

    @staticmethod
    def _exact_form(grads, delta) -> float:
        """The quadratic form in exact rationals, rounded to float64 (inf past its range)."""
        m = len(grads)
        mean = [sum(Fraction(row[j]) for row in grads) / m for j in range(len(delta))]
        projected = [sum((Fraction(x) - mu) * Fraction(d) for x, mu, d in zip(row, mean, delta)) for row in grads]
        try:
            return float(sum(p * p for p in projected) / m)
        except OverflowError:
            return math.inf

    def test_a_rounded_mean_is_not_counted_as_covariance(self):
        # The mean of three 0.1 rounds up by 1.4e-17, which a single centring
        # leaves in every row: q read 1.9e-34, where the exact form is 6.7e-41.
        grads, delta = [[0.1, 1e-20], [0.1, -1e-20], [0.1, 0.0]], [1.0, 1.0]
        expected = self._exact_form(grads, delta)
        result = covariance_taylor(_grad_dataset(grads), delta, 1.0)
        assert result.quadratic_form == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert analysis._scaled_quadratic_form(np.array(grads), np.array(delta)) == result.quadratic_form

    @pytest.mark.parametrize("grads, delta", [
        # Each product overflows, but the two cancel in every row: the form is 0.
        ([[1e308, 1e308], [-1e308, -1e308]], [10.0, -10.0]),
        # The overflowing products cancel and leave a small third term: the form is 25.
        ([[1e308, 1e308, 1.0], [-1e308, -1e308, -1.0]], [10.0, -10.0, 5.0]),
        # Centring overflows (1.7e308 + 5.7e307), the form is about 1.9e-584 * 1e600.
        ([[1.7e308], [-1.7e308], [-1.7e308]], [1e-300]),
        # The products add up: the form itself lies beyond the float64 range.
        ([[1e308, -1e308], [-1e308, 1e308]], [10.0, -10.0]),
        ([[1.7e308], [-1.7e308], [-1.7e308]], [1.0]),
        # Plain products, for contrast.
        ([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]], [2.0, -1.5]),
    ])
    def test_overflowing_products_match_the_exact_form(self, grads, delta):
        expected = self._exact_form(grads, delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = covariance_taylor(_grad_dataset(grads), delta, 1.0, s=0.1)
        if math.isinf(expected):
            assert result.quadratic_form == math.inf
        else:
            assert result.quadratic_form == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), columns=st.integers(1, 4))
    def test_scaled_form_keeps_the_plain_bits(self, data, rows, columns):
        # Exponents within +-100 keep every plain operand, product and square
        # normal, where scaling by powers of two changes no digit.
        def draws(count):
            def drawn(values):
                return np.array(data.draw(st.lists(values, min_size=count, max_size=count)))

            fractions = drawn(st.sampled_from([-1.0, 0.0, 1.0])) * drawn(st.floats(0.5, 1.0, exclude_max=True))
            return np.ldexp(fractions, drawn(st.integers(-100, 100)))

        grads, delta = draws(rows * columns).reshape(rows, columns), draws(columns)
        projected = analysis._centred(grads) @ delta
        assert analysis._scaled_quadratic_form(grads, delta) == float(projected @ projected) / rows


def _exact_root(value: Fraction) -> Fraction:
    """The square root of ``value``, to 1200 bits below the binary point."""
    return Fraction(math.isqrt(math.floor(value * 4**1200)), 2**1200)


def _within_one_ulp(result: float, exact: Fraction) -> bool:
    return abs(Fraction(result) - exact) <= Fraction(math.ulp(result))


class TestApproximationRange:
    """``_product``, the one form of the quadratic approximations, keeps its
    digits where a plain product would leave the float64 range: a tilt
    squared below the normal range, or ``2*s*q`` past its top. Elsewhere it
    keeps the plain form's bits."""

    @pytest.mark.parametrize("lam, coefficient", [
        (1e-160, 1e308), (1e-155, 1e300), (1e-200, 1e308), (3e-170, 7.7e307),
        (2**-511, 3.0), (2**-510.5, 1.7e308), (1.1e-154, 1.3e-10), (1e-160, 1e-10),
    ])
    def test_a_tiny_tilt_squares_within_one_ulp(self, lam, coefficient):
        result = analysis._product(0.5, (lam, lam, coefficient))
        assert _within_one_ulp(result, Fraction(lam) ** 2 * Fraction(coefficient) / 2), result

    @pytest.mark.parametrize("s, q", [
        (10.0, 1e308), (100.0, 9e306), (1e308, 1e-300), (1e308, 1e308), (8.9e307, 1.5),
        (1e-300, 1e-30), (1e-200, 1e-200), (5e-324, 0.5), (1e-160, 1e-150),
    ])
    def test_a_product_out_of_the_normal_range_roots_within_one_ulp(self, s, q):
        assert not sys.float_info.min <= 2.0 * s * q < math.inf
        result = analysis._product(2.0, (s, q), root=True)
        assert _within_one_ulp(result, _exact_root(2 * Fraction(s) * Fraction(q))), result

    @pytest.mark.parametrize("root", [False, True])
    def test_edges_give_inf_or_zero(self, root):
        # An infinite factor, even beside a tiny one; a zero factor, even beside
        # a huge one; an infinite divisor.
        assert analysis._product(0.5, (1e-300, math.inf), 1e300, root=root) == math.inf
        assert analysis._product(2.0, (1e300, 1e300, 0.0), root=root) == 0.0
        assert analysis._product(0.5, (1e300, 1e300), math.inf, root=root) == 0.0

    def test_a_root_beyond_the_range_is_infinite(self):
        root = functools.partial(analysis._product, 2.0, root=True)
        assert root((1.3e308, 1.3e308)) == root((1.0, math.inf)) == math.inf
        assert root((1e-300, 0.0)) == 0.0
        assert analysis._product(0.5, (1e300, 1e300), 1e-300) == math.inf

    @pytest.mark.parametrize("x, coefficient", [(0.01, 0.25), (1e-100, 3.0), (2.0, 1e300), (1e-150, 1e-10)])
    def test_the_plain_range_keeps_the_plain_bits(self, x, coefficient):
        assert analysis._product(0.5, (x, x, coefficient)) == 0.5 * x * x * coefficient
        assert analysis._product(2.0, (x, coefficient), root=True) == math.sqrt(2.0 * x * coefficient)
        assert analysis._product(0.5, (x, x), coefficient) == x * x / (2.0 * coefficient)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), count=st.integers(0, 3), root=st.booleans())
    def test_drawn_operands_in_the_plain_range_keep_the_plain_bits(self, data, count, root):
        # Each binary exponent is drawn from the range that keeps the running
        # product and the quotient normal, so the draws span the normal range.
        def normal(lo, hi):
            fraction = data.draw(st.floats(0.5, 1.0, exclude_max=True))
            return math.ldexp(fraction, data.draw(st.integers(max(lo, -1021), min(hi, 1024))))

        partials, factors = [normal(-1021, 1024)], []
        for _ in range(count):
            power = math.frexp(partials[-1])[1]
            factors.append(normal(-1020 - power, 1024 - power))
            partials.append(partials[-1] * factors[-1])
        power = math.frexp(partials[-1])[1]
        divisor = normal(power - 1023, power + 1021)
        partials.append(partials[-1] / divisor)
        assert all(sys.float_info.min <= p < math.inf for p in partials)
        expected = math.sqrt(partials[-1]) if root else partials[-1]
        assert analysis._product(partials[0], factors, divisor, root=root) == expected

    def test_reports_use_both_forms(self):
        lam = 1e-160
        # The losses {0, 6e153} have variance 9e306.
        ds = LossDataset([0.0, 6e153])
        variance = summarize(ds).variance
        assert _within_one_ulp(variance_taylor(ds, lam).approx, Fraction(lam) ** 2 * Fraction(variance) / 2)
        inverse = variance_rate_approx(ds, "inverse_rate", 100.0)
        assert _within_one_ulp(inverse.approx, _exact_root(200 * Fraction(variance)))
        # The losses {0, 2e-15} have variance 1e-30, and 2 * 1e-300 * 1e-30 underflows.
        narrow = LossDataset([0.0, 2e-15])
        inverse = variance_rate_approx(narrow, "inverse_rate", 1e-300)
        assert _within_one_ulp(inverse.approx, _exact_root(2 * Fraction(1e-300) * Fraction(summarize(narrow).variance)))
        # 1.4e154 squared overflows; the rate approximation, about 44, does not.
        wide = LossDataset([0.0] + [1.5e154] * 99)
        forward = variance_rate_approx(wide, "rate", 1.4e154)
        assert _within_one_ulp(forward.approx, Fraction(1.4e154) ** 2 / (2 * Fraction(summarize(wide).variance)))
        # The gradients +-1e154 have quadratic form 1e308 along a unit displacement.
        covariance = covariance_taylor(_grad_dataset([[1e154], [-1e154]]), [1.0], lam, s=10.0)
        assert covariance.quadratic_form == 1e308
        assert _within_one_ulp(covariance.report.approx, Fraction(lam) ** 2 * Fraction(1e308) / 2)
        assert _within_one_ulp(covariance.inverse_rate_approx, _exact_root(20 * Fraction(1e308)))

    def test_reports_on_a_variance_whose_squares_overflow(self):
        # The losses {0, 2e154} have variance 1e308, though each square passes the range.
        ds = LossDataset([0.0, 2e154])
        variance = Fraction(summarize(ds).variance)
        assert variance == Fraction(1e308)
        lam = 1e-160
        assert _within_one_ulp(variance_taylor(ds, lam).approx, Fraction(lam) ** 2 * variance / 2)
        inverse = variance_rate_approx(ds, "inverse_rate", 0.1)
        assert _within_one_ulp(inverse.approx, _exact_root(2 * Fraction(0.1) * variance))
        # 2 * variance passes the range, a**2 / (2 * variance) does not.
        forward = variance_rate_approx(ds, "rate", 1e153)
        assert _within_one_ulp(forward.approx, Fraction(1e153) ** 2 / (2 * variance))

    @pytest.mark.parametrize("a, q", [
        (1e153, 1e308), (1.4e154, 2.2275e306), (1e200, 1e300), (1e-170, 1e-300), (1e-170, 1.7e308),
    ])
    def test_a_square_or_twice_the_variance_out_of_range_within_one_ulp(self, a, q):
        assert not (sys.float_info.min <= a * a < math.inf and 2.0 * q < math.inf)
        result = analysis._product(0.5, (a, a), q)
        assert _within_one_ulp(result, Fraction(a) ** 2 / (2 * Fraction(q))), result


class TestGradientNormBound:
    def _dataset(self, norms):
        return LossDataset([0.5] * len(norms), grad_norm_sq=norms)

    def test_zero_norms_give_zero_bounds(self):
        report = gradient_norm_bound(self._dataset([0.0, 0.0]), m_const=1.0, s=0.01, lam=2.0)
        assert report.bound_iinv == 0.0
        assert report.bound_j == 0.0

    def test_formula(self):
        report = gradient_norm_bound(self._dataset([4.0, 4.0]), m_const=1.0, s=0.01)
        np.testing.assert_allclose(report.bound_iinv, 0.2, rtol=1e-15)

    def test_sqrt_homogeneity(self):
        ds = self._dataset([4.0, 4.0])
        one = gradient_norm_bound(ds, m_const=1.0, s=0.01)
        four = gradient_norm_bound(ds, m_const=1.0, s=0.04)
        np.testing.assert_allclose(four.bound_iinv, 2 * one.bound_iinv, rtol=1e-15)

    def test_missing_norms(self, bernoulli_ds):
        with pytest.raises(MissingGradNorms):
            gradient_norm_bound(bernoulli_ds, m_const=1.0, s=0.01)

    def test_norms_whose_sum_overflows(self):
        # fsum over the norms overflows; their mean does not.
        report = gradient_norm_bound(self._dataset([1e308, 1e308]), m_const=1.0, s=0.01, lam=0.5)
        assert report.mean_grad_norm_sq == report.j_coefficient == 1e308
        assert report.bound_j == 2.5e307
