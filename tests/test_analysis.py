"""Bounds, smoothness verdicts, augmentation checks, and quadratic approximations."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ratefn import (
    DimensionMismatch,
    InvalidA,
    LambdaGrid,
    LossDataset,
    MissingGradients,
    MissingGradNorms,
    ModelMeta,
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
from ratefn import loss_data
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

    def test_non_finite_deviation_is_rejected_not_skipped(self, bernoulli_ds):
        for bad in (math.nan, math.inf, -0.1):
            with pytest.raises(InvalidA):
                interpolator_ordering(0.0, bernoulli_ds, bernoulli_ds, ModelMeta(10, 100, 0.05), a_values=[bad])


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
