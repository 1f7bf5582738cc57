"""Acceptance gates. Each test prints one PASS/FAIL line (run with -s or -v).

Gate 4 measures its n=200 tail, a ~7.5e-9 event probability, with the
exponentially tilted estimator: plain Monte Carlo at 10^6 trials cannot
resolve it (the gate's docstring gives the arithmetic). The gate still checks
the plain estimator against the tilted one where plain sampling sees the event.
"""

import json
import math
import time

import numpy as np
from scipy.stats import binom

from ratefn import (
    DiscreteLossDistribution,
    LambdaGrid,
    ModelMeta,
    cramer_tail,
    cumulant_curve,
    cumulant_derivative,
    estimate_cumulant,
    estimator_bias_probe,
    exact_cumulant,
    expand_to_dataset,
    from_losses,
    generalization_bound,
    grid_inverse_rate,
    inverse_rate,
    rate,
    reduce_augmented,
    summarize,
    variance_rate_approx,
    variance_taylor,
)
from ratefn.cli import run
from conftest import binary_kl, random_dataset, random_distribution

LN2 = math.log(2.0)


def _report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_oracle_equality():
    """Plug-in cumulant on an exactly expanded distribution equals the closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = LambdaGrid.default()
    worst = 0.0
    for _ in range(20):
        dist, denom = random_distribution(rng, max_atoms=8)
        ds = expand_to_dataset(dist, denom)
        for lam in grid.values:
            diff = abs(estimate_cumulant(ds, lam) - exact_cumulant(dist, lam))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, "oracle-equality", ok, f"max |diff| {worst:.2e} over 20 dists x 64 tilts, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_legendre_round_trip():
    """rate(inverse_rate(s)) recovers s to 1e-6 relative across budget grids."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        ds = random_dataset(rng, size=int(rng.integers(20, 60)))
        b_max = inverse_rate(ds, 1e-6).b_max
        for s in np.geomspace(1e-4 * b_max, 0.9 * b_max, 32):
            s = float(s)
            ev = inverse_rate(ds, s)
            assert not ev.saturated
            back = rate(ds, ev.value)
            err = abs(back.value - s) / max(1.0, s)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(2, "legendre-round-trip", ok, f"max rel err {worst:.2e} over 10 datasets x 32 budgets, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_03_bernoulli_rate_identity():
    """Rate of the {0,1} dataset equals the binary relative entropy."""
    ds = from_losses([0.0, 1.0])
    worst = 0.0
    for a in (0.05, 0.1, 0.2, 0.3):
        worst = max(worst, abs(rate(ds, a).value - binary_kl(0.5 - a)))
    _report(3, "bernoulli-rate-identity", worst <= 1e-6, f"max |diff| {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_04_cramer_desk_scale():
    """Monte Carlo tail decay at n in {50,100,200} versus the exact rate.

    The event is a Binomial(n, 1/2) mean undershooting by 0.2. At n=200 its
    true probability is binom.cdf(60, 200, 0.5) = 7.535e-9, so plain Monte
    Carlo at 1e6 trials gives zero hits with probability ~0.9925 (an infinite
    decay estimate), and any nonzero outcome is p_hat >= 1e-6, whose decay
    estimate -(1/200)*log(p_hat) <= 0.06908 sits at least 16% below the exact
    rate 0.08228, outside the 15% tolerance. The gate therefore measures every
    n with the exponentially tilted estimator, whose standard error stays a
    small fraction of p_hat. The true decay at n=200 is 0.0935, 13.6% above the
    exact rate: the Bahadur-Rao prefactor, not noise. At n=50 and n=100, where
    plain sampling sees the event, the default estimator must agree with the
    tilted one within four combined standard errors.
    """
    t0 = time.perf_counter()
    dist = DiscreteLossDistribution((0.0, 1.0), (0.5, 0.5))
    reports = {
        n: cramer_tail(dist, n, 0.2, trials=10**6, seed=2026, method="tilted") for n in (50, 100, 200)
    }
    plain = {n: cramer_tail(dist, n, 0.2, trials=10**6, seed=2026) for n in (50, 100)}
    elapsed = time.perf_counter() - t0
    exact = reports[50].exact_rate
    for n, rep in reports.items():
        true_p = float(binom.cdf(int(0.3 * n), n, 0.5))
        print(
            f"  n={n}: p_hat={rep.p_hat:.3e} +- {rep.stderr:.1e} (true {true_p:.3e}) "
            f"ess={rep.effective_sample_size:.0f} neg_log_rate={rep.neg_log_rate:.5f} exact={exact:.5f}"
        )
    z_plain = {}
    for n, rep in plain.items():
        se = math.hypot(_plain_se(rep), reports[n].stderr)
        z_plain[n] = abs(rep.p_hat - reports[n].p_hat) / se
        print(f"  n={n}: plain hits={rep.hit_count} p_hat={rep.p_hat:.3e} ({z_plain[n]:.2f} combined SE)")
    rates = [reports[n].neg_log_rate for n in (50, 100, 200)]
    monotone = rates[0] > rates[1] > rates[2] >= exact - _three_se(reports[200])
    rel_dev = abs(reports[200].neg_log_rate - exact) / exact
    agree = all(z <= 4.0 for z in z_plain.values())
    ok = monotone and rel_dev <= 0.15 and agree
    _report(
        4,
        "cramer-desk-scale",
        ok,
        f"n=200 rel dev {rel_dev:.3f} vs 0.15 allowed; plain vs tilted "
        f"{max(z_plain.values()):.2f} SE vs 4; runtime {elapsed:.1f}s",
    )
    assert elapsed < 90.0
    assert monotone and rel_dev <= 0.15, f"decay estimates {rates} vs exact {exact}"
    assert agree, f"plain and tilted p_hat differ by {z_plain} combined standard errors"


def _plain_se(report):
    return math.sqrt(report.p_hat * (1.0 - report.p_hat) / report.trials)


def _three_se(report):
    """Three standard errors of ``neg_log_rate`` (delta method on the report's own stderr)."""
    return 3.0 * report.stderr / (report.p_hat * report.n)


def test_criterion_05_augmentation_jensen():
    """Group averaging never raises the cumulant; chained grouping orders the drop."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    grid = LambdaGrid.default()
    min_gap = math.inf
    for _ in range(100):
        n_groups = int(rng.integers(2, 8))
        group_size = int(rng.integers(2, 5))
        m = n_groups * group_size
        losses = rng.uniform(0.0, 2.0, size=m)
        groups = [f"g{i % n_groups}" for i in range(m)]
        flat = from_losses(losses)
        reduced = reduce_augmented(from_losses(losses, group_ids=groups))

        group_vars = [
            float(np.var(losses[np.array([g == f"g{k}" for g in groups])]))
            for k in range(n_groups)
        ]
        gaps = [
            estimate_cumulant(flat, lam) - estimate_cumulant(reduced, lam) for lam in grid.values
        ]
        min_gap = min(min_gap, min(gaps))
        assert min(gaps) >= -1e-12
        if max(group_vars) > 1e-6:
            assert max(gaps) > 1e-10  # averaging a spread-out group must strictly help

        # chain a second grouping on top: pairs of groups, equal sizes kept
        if n_groups % 2 == 0:
            outer = {f"g{k}": f"o{k // 2}" for k in range(n_groups)}
            twice = reduce_augmented(
                from_losses(
                    reduced.losses,
                    group_ids=[outer[sample_id] for sample_id in reduced.sample_ids],
                )
            )
            for lam in grid.values[::8]:
                j_flat = estimate_cumulant(flat, lam)
                j_once = estimate_cumulant(reduced, lam)
                j_twice = estimate_cumulant(twice, lam)
                assert j_twice <= j_once + 1e-12 <= j_flat + 2e-12
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(5, "augmentation-jensen", ok, f"100 datasets, min gap {min_gap:.1e}, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_06_property_suites():
    """Structural properties of the three functions over 200 random datasets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    log_grid = LambdaGrid.default()
    lin_grid = LambdaGrid.linear(0.2, 4.0, 9)
    for _ in range(200):
        ds = random_dataset(rng, size=int(rng.integers(5, 50)))
        s_summary = summarize(ds)
        mean, gap = s_summary.empirical_loss, s_summary.empirical_loss - s_summary.min_loss

        assert estimate_cumulant(ds, 0.0) == 0.0

        curve = cumulant_curve(ds, log_grid)
        assert all(j >= 0.0 for j in curve.j_values)
        assert all(b >= a - 1e-12 for a, b in zip(curve.j_values, curve.j_values[1:]))
        for lam, j in zip(log_grid.values, curve.j_values):
            assert j <= lam * mean * (1 + 1e-12) + 1e-12
        for lam, dj in zip(log_grid.values, curve.j_derivs):
            assert 0.0 <= dj <= gap

        lin = cumulant_curve(ds, lin_grid)
        for i in range(1, len(lin_grid) - 1):
            assert lin.j_values[i] <= (lin.j_values[i - 1] + lin.j_values[i + 1]) / 2 + 1e-12

        a_points = [0.2 * gap, 0.45 * gap, 0.7 * gap]
        rate_vals = [rate(ds, a).value for a in a_points]
        assert all(v >= 0.0 for v in rate_vals)
        assert rate_vals[0] <= rate_vals[1] <= rate_vals[2] + 1e-12
        assert rate_vals[1] <= (rate_vals[0] + rate_vals[2]) / 2 + 1e-10

        b_max = inverse_rate(ds, 1e-6).b_max
        s_points = [0.1 * b_max, 0.4 * b_max, 0.7 * b_max]
        inv_vals = [inverse_rate(ds, s).value for s in s_points]
        assert all(0.0 <= v <= mean for v in inv_vals)
        assert inv_vals[0] <= inv_vals[1] <= inv_vals[2] + 1e-12
        assert inv_vals[1] >= (inv_vals[0] + inv_vals[2]) / 2 - 1e-10

        for s in (s_points[0], s_points[2]):
            assert grid_inverse_rate(ds, s, log_grid).value >= inverse_rate(ds, s).value - 1e-12
    elapsed = time.perf_counter() - t0
    _report(6, "property-suites", True, f"200 datasets, {elapsed:.2f}s")


def test_criterion_07_taylor_scaling():
    """Quadratic-fit error scales cubically; quadratic rate forms stay within 5%."""
    ds = from_losses([0.0, LN2, LN2])  # two loss levels, unequal mass: cubic term alive
    errors = [variance_taylor(ds, lam).abs_error for lam in (0.04, 0.02, 0.01)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(6.5 <= r <= 9.5 for r in ratios)

    bern = from_losses([0.0, 1.0])
    b_max = inverse_rate(bern, 1e-6).b_max
    rel_errs = []
    for a in (0.01, 0.02, 0.05):
        rep = variance_rate_approx(bern, "rate", a)
        rel_errs.append(rep.abs_error / rep.exact)
    for s in (0.01 * b_max, 0.03 * b_max, 0.05 * b_max):
        rep = variance_rate_approx(bern, "inverse_rate", s)
        rel_errs.append(rep.abs_error / rep.exact)
    ok = ok and max(rel_errs) < 0.05
    _report(7, "taylor-scaling", ok, f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}; max rel {max(rel_errs):.3f}")
    assert all(6.5 <= r <= 9.5 for r in ratios)
    assert max(rel_errs) < 0.05


def test_criterion_08_estimator_bias():
    """The plug-in cumulant underestimates on average across random distributions."""
    rng = np.random.default_rng(808)
    flags = []
    for k in range(10):
        dist, _ = random_distribution(rng)
        report = estimator_bias_probe(dist, n=50, lam=2.0, replicates=1000, seed=900 + k)
        flags.append(report.underestimates)
    _report(8, "estimator-bias", all(flags), f"{sum(flags)}/10 distributions flagged as underestimating")
    assert all(flags)


def test_criterion_09_determinism(tmp_path):
    """Seeded commands rerun to byte-identical output files."""
    dist_path = tmp_path / "bern.json"
    dist_path.write_text('{"values": [0.0, 1.0], "probs": [0.5, 0.5]}')
    byte_equal = []
    for args in (
        ["simulate-cramer", "--dist", str(dist_path), "--n", "25", "--a", "0.2",
         "--trials", "20000", "--seed", "11"],
        ["bias-probe", "--dist", str(dist_path), "--n", "40", "--lambda", "1.5",
         "--replicates", "200", "--seed", "12"],
    ):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--output", str(out_a)]) == 0
        assert run(args + ["--output", str(out_b)]) == 0
        byte_equal.append(out_a.read_bytes() == out_b.read_bytes())
    _report(9, "determinism", all(byte_equal), f"{sum(byte_equal)}/2 seeded commands byte-identical")
    assert all(byte_equal)


def test_criterion_10_bound_sanity():
    """The population-loss bound always lands in [mean, 2*mean]."""
    rng = np.random.default_rng(1010)
    for _ in range(100):
        ds = random_dataset(rng, size=int(rng.integers(3, 80)), scale=float(rng.uniform(0.5, 5.0)))
        meta = ModelMeta(
            int(rng.integers(1, 10_000)),
            int(rng.integers(5, 100_000)),
            float(rng.uniform(0.001, 0.999)),
        )
        report = generalization_bound(ds, meta)
        mean = summarize(ds).empirical_loss
        assert mean <= report.upper_bound <= 2 * mean + 1e-12
    _report(10, "bound-sanity", True, "100 random datasets and metas")
