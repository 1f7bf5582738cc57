"""Closed-form oracles, dataset synthesis, and Monte Carlo tail checks."""

import dataclasses
import hashlib
import itertools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from ratefn import (
    CramerReport,
    DiscreteLossDistribution,
    InvalidA,
    InvalidLambda,
    NonRationalProbs,
    TiltedCramerReport,
    ValidationError,
    cramer_tail,
    estimator_bias_probe,
    exact_cumulant,
    exact_rate,
    exact_tail,
    expand_to_dataset,
    load_distribution,
    sample_dataset,
)
from ratefn import loss_data, oracle
from ratefn.oracle import _atom_index, _count_vectors
from conftest import binary_kl, random_distribution

LN2 = math.log(2.0)


class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteLossDistribution((), ())
        with pytest.raises(ValidationError):
            DiscreteLossDistribution((0.0, 1.0), (0.5,))
        with pytest.raises(ValidationError):
            DiscreteLossDistribution((-0.1,), (1.0,))
        with pytest.raises(ValidationError):
            DiscreteLossDistribution((0.0, 1.0), (0.6, 0.6))
        with pytest.raises(ValidationError):
            DiscreteLossDistribution((0.0, 1.0), (1.0, 0.0))

    def test_summaries(self, bernoulli_dist):
        assert bernoulli_dist.mean == 0.5
        assert bernoulli_dist.min_value == 0.0
        assert bernoulli_dist.min_mass == 0.5

    def test_json_round_trip(self, tmp_path, bernoulli_dist):
        path = tmp_path / "dist.json"
        path.write_text('{"values": [0.0, 1.0], "probs": [0.5, 0.5]}')
        assert load_distribution(path) == bernoulli_dist


class TestExactCumulant:
    def test_single_atom(self):
        dist = DiscreteLossDistribution((0.7,), (1.0,))
        for lam in (0.0, 1.0, 100.0):
            assert exact_cumulant(dist, lam) == 0.0

    def test_two_point_closed_form(self):
        dist = DiscreteLossDistribution((0.0, LN2), (0.5, 0.5))
        value = exact_cumulant(dist, 1.0)
        assert abs(value - 0.058891) < 1e-6

    def test_zero_tilt(self, bernoulli_dist):
        assert exact_cumulant(bernoulli_dist, 0.0) == 0.0

    def test_invalid(self, bernoulli_dist):
        with pytest.raises(InvalidLambda):
            exact_cumulant(bernoulli_dist, -1.0)


class TestExactRate:
    def test_bernoulli_binary_kl(self, bernoulli_dist):
        np.testing.assert_allclose(exact_rate(bernoulli_dist, 0.2), binary_kl(0.3), atol=1e-9)

    def test_beyond_gap_is_infinite(self, bernoulli_dist):
        assert exact_rate(bernoulli_dist, 0.51) == math.inf

    def test_boundary_returns_log_min_mass(self, bernoulli_dist):
        np.testing.assert_allclose(exact_rate(bernoulli_dist, 0.5), LN2, rtol=1e-15)

    def test_single_atom_infinite(self):
        dist = DiscreteLossDistribution((0.7,), (1.0,))
        assert exact_rate(dist, 0.1) == math.inf

    def test_invalid(self, bernoulli_dist):
        with pytest.raises(InvalidA):
            exact_rate(bernoulli_dist, 0.0)


class TestSampling:
    def test_seed_determinism(self, bernoulli_dist):
        a = sample_dataset(bernoulli_dist, 50, seed=123)
        b = sample_dataset(bernoulli_dist, 50, seed=123)
        assert a == b
        c = sample_dataset(bernoulli_dist, 50, seed=124)
        assert a != c

    def test_large_sample_mean(self, bernoulli_dist):
        ds = sample_dataset(bernoulli_dist, 100_000, seed=7)
        assert abs(float(ds.losses.mean()) - 0.5) < 0.01

    def test_single_atom(self):
        dist = DiscreteLossDistribution((0.3,), (1.0,))
        ds = sample_dataset(dist, 10, seed=1)
        assert all(r.loss == 0.3 for r in ds)

    def test_atom_frequencies(self):
        dist = DiscreteLossDistribution((0.0, 1.0, 2.0), (0.2, 0.5, 0.3))
        ds = sample_dataset(dist, 30_000, seed=11)
        losses = ds.losses
        for value, p in zip(dist.values, dist.probs):
            frac = float(np.mean(losses == value))
            assert abs(frac - p) < 0.01


@st.composite
def _atom_counts(draw):
    """Sample counts of 1-20 atoms that sum to at most 1e4, often at a
    count where the number of digits changes."""
    atoms = draw(st.integers(1, 20))
    cap = 10**4 // atoms
    edges = [c for c in (9, 10, 11, 99, 100, 101, 999, 1000, 1001) if c <= cap]
    return draw(st.lists(st.integers(1, cap) | st.sampled_from(edges), min_size=atoms, max_size=atoms))


class TestExpansion:
    def test_half_half(self):
        dist = DiscreteLossDistribution((0.0, LN2), (0.5, 0.5))
        ds = expand_to_dataset(dist, 2)
        assert [r.loss for r in ds] == [0.0, LN2]

    def test_thirds(self):
        dist = DiscreteLossDistribution((0.0, 1.0), (1 / 3, 2 / 3))
        ds = expand_to_dataset(dist, 3)
        assert sorted(r.loss for r in ds) == [0.0, 1.0, 1.0]

    def test_tenths(self):
        dist = DiscreteLossDistribution((0.0, 1.0), (0.3, 0.7))
        ds = expand_to_dataset(dist, 10)
        assert sum(r.loss == 0.0 for r in ds) == 3
        assert sum(r.loss == 1.0 for r in ds) == 7

    def test_non_rational(self):
        dist = DiscreteLossDistribution((0.0, 1.0), (1 / 3, 2 / 3))
        with pytest.raises(NonRationalProbs):
            expand_to_dataset(dist, 10)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_atom_counts())
    @example([9, 10, 99, 100, 999, 1000, 1001])
    @example([10_000])
    def test_ids_name_each_atom_and_copy(self, counts):
        denominator = sum(counts)
        dist = DiscreteLossDistribution(tuple(float(i) for i in range(len(counts))),
                                        tuple(c / denominator for c in counts))
        ds = expand_to_dataset(dist, denominator)
        assert type(ds._sample_ids) is loss_data._SampleIds and ds._sample_ids.ends is None
        assert ds.sample_ids == tuple(f"v{i}c{j}" for i, c in enumerate(counts) for j in range(c))
        assert ds.losses.tolist() == [float(i) for i, c in enumerate(counts) for _ in range(c)]

    def test_ids_take_no_string_per_sample(self):
        # One f-string per sample kept 6.9 MB of a 1e5-loss expansion and
        # peaked at 7.95 MB; packed, the ids take about 9 bytes a sample.
        dist = DiscreteLossDistribution((0.4, 1.1, 1.15, 1.2, 1.6, 1.8), (0.15, 0.2, 0.1, 0.15, 0.2, 0.2))
        expand_to_dataset(dist, 1000)  # imports and caches settle first
        tracemalloc.start()
        try:
            ds = expand_to_dataset(dist, 100_000)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 100_000 and type(ds._sample_ids) is loss_data._SampleIds and ds._sample_ids.ends is None
        assert retained <= 2_000_000, retained
        assert peak <= 3_500_000, peak


class TestCramerTail:
    def test_domain_validation(self, bernoulli_dist):
        with pytest.raises(InvalidA):
            cramer_tail(bernoulli_dist, 10, 0.6, 100, seed=1)
        with pytest.raises(InvalidA):
            cramer_tail(bernoulli_dist, 10, 0.5, 100, seed=1)

    def test_report_bookkeeping(self):
        dist = DiscreteLossDistribution((0.0, 10.0), (0.9, 0.1))
        report = cramer_tail(dist, 1, 0.5, trials=400, seed=3)
        assert report.p_hat == report.hit_count / report.trials
        assert report.hit_count > 0
        np.testing.assert_allclose(report.neg_log_rate, -math.log(report.p_hat))

    def test_certain_hit_gives_zero_rate(self):
        # a draw of the low atom (probability 0.9) is a hit; with one trial of
        # one draw a hit yields p_hat = 1 and a zero decay estimate
        dist = DiscreteLossDistribution((0.0, 10.0), (0.9, 0.1))
        for seed in range(20):
            report = cramer_tail(dist, 1, 0.5, trials=1, seed=seed)
            if report.hit_count == 1:
                assert report.p_hat == 1.0
                assert report.neg_log_rate == 0.0
                break
        else:
            pytest.fail("no hit across 20 seeds, which has probability 1e-20")

    def test_zero_hits_reported_as_infinite(self, bernoulli_dist):
        report = cramer_tail(bernoulli_dist, 30, 0.49, trials=1000, seed=5)
        assert report.hit_count == 0
        assert report.neg_log_rate == math.inf

    def test_seed_determinism_bitwise(self, bernoulli_dist):
        a = cramer_tail(bernoulli_dist, 25, 0.2, trials=40_000, seed=42)
        b = cramer_tail(bernoulli_dist, 25, 0.2, trials=40_000, seed=42)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_estimates_track_the_binomial_tail(self, bernoulli_dist):
        # the simulated event is exactly a binomial CDF; stay within 4 sigma
        report = cramer_tail(bernoulli_dist, 20, 0.2, trials=200_000, seed=9)
        p_true = float(binom.cdf(6, 20, 0.5))
        sigma = math.sqrt(p_true * (1 - p_true) / report.trials)
        assert abs(report.p_hat - p_true) < 4 * sigma

    def test_decay_estimates_decrease_toward_exact(self, bernoulli_dist):
        # the Chernoff bound keeps -(1/n) log p above the exact rate, and the
        # sequence closes in from above as n grows
        reports = [
            cramer_tail(bernoulli_dist, n, 0.2, trials=200_000, seed=21) for n in (20, 40, 60)
        ]
        rates = [r.neg_log_rate for r in reports]
        exact = reports[0].exact_rate
        assert rates[0] > rates[1] > rates[2] > exact
        for r in reports:
            se = math.sqrt((1 - r.p_hat) / (r.p_hat * r.trials)) / r.n
            assert r.neg_log_rate >= exact - 3 * se


class TestTiltedCramerTail:
    def test_resolves_the_n200_tail(self, bernoulli_dist):
        # plain sampling at this size sees no hit; the tilted estimate lands
        # within four of its own standard errors of the binomial tail
        report = cramer_tail(bernoulli_dist, 200, 0.2, trials=100_000, seed=9, method="tilted")
        p_true = float(binom.cdf(60, 200, 0.5))
        assert isinstance(report, TiltedCramerReport)
        assert 0.0 < report.stderr < 0.05 * report.p_hat
        assert abs(report.p_hat - p_true) < 4 * report.stderr
        assert report.neg_log_rate > report.exact_rate
        assert 0.0 < report.effective_sample_size <= report.hit_count <= report.trials

    def test_tilt_is_the_oracle_optimum(self, bernoulli_dist):
        # for a fair coin J'(lam) = a at lam = 2 artanh(2a)
        report = cramer_tail(bernoulli_dist, 10, 0.2, trials=100, seed=1, method="tilted")
        np.testing.assert_allclose(report.tilt, 2 * math.atanh(0.4), rtol=1e-9)
        assert report.exact_rate == exact_rate(bernoulli_dist, 0.2)

    def test_seed_determinism_bitwise(self, bernoulli_dist):
        a = cramer_tail(bernoulli_dist, 60, 0.2, trials=40_000, seed=42, method="tilted")
        b = cramer_tail(bernoulli_dist, 60, 0.2, trials=40_000, seed=42, method="tilted")
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_agrees_with_plain_where_plain_resolves(self):
        dist = DiscreteLossDistribution((0.0, 0.4, 2.5), (0.3, 0.5, 0.2))
        plain = cramer_tail(dist, 30, 0.3, trials=50_000, seed=7)
        tilted = cramer_tail(dist, 30, 0.3, trials=50_000, seed=7, method="tilted")
        plain_se = math.sqrt(plain.p_hat * (1 - plain.p_hat) / plain.trials)
        assert abs(plain.p_hat - tilted.p_hat) < 4 * math.hypot(plain_se, tilted.stderr)

    def test_default_report_is_unchanged(self, bernoulli_dist):
        # the default estimator keeps its stream, its fields and its values
        report = cramer_tail(bernoulli_dist, 25, 0.2, trials=40_000, seed=42)
        assert type(report) is CramerReport
        assert dataclasses.asdict(report) == {
            "n": 25,
            "a": 0.2,
            "trials": 40_000,
            "hit_count": 861,
            "p_hat": 0.021525,
            "neg_log_rate": 0.1535416091467337,
            "exact_rate": 0.08228287850505187,
            "seed": 42,
        }
        explicit = cramer_tail(bernoulli_dist, 25, 0.2, trials=40_000, seed=42, method="plain")
        assert dataclasses.asdict(explicit) == dataclasses.asdict(report)

    def test_unknown_method_rejected(self, bernoulli_dist):
        with pytest.raises(ValidationError):
            cramer_tail(bernoulli_dist, 10, 0.2, 100, seed=1, method="naive")


# Reports recorded with the searchsorted sampler and its 16384-trial chunks;
# the sampler may change only if every field keeps its value bit for bit.
SIX_ATOMS = DiscreteLossDistribution(
    (0.41488192188189377, 1.106709764091541, 1.1464083038943844,
     1.2343144135484188, 1.6432471805007491, 1.8362002580589871),
    (0.15, 0.2, 0.1, 0.15, 0.2, 0.2),
)
FORTY_ATOMS = DiscreteLossDistribution(tuple(0.075 * i for i in range(40)), tuple((i + 1) / 820 for i in range(40)))
ATOMS_160 = DiscreteLossDistribution(tuple(0.02 * i for i in range(160)), tuple((i + 1) / 12880 for i in range(160)))
PINNED = {
    "six": (
        SIX_ATOMS,
        0.14443992969526198,
        {"n": 60, "a": 0.14443992969526198, "trials": 20000, "hit_count": 159, "p_hat": 0.00795,
         "neg_log_rate": 0.0805763891719316, "exact_rate": 0.047575716131377926, "seed": 11},
        {"n": 60, "a": 0.4321848996761736, "trials": 20000, "hit_count": 10075, "p_hat": 1.556870097283608e-12,
         "neg_log_rate": 0.45313906096623935, "exact_rate": 0.406357595947621, "seed": 12,
         "tilt": 1.8617952524581338, "stderr": 3.0335948429074993e-14, "effective_sample_size": 2327.450845423377},
        {"n": 50, "lam": 1.0, "replicates": 400, "mean_estimate": 0.10972122402340047,
         "stderr": 0.0008801126780229671, "exact_value": 0.11186519329332634, "underestimates": True, "seed": 13},
        "32c272831139f37826c2ea5a646d6fd4c07560e2053bb222e83f427247d07e81",
    ),
    "forty": (
        FORTY_ATOMS,
        0.22624654693497534,
        {"n": 60, "a": 0.22624654693497534, "trials": 20000, "hit_count": 169, "p_hat": 0.00845,
         "neg_log_rate": 0.07955981396021758, "exact_rate": 0.04758735912314946, "seed": 11},
        {"n": 60, "a": 0.975, "trials": 20000, "hit_count": 10127, "p_hat": 4.617367644529639e-24,
         "neg_log_rate": 0.895536957717627, "exact_rate": 0.8436740972258301, "seed": 12,
         "tilt": 1.778534259763196, "stderr": 1.074996971878742e-25, "effective_sample_size": 1689.1729181178043},
        {"n": 50, "lam": 1.0, "replicates": 400, "mean_estimate": 0.2742782589093744,
         "stderr": 0.0023277862265462376, "exact_value": 0.2804808806161381, "underestimates": True, "seed": 13},
        "5e3cf1b07662781610a40f884b466c9c435bc3d44d3810cf98f1e12369c9361a",
    ),
    "one-sixty": (
        ATOMS_160,
        0.2344150165838358,
        {"n": 60, "a": 0.2344150165838358, "trials": 20000, "hit_count": 193, "p_hat": 0.00965,
         "neg_log_rate": 0.07734662272718737, "exact_rate": 0.04572183042954302, "seed": 11},
        {"n": 60, "a": 1.06, "trials": 20000, "hit_count": 10081, "p_hat": 2.207452335324305e-25,
         "neg_log_rate": 0.9462131377290058, "exact_rate": 0.893078606588084, "seed": 12,
         "tilt": 1.7411804269532238, "stderr": 5.185063134105888e-27, "effective_sample_size": 1661.9552291745463},
        {"n": 50, "lam": 1.0, "replicates": 400, "mean_estimate": 0.3073238274257175,
         "stderr": 0.0026048832434281146, "exact_value": 0.3143659260619971, "underestimates": True, "seed": 13},
        "4a4d6c9ba9e6dbbef1364709365c19d40066628ed62d1116b5f4ca5d18d853c7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
class TestPinnedReports:
    """Every Monte Carlo report keeps its recorded bits on laws of 6 and 40
    atoms (picked by comparisons) and of 160 (picked by binary search)."""

    def test_plain(self, name):
        dist, a, plain, _, _, _ = PINNED[name]
        assert dataclasses.asdict(cramer_tail(dist, 60, a, 20_000, 11)) == plain

    def test_tilted(self, name):
        dist, _, _, tilted, _, _ = PINNED[name]
        gap = dist.mean - dist.min_value
        assert dataclasses.asdict(cramer_tail(dist, 60, 0.5 * gap, 20_000, 12, method="tilted")) == tilted

    def test_bias_probe(self, name):
        dist, _, _, _, probe, _ = PINNED[name]
        assert dataclasses.asdict(estimator_bias_probe(dist, 50, 1.0, 400, 13)) == probe

    def test_sample_dataset(self, name):
        dist, _, _, _, _, digest = PINNED[name]
        assert hashlib.sha256(sample_dataset(dist, 5000, 14).losses.tobytes()).hexdigest() == digest


SPLIT_A = PINNED["six"][1]
SPLIT_ESTIMATORS = {
    "plain": lambda n, samples, seed: cramer_tail(SIX_ATOMS, n, SPLIT_A, samples, seed),
    "tilted": lambda n, samples, seed: cramer_tail(
        SIX_ATOMS, n, 0.5 * (SIX_ATOMS.mean - SIX_ATOMS.min_value), samples, seed, method="tilted"),
    "bias": lambda n, samples, seed: estimator_bias_probe(SIX_ATOMS, n, 1.0, samples, seed),
}


def _split_samples(estimator, n):
    """Samples that end in a short unit: three and a half weight windows for
    the tilted estimator, else six and a half blocks of rows."""
    if estimator == "tilted":
        return 3 * oracle._WEIGHT_WINDOW + oracle._WEIGHT_WINDOW // 2 + 1
    rows = oracle._block_rows(n)
    return 6 * rows + rows // 2 + 1


class TestSplitStream:
    """The units of draws go to parts that each skip ahead on the Philox
    counter; no report depends on how many parts there are."""

    @pytest.mark.parametrize("n", [1, 3, 25, 60, 80])
    @pytest.mark.parametrize("estimator", sorted(SPLIT_ESTIMATORS))
    def test_reports_do_not_depend_on_the_part_count(self, monkeypatch, estimator, n):
        # odd n puts parts at offsets that are not multiples of Philox's four doubles
        run, samples = SPLIT_ESTIMATORS[estimator], _split_samples(estimator, n)
        reports = {}
        for parts in (1, 2, 3, 5):
            monkeypatch.setattr(oracle, "_part_count", lambda units, parts=parts: parts)
            reports[parts] = dataclasses.asdict(run(n, samples, 17))
        if estimator != "bias":  # at n = 1 every plug-in estimate is 0
            assert reports[1]["hit_count"] > 0
        for parts in (2, 3, 5):
            assert reports[parts] == reports[1], parts

    def test_eight_parts_under_a_short_switch_interval(self, monkeypatch):
        # eight parts hand the interpreter lock around every few microseconds;
        # a lost or misplaced unit result would change the reports
        serial = {name: dataclasses.asdict(run(3, _split_samples(name, 3), 19))
                  for name, run in SPLIT_ESTIMATORS.items()}
        monkeypatch.setattr(oracle, "_part_count", lambda units: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = {name: dataclasses.asdict(run(3, _split_samples(name, 3), 19))
                     for name, run in SPLIT_ESTIMATORS.items()}
        finally:
            sys.setswitchinterval(interval)
        assert split == serial

    def test_part_count(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert [oracle._part_count(units) for units in (1, 2, 3)] == [1, 1, 1]
        assert oracle._part_count(10**6) == min(cpus, oracle._MAX_PARTS)
        assert oracle._part_count(4) == min(cpus, 2)

    def test_one_part_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(oracle, "_part_count", lambda units: 1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        for run in SPLIT_ESTIMATORS.values():
            run(80, 2000, 5)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("estimator", sorted(SPLIT_ESTIMATORS))
    def test_a_failing_part_stops_every_part(self, monkeypatch, estimator, parts, error):
        n, fail_at = 80, 4
        samples = _split_samples(estimator, n)
        blocks_per_unit = -(-oracle._WEIGHT_WINDOW // oracle._block_rows(n)) if estimator == "tilted" else 1
        draw, calls = oracle._draw_losses, itertools.count(1)

        def failing_draw(*args):
            if next(calls) == fail_at:
                raise error("a failing block")
            return draw(*args)

        monkeypatch.setattr(oracle, "_draw_losses", failing_draw)
        monkeypatch.setattr(oracle, "_part_count", lambda units: parts)
        baseline = threading.active_count()
        with pytest.raises(error, match="a failing block"):
            SPLIT_ESTIMATORS[estimator](n, samples, 3)
        assert threading.active_count() == baseline
        # every other part finishes at most the unit it is in
        assert next(calls) - 1 <= fail_at + (parts - 1) * blocks_per_unit

    def test_a_thread_that_does_not_start_stops_the_split(self, monkeypatch):
        start, started = threading.Thread.start, itertools.count()

        def start_one(thread):
            if next(started):
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(oracle, "_part_count", lambda units: 3)
        monkeypatch.setattr(threading.Thread, "start", start_one)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            SPLIT_ESTIMATORS["plain"](80, _split_samples("plain", 80), 3)
        assert threading.active_count() == baseline


def _searchsorted_index(cum, u):
    return np.clip(np.searchsorted(cum, u, side="right"), 0, len(cum) - 1)


def _crafted_uniforms(cum):
    """Each cumulative boundary, its neighbouring floats, the ends of [0, 1) and random draws."""
    edges = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    ends = [0.0, np.nextafter(1.0, 0.0)]
    return np.concatenate([edges, ends, np.random.default_rng(0).random(4096)])


class TestAtomIndex:
    """Counting comparisons picks the same atom as the clipped binary search."""

    def assert_same(self, cum):
        cum = np.asarray(cum, dtype=np.float64)
        u = _crafted_uniforms(cum)
        idx = _atom_index(cum, u)
        np.testing.assert_array_equal(idx, _searchsorted_index(cum, u))
        grid = u[: 4 * (len(u) // 4)].reshape(4, -1)
        np.testing.assert_array_equal(_atom_index(cum, grid), _searchsorted_index(cum, grid))

    def test_boundaries_pick_the_upper_atom(self):
        cum = np.cumsum(SIX_ATOMS.probs)
        self.assert_same(cum)
        assert list(_atom_index(cum, cum[:-1])) == [1, 2, 3, 4, 5]
        assert list(_atom_index(cum, np.nextafter(cum[:-1], 0.0))) == [0, 1, 2, 3, 4]

    def test_cumulative_mass_short_of_one(self):
        cum = np.cumsum([0.1] * 10)
        assert cum[-1] < 1.0
        self.assert_same(cum)
        assert _atom_index(cum, np.array([cum[-1], np.nextafter(1.0, 0.0)])).tolist() == [9, 9]

    def test_tilted_law_with_zero_mass_atoms(self):
        # far atoms underflow to mass 0 under the tilt, so cumulative masses repeat,
        # in the middle (an unsorted law) and at the end
        values = np.array([0.0, 900.0, 1.0, 2.0, 800.0, 950.0])
        tilted = np.full(6, 1 / 6) * np.exp(-2.0 * (values - values.min()))
        tilted /= tilted.sum()
        cum = np.cumsum(tilted)
        assert tilted[1] == 0.0 and cum[0] == cum[1] and cum[-1] == cum[-2]
        self.assert_same(cum)
        assert _atom_index(cum, cum[:1]).tolist() == [2]

    def test_single_atom(self):
        self.assert_same([1.0])
        assert not _atom_index(np.array([1.0]), np.random.default_rng(1).random(50)).any()

    @pytest.mark.parametrize("atoms", [oracle._COMPARE_ATOMS, oracle._COMPARE_ATOMS + 1])
    def test_both_sides_of_the_search_threshold(self, atoms):
        probs = np.random.default_rng(atoms).integers(1, 20, atoms).astype(float)
        self.assert_same(np.cumsum(probs / probs.sum()))


# Three-atom laws whose deviations put no count vector on the boundary at n in {50, 100, 200}.
TAIL_LAWS = {
    "a": (DiscreteLossDistribution((0.0, 0.37, 1.3), (0.3, 0.45, 0.25)), 0.0712345, 0.2012345),
    "b": (DiscreteLossDistribution((0.2, 1.0, 2.75), (0.5, 0.35, 0.15)), 0.1234567, 0.3012345),
}


class TestExactTail:
    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_bernoulli_is_the_binomial_cdf(self, bernoulli_dist, n):
        # the boundary count 0.3n is a tie, and a tie is a hit
        np.testing.assert_allclose(exact_tail(bernoulli_dist, n, 0.2), binom.cdf(int(0.3 * n), n, 0.5), rtol=1e-12)

    def test_ties_are_decided_on_exact_rationals(self):
        # two draws of 0.1 and one of 0.7 sit exactly on the boundary 3 * (0.4 - 0.1)
        dist = DiscreteLossDistribution((0.1, 0.7), (0.5, 0.5))
        np.testing.assert_allclose(exact_tail(dist, 3, 0.1), 0.5, rtol=1e-14)
        np.testing.assert_allclose(exact_tail(dist, 3, 0.1000001), 0.125, rtol=1e-14)

    def test_blocked_enumeration_matches_merged_atoms(self):
        # splitting an atom in two leaves the law, and the tail, unchanged; at n = 100
        # the four-atom law enumerates its 176851 count vectors in several blocks
        split = DiscreteLossDistribution((0.0, 1.0, 1.0, 2.0), (0.25, 0.25, 0.25, 0.25))
        merged = DiscreteLossDistribution((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
        for a in (0.1234, 0.25):
            np.testing.assert_allclose(exact_tail(split, 100, a), exact_tail(merged, 100, a), rtol=1e-12)

    @pytest.mark.parametrize(("n", "k"), [(0, 3), (12, 1), (40, 2), (9, 3), (7, 4), (6, 5)])
    def test_count_vector_blocks(self, monkeypatch, n, k):
        # with blocks of at most 10 rows, leading counts are grouped and, when one
        # alone completes to more than 10 vectors, split again on the next count
        monkeypatch.setattr(oracle, "_COUNT_BLOCK", 10)
        blocks = list(_count_vectors(n, k))
        rows = np.concatenate(blocks)
        assert max(len(b) for b in blocks) <= 10
        assert rows.shape == (math.comb(n + k - 1, k - 1), k)
        assert (rows >= 0).all() and (rows.sum(axis=1) == n).all()
        assert len({tuple(r) for r in rows.tolist()}) == len(rows)
        if k == 2:
            assert len(blocks) == -(-(n + 1) // 10)

    def test_two_atoms_at_a_million_draws(self):
        # 1000001 count vectors come in 16 full blocks; a = 0.25/n leaves no tie, and
        # the tail is half of what the central binomial term leaves
        n = 10**6
        assert sum(1 for _ in _count_vectors(n, 2)) == -(-(n + 1) // oracle._COUNT_BLOCK)
        central = math.exp(math.lgamma(n + 1) - 2 * math.lgamma(n / 2 + 1) - n * LN2)
        coin = DiscreteLossDistribution((0.0, 1.0), (0.5, 0.5))
        np.testing.assert_allclose(exact_tail(coin, n, 0.25 / n), (1 - central) / 2, rtol=1e-7)

    def test_single_atom_never_deviates(self):
        assert exact_tail(DiscreteLossDistribution((0.7,), (1.0,)), 10, 0.1) == 0.0

    def test_refuses_too_many_count_vectors(self):
        with pytest.raises(ValidationError):
            exact_tail(SIX_ATOMS, 200, 0.2)
        with pytest.raises(InvalidA):
            exact_tail(SIX_ATOMS, 10, 0.0)

    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("law", sorted(TAIL_LAWS))
    def test_monte_carlo_estimates_agree(self, law, n):
        # each estimator lands within four of its own standard errors of the exact tail
        dist, a, rare_a = TAIL_LAWS[law]
        p = exact_tail(dist, n, a)
        plain = cramer_tail(dist, n, a, trials=20_000, seed=n + 1)
        plain_se = math.sqrt(plain.p_hat * (1 - plain.p_hat) / plain.trials)
        assert abs(plain.p_hat - p) < 4 * plain_se
        for deviation, seed in ((a, n + 2), (rare_a, n + 3)):
            tilted = cramer_tail(dist, n, deviation, trials=20_000, seed=seed, method="tilted")
            assert abs(tilted.p_hat - exact_tail(dist, n, deviation)) < 4 * tilted.stderr


class TestAugmentedTails:
    def test_pair_averaging_thins_the_tail(self):
        # averaging pairs of draws yields means of 2n draws: the deviation
        # probability can only go down, up to Monte Carlo noise
        flat = DiscreteLossDistribution((0.0, 1.0), (0.5, 0.5))
        averaged = DiscreteLossDistribution((0.0, 0.5, 1.0), (0.25, 0.5, 0.25))
        for a in (0.1, 0.2, 0.3):
            rf = cramer_tail(flat, 40, a, trials=200_000, seed=33)
            ra = cramer_tail(averaged, 40, a, trials=200_000, seed=34)
            se_f = math.sqrt(max(rf.p_hat * (1 - rf.p_hat), 1e-12) / rf.trials)
            se_a = math.sqrt(max(ra.p_hat * (1 - ra.p_hat), 1e-12) / ra.trials)
            assert ra.p_hat <= rf.p_hat + 3 * (se_f + se_a)


class TestBiasProbe:
    def test_single_atom_exact(self):
        dist = DiscreteLossDistribution((0.7,), (1.0,))
        report = estimator_bias_probe(dist, 20, 1.0, replicates=50, seed=1)
        assert report.mean_estimate == 0.0
        assert report.exact_value == 0.0
        assert report.underestimates

    def test_bernoulli_flag_true(self, bernoulli_dist):
        report = estimator_bias_probe(bernoulli_dist, 50, 2.0, replicates=1000, seed=2)
        assert report.underestimates
        assert report.mean_estimate < report.exact_value  # visible downward bias

    def test_large_samples_converge(self, bernoulli_dist):
        report = estimator_bias_probe(bernoulli_dist, 1_000_000, 2.0, replicates=30, seed=3)
        assert abs(report.mean_estimate - report.exact_value) < 1e-3

    def test_replicate_floor(self, bernoulli_dist):
        with pytest.raises(ValidationError):
            estimator_bias_probe(bernoulli_dist, 10, 1.0, replicates=10, seed=1)

    def test_determinism(self, bernoulli_dist):
        a = estimator_bias_probe(bernoulli_dist, 30, 1.5, replicates=64, seed=9)
        b = estimator_bias_probe(bernoulli_dist, 30, 1.5, replicates=64, seed=9)
        assert a == b


class TestRandomDistributionFactory:
    def test_expansion_matches_probabilities(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            dist, denom = random_distribution(rng)
            ds = expand_to_dataset(dist, denom)
            assert len(ds) == denom
