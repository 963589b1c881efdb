"""Mechanism primitives: Laplace, the noisy threshold, exponential mechanism,
stable selection, composition accounting, and the exact DP inequality checker."""

import math
import re

import numpy as np
import pytest
import scipy.stats

from dpmulti.mechanisms import (
    PrivacyLedger,
    PrivacyParams,
    compose_advanced,
    compose_basic,
    compose_basic_copies,
    dp_bound_holds,
    exponential_mechanism,
    exponential_mechanism_pmf,
    laplace_sample,
    noisy_threshold,
    noisy_threshold_pmf,
    stable_argmax,
    stable_argmax_pmf,
)
from dpmulti.rng import stream

# Frozen against a 50-digit mpmath evaluation of the composition formulas.
BASIC_GOLDEN = [
    ([(0.1, 0.0)], 0.1, 0.0),
    ([(0.1, 0.0)] * 4, 0.4, 0.0),
    ([(0.1, 1e-06)] * 2, 0.2, 2e-06),
    ([(0.5, 0.01), (0.25, 0.001)], 0.75, 0.011),
    ([(1.0, 0.0)] * 3, 3.0, 0.0),
    ([(0.01, 1e-09)] * 100, 1.0, 1e-07),
    ([(2.0, 0.05)], 2.0, 0.05),
    ([(0.3, 0.0), (0.7, 0.1)], 1.0, 0.1),
    ([(0.05, 0.0001)] * 7, 0.35, 0.0007),
    ([(0.125, 0.0)] * 16, 2.0, 0.0),
]
ADVANCED_GOLDEN = [
    ((100, 0.01, 0.0, 1e-06), 0.5456521769756932, 1e-06),
    ((1, 0.1, 0.0, 0.01), 0.3234854258770293, 0.01),
    ((8, 0.05, 1e-07, 1e-05), 0.7186140424415112, 1.08e-05),
    ((50, 0.02, 0.0, 1e-08), 0.8983864105157389, 1e-08),
    ((16, 0.05, 0.0, 0.001), 0.8233844377699677, 0.001),
    ((200, 0.005, 1e-09, 1e-06), 0.38169221888498384, 1.2e-06),
    ((2, 0.3, 0.01, 0.05), 1.3984910295613713, 0.07),
    ((1000, 0.001, 0.0, 1e-09), 0.20558421273245336, 1e-09),
    ((32, 0.01, 1e-06, 0.0001), 0.2491883407016234, 0.000132),
    ((64, 0.025, 0.0, 0.01), 0.6869708517540586, 0.01),
]


class TestLaplace:
    def test_tail_probability(self):
        # P[|Lap(b)| > b] = 1/e; one million draws pin it to +-0.003.
        draws = laplace_sample(2.0, stream(10, 0), size=1_000_000)
        tail = np.mean(np.abs(draws) > 2.0)
        assert abs(tail - math.exp(-1)) < 0.003

    def test_median_near_zero(self):
        draws = laplace_sample(1.0, stream(10, 1), size=200_000)
        assert abs(np.median(draws)) < 0.01

    def test_deterministic_under_seed(self):
        a = laplace_sample(1.0, stream(10, 2), size=10)
        b = laplace_sample(1.0, stream(10, 2), size=10)
        assert (a == b).all()

    def test_scalar_and_scale_validation(self):
        x = laplace_sample(0.5, stream(10, 3))
        assert np.isscalar(x) or x.shape == ()
        with pytest.raises(ValueError):
            laplace_sample(0.0, stream(10, 3))

    def test_infinite_scale_rejected(self):
        # An infinite scale would draw +-inf instead of noise.
        with pytest.raises(ValueError, match="scale must be finite, got inf"):
            laplace_sample(math.inf, stream(10, 3))

    def test_survival_function(self):
        # P[Lap(1) >= t] at t = 0, 1, -1: the release law of values -t at threshold 0.
        sf = noisy_threshold_pmf([0.0, -1.0, 1.0], 1.0, 0.0)
        assert sf[0] == 0.5
        assert sf[1] == pytest.approx(0.5 * math.exp(-1))
        assert sf[2] == pytest.approx(1 - 0.5 * math.exp(-1))

    def test_distribution_shape_kolmogorov_smirnov(self):
        # The inverse-CDF sampler matches the analytic law, not just its tails.
        draws = laplace_sample(1.5, stream(10, 4), size=100_000)
        stat = scipy.stats.kstest(draws, scipy.stats.laplace(scale=1.5).cdf).statistic
        assert stat < 0.006  # ~1.63/sqrt(n) is the 1% KS cutoff at 0.0052


class TestNoisyThreshold:
    def test_vector_call_is_a_loop_of_scalar_draws(self):
        # One uniform per value, in order: the same stream gives the same noise
        # through one vector call or one scalar laplace_sample per value, and
        # leaves the stream at the same place.
        values = np.array([0.3, -1.0, 2.5, 0.0, 7.0, 0.31])
        vec = stream(13, 0)
        released, noisy = noisy_threshold(values, 0.4, 0.3, vec)
        loop = stream(13, 0)
        expected = np.array([v + laplace_sample(0.4, loop) for v in values])
        assert noisy.tolist() == expected.tolist()
        assert released.tolist() == (expected >= 0.3).tolist()
        assert vec.random() == loop.random()

    def test_release_rate_matches_pmf(self):
        values = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        scale, threshold, trials = 0.7, 0.5, 20_000
        p = noisy_threshold_pmf(values, scale, threshold)
        rng = stream(13, 1)
        hits = sum(noisy_threshold(values, scale, threshold, rng)[0] for _ in range(trials))
        # Four binomial standard deviations, per value.
        assert (np.abs(hits / trials - p) <= 4 * np.sqrt(p * (1 - p) / trials)).all()

    def test_exact_dp_for_bounded_moves(self):
        # A value that moves by at most Delta gives (Delta/scale, 0)-DP (release, bottom) laws.
        for scale, threshold, sensitivity in [(0.5, 1.0, 1.0), (2.0, 0.0, 0.5), (0.01, 0.25, 0.02)]:
            values = np.linspace(threshold - 10 * scale, threshold + 10 * scale, 41)
            for shift in (-sensitivity, -sensitivity / 3, sensitivity / 2, sensitivity):
                p = noisy_threshold_pmf(values, scale, threshold)
                q = noisy_threshold_pmf(values + shift, scale, threshold)
                for a, b in zip(p, q):
                    assert dp_bound_holds([a, 1 - a], [b, 1 - b], sensitivity / scale, 0.0)
                    assert dp_bound_holds([b, 1 - b], [a, 1 - a], sensitivity / scale, 0.0)

    @pytest.mark.parametrize("scale,message", [
        (0.0, "scale must be positive, got 0.0"),
        (-1.0, "scale must be positive, got -1.0"),
        (math.inf, "scale must be finite, got inf"),
    ], ids=["zero", "negative", "inf"])
    @pytest.mark.parametrize("call", [
        lambda scale: noisy_threshold([0.0, 1.0], scale, 0.5, stream(13, 2)),
        lambda scale: noisy_threshold_pmf([0.0, 1.0], scale, 0.5),
    ], ids=["sampler", "pmf"])
    def test_bad_scale_is_named(self, call, scale, message):
        with pytest.raises(ValueError, match=message):
            call(scale)


class TestExponentialMechanism:
    def test_closed_form_two_candidates(self):
        pmf = exponential_mechanism_pmf(np.array([10.0, 0.0]), 2.0, 1.0)
        assert pmf[0] == pytest.approx(math.exp(10) / (math.exp(10) + 1), abs=1e-12)
        assert pmf[1] == pytest.approx(1 / (math.exp(10) + 1), rel=1e-9)

    def test_equal_scores_uniform(self):
        pmf = exponential_mechanism_pmf(np.full(4, 3.0), 1.0, 1.0)
        assert np.allclose(pmf, 0.25)
        assert abs(pmf.sum() - 1.0) < 1e-12

    def test_epsilon_zero_uniform(self):
        pmf = exponential_mechanism_pmf(np.arange(5.0), 0.0, 1.0)
        assert np.allclose(pmf, 0.2)

    def test_infinite_epsilon_rejected(self):
        # exp(inf * score) would give an all-NaN pmf, and every draw the last candidate.
        with pytest.raises(ValueError, match="epsilon must be finite, got inf"):
            exponential_mechanism_pmf(np.array([0.0, -1.0]), math.inf, 1.0)

    def test_overflowing_logit_rejected(self):
        # At eps = 1e308 the logit of score 3 overflows; the max shift would give an all-NaN pmf,
        # and every draw the first candidate. Below the overflow the pmf is the concentrated law.
        with pytest.raises(ValueError, match=r"^epsilon = 1e\+308 overflows a logit"):
            exponential_mechanism_pmf(np.array([3.0, 0.0]), 1e308, 1.0)
        assert exponential_mechanism_pmf(np.array([3.0, 0.0]), 1e300, 1.0).tolist() == [1.0, 0.0]

    def test_shift_invariance(self):
        scores = np.array([4.0, -1.0, 2.5])
        assert np.allclose(
            exponential_mechanism_pmf(scores, 1.3, 2.0),
            exponential_mechanism_pmf(scores + 137.0, 1.3, 2.0),
        )

    def test_single_candidate_always_returned(self):
        rng = stream(11, 0)
        assert all(
            exponential_mechanism(np.array([0.0]), 1.0, 1.0, rng) == 0
            for _ in range(20)
        )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            exponential_mechanism_pmf([], 1.0, 1.0)

    def test_sampling_matches_pmf_chisquare(self):
        # Sampled frequencies match the exact pmf by a chi-square GoF test at 1e-3.
        scores = np.array([3.0, 2.0, 1.0, 0.0])
        pmf = exponential_mechanism_pmf(scores, 1.0, 1.0)
        rng = stream(11, 1)
        draws = 100_000
        counts = np.zeros(4)
        for _ in range(draws):
            counts[exponential_mechanism(scores, 1.0, 1.0, rng)] += 1
        stat = float(((counts - draws * pmf) ** 2 / (draws * pmf)).sum())
        assert stat < scipy.stats.chi2.ppf(1 - 1e-3, df=3)

    def test_utility_bound_monte_carlo(self):
        # P[score <= OPT - t*n] <= |F| exp(-eps*t*n/2) for sensitivity-1 scores.
        n, eps, t = 100, 0.5, 0.2
        rng = stream(11, 2)
        scores = rng.integers(0, n + 1, size=16).astype(float)
        opt = scores.max()
        bound = 16 * math.exp(-eps * t * n / 2)
        draws = 20_000
        bad = sum(
            scores[exponential_mechanism(scores, eps, 1.0, rng)] <= opt - t * n
            for _ in range(draws)
        )
        slack = 3 * math.sqrt(bound * (1 - min(bound, 1)) / draws) + 0.005
        assert bad / draws <= bound + slack

    def test_exact_dp_on_neighboring_scores(self):
        # Neighboring score vectors (entrywise shift <= sensitivity) satisfy the
        # (eps, 0) inequality exactly, both directions.
        rng = stream(11, 3)
        eps, sens = 0.8, 1.0
        for _ in range(50):
            k = int(rng.integers(2, 33))
            base = rng.integers(0, 50, size=k).astype(float)
            neighbor = base + rng.uniform(-sens, sens, size=k)
            p = exponential_mechanism_pmf(base, eps, sens)
            q = exponential_mechanism_pmf(neighbor, eps, sens)
            assert dp_bound_holds(p, q, eps, 0.0)
            assert dp_bound_holds(q, p, eps, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_array_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            exponential_mechanism(np.array([0.0, bad, -1.0]), 1.0, 1.0, stream(11, 6))

    def test_empty_score_array_rejected(self):
        with pytest.raises(ValueError):
            exponential_mechanism_pmf(np.array([], dtype=np.float64), 1.0, 1.0)


def _row_scores(k, shape_seed, h, ties):
    """A seeded (k, h) score array; with ties, integer scores in a range of 3 so that rows repeat values."""
    rng = stream(14, shape_seed)
    if ties:
        return rng.integers(-1, 2, size=(k, h)).astype(np.float64)
    return rng.normal(scale=20.0, size=(k, h))


# (k, H, ties): one candidate, H around numpy's pairwise-sum block of 128, many tied scores.
ROW_SHAPES = [(3, 1, False), (5, 7, False), (4, 127, False), (4, 128, False), (3, 129, True), (2, 1000, False),
              (6, 300, True), (1, 792, False), (8, 6, True)]


class TestRowWiseExponentialMechanism:
    @pytest.mark.parametrize("k,h,ties", ROW_SHAPES)
    def test_row_pmf_is_the_1d_pmf_bit_for_bit(self, k, h, ties):
        scores = _row_scores(k, h, h, ties)
        rows = exponential_mechanism_pmf(scores, 0.7, 1.0)
        assert rows.shape == (k, h)
        for j in range(k):
            assert rows[j].tobytes() == exponential_mechanism_pmf(scores[j], 0.7, 1.0).tobytes(), j
        # A strided (Fortran-order) copy of the same scores gives the same bits.
        assert exponential_mechanism_pmf(np.asfortranarray(scores), 0.7, 1.0).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("k,h,ties", ROW_SHAPES)
    def test_row_draws_are_a_loop_of_scalar_draws(self, k, h, ties):
        # One uniform per row, in row order: the same stream gives the same picks through one
        # row-wise call or one 1-D call per row, and leaves the stream at the same place.
        scores = _row_scores(k, h, h, ties)
        for seed in range(5):
            rows, loop = stream(15, seed), stream(15, seed)
            picks = exponential_mechanism(scores, 0.7, 1.0, rows)
            assert picks.shape == (k,) and picks.dtype.kind == "i"
            assert picks.tolist() == [exponential_mechanism(row, 0.7, 1.0, loop) for row in scores]
            assert rows.random() == loop.random()

    def test_zero_rows_draw_nothing(self):
        rng = stream(15, 99)
        picks = exponential_mechanism(np.zeros((0, 5)), 1.0, 1.0, rng)
        assert picks.shape == (0,)
        assert exponential_mechanism_pmf(np.zeros((0, 5)), 1.0, 1.0).shape == (0, 5)
        assert rng.random() == stream(15, 99).random()

    def test_one_dimensional_call_returns_an_int(self):
        assert type(exponential_mechanism(np.array([0.0, 1.0]), 1.0, 1.0, stream(15, 1))) is int

    @pytest.mark.parametrize("row,epsilon,sensitivity", [
        ([0.0, math.nan, -1.0], 1.0, 1.0),
        ([0.0, math.inf, -1.0], 1.0, 1.0),
        ([0.0, -math.inf, -1.0], 1.0, 1.0),
        ([0.0, 1.0, 2.0], -1.0, 1.0),
        ([0.0, 1.0, 2.0], math.inf, 1.0),
        ([0.0, 1.0, 2.0], math.nan, 1.0),
        ([0.0, 1.0, 2.0], 1.0, 0.0),
        ([3.0, 0.0, 1.0], 1e308, 1.0),
    ], ids=["nan", "inf", "-inf", "negative-eps", "inf-eps", "nan-eps", "zero-sensitivity", "overflow"])
    def test_row_call_refuses_with_the_1d_message(self, row, epsilon, sensitivity):
        with pytest.raises(ValueError) as one_d:
            exponential_mechanism(np.array(row), epsilon, sensitivity, stream(15, 2))
        scores = np.array([[0.0, 0.5, 1.0], row, [1.0, 1.0, 1.0]])
        for call in (lambda: exponential_mechanism(scores, epsilon, sensitivity, stream(15, 2)),
                     lambda: exponential_mechanism_pmf(scores, epsilon, sensitivity)):
            with pytest.raises(ValueError) as rows:
                call()
            assert str(rows.value) == str(one_d.value)

    @pytest.mark.parametrize("shape", [(), (2, 0), (0, 0), (2, 2, 2)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"non-empty last axis, got shape {re.escape(str(shape))}$"):
            exponential_mechanism_pmf(np.zeros(shape), 1.0, 1.0)


class TestStableArgmax:
    def test_large_gap_releases_argmax(self):
        eps, delta, beta = 1.0, 0.01, 0.1
        gap = math.log(1 / (delta * beta)) / eps + 0.5
        rng = stream(12, 0)
        hits = sum(stable_argmax(gap, eps, delta, rng) == 0 for _ in range(1000))
        assert hits >= 900

    def test_zero_gap_release_rate_is_half_delta(self):
        p_top, p_bot = stable_argmax_pmf(0.0, 1.0, 0.01)
        assert p_top == pytest.approx(0.005)
        assert p_top + p_bot == pytest.approx(1.0)
        rng = stream(12, 1)
        hits = sum(stable_argmax(0.0, 1.0, 0.01, rng) == 0 for _ in range(4000))
        assert hits / 4000 <= 0.015

    def test_never_returns_runner_up(self):
        rng = stream(12, 2)
        outs = {stable_argmax(1.0, 0.5, 0.05, rng) for _ in range(500)}
        assert outs <= {0, None}

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            stable_argmax(-1.0, 1.0, 0.1, stream(12, 3))

    @pytest.mark.parametrize("gap,epsilon,delta,message", [
        (-1.0, 1.0, 0.1, "gap must be finite and non-negative, got -1.0"),
        (math.nan, 1.0, 0.1, "gap must be finite and non-negative, got nan"),
        (math.inf, 1.0, 0.1, "gap must be finite and non-negative, got inf"),
        (0.0, 0.0, 0.1, "epsilon must be positive, got 0.0"),
        (0.0, math.inf, 0.1, "epsilon must be finite, got inf"),
        (0.0, 1.0, 0.0, r"delta must be in \(0, 1\), got 0.0"),
        (0.0, 1.0, 1.0, r"delta must be in \(0, 1\), got 1.0"),
    ], ids=["negative-gap", "nan-gap", "inf-gap", "zero-epsilon", "inf-epsilon", "zero-delta", "one-delta"])
    @pytest.mark.parametrize("call", [
        lambda gap, eps, delta: stable_argmax(gap, eps, delta, stream(12, 3)),
        stable_argmax_pmf,
    ], ids=["sampler", "pmf"])
    def test_bad_argument_is_named(self, call, gap, epsilon, delta, message):
        # The sampler and its exact oracle share one check, so both reject alike.
        with pytest.raises(ValueError, match=message):
            call(gap, epsilon, delta)

    def test_dp_on_gap_statistic(self):
        # Exact two-point output laws of neighboring gaps satisfy (eps, delta)-DP.
        for eps, delta in [(0.5, 0.01), (1.0, 0.05), (2.0, 0.001)]:
            for gap in np.linspace(0, 3 * math.log(1 / delta) / eps, 25):
                for shift in (-1.0, -0.5, 0.5, 1.0):
                    other = gap + shift
                    if other < 0:
                        continue
                    p = np.array(stable_argmax_pmf(gap, eps, delta))
                    q = np.array(stable_argmax_pmf(other, eps, delta))
                    assert dp_bound_holds(p, q, eps, delta)
                    assert dp_bound_holds(q, p, eps, delta)


class TestComposition:
    def test_single_charge_identity(self):
        assert compose_basic([PrivacyParams(0.3, 0.01)]) == PrivacyParams(0.3, 0.01)

    @pytest.mark.parametrize("epsilon,message", [
        (math.inf, "epsilon must be finite, got inf"),
        (math.nan, "epsilon must be positive, got nan"),
        (0.0, "epsilon must be positive, got 0.0"),
    ])
    def test_charge_needs_positive_finite_epsilon(self, epsilon, message):
        with pytest.raises(ValueError, match=message):
            PrivacyParams(epsilon, 0.01)

    def test_basic_examples(self):
        assert compose_basic([PrivacyParams(0.1)] * 4) == PrivacyParams(0.4, 0.0)
        total = compose_basic([PrivacyParams(0.1, 1e-6)] * 2)
        assert total.epsilon == pytest.approx(0.2) and total.delta == pytest.approx(2e-6)

    def test_advanced_dominates_single_charge(self):
        adv = compose_advanced(PrivacyParams(0.1), 1, 0.01)
        assert adv.epsilon >= 0.1

    def test_advanced_beats_basic_for_many_small_charges(self):
        # delta' = 0.05 pinned: sqrt(2m ln 20)*eps + 2m eps^2 < m*eps needs
        # ln(1/delta') below (m - 2m*eps)^2 / (2m), which 0.05 satisfies for
        # every m >= 8, eps <= 0.05 (1e-6 would not at m = 8).
        for m in (8, 32, 100):
            for eps in (0.01, 0.05):
                charge = PrivacyParams(eps)
                assert compose_advanced(charge, m, 0.05).epsilon < compose_basic([charge] * m).epsilon

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError):
            compose_basic([])

    def test_basic_refuses_a_composed_delta_of_one(self):
        with pytest.raises(ValueError, match=r"^the composed delta of 4 charges must be in \[0, 1\), got 1\.0$"):
            compose_basic([PrivacyParams(0.1, 0.25)] * 4)

    def test_basic_refuses_a_composed_epsilon_past_the_largest_float(self):
        with pytest.raises(ValueError, match=r"^the composed epsilon of 3 charges must be finite, got inf$"):
            compose_basic([PrivacyParams(1e308)] * 3)

    @pytest.mark.parametrize("charge,m,delta_prime,message", [
        (PrivacyParams(1e200), 3, 0.1, r"^the composed epsilon of 3 charges must be finite, got inf$"),
        (PrivacyParams(1e154), 3, 0.1, r"^the composed epsilon of 3 charges must be finite, got inf$"),
        (PrivacyParams(1.0, 0.2), 10, 0.5, r"^the composed delta of 10 charges must be in \[0, 1\), got 2\.5$"),
    ], ids=["epsilon-squared-overflows", "epsilon-total-past-largest-float", "delta-total-past-one"])
    def test_advanced_refuses_a_total_as_basic_does(self, charge, m, delta_prime, message):
        with pytest.raises(ValueError, match=message):
            compose_advanced(charge, m, delta_prime)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 100, 1000, 12345])
    @pytest.mark.parametrize("epsilon,delta", [(0.1, 0.0), (0.01, 1e-09), (0.3, 1e-7), (1 / 3, 1e-5), (0.05, 3e-5)])
    def test_basic_copies_equal_the_list_total(self, m, epsilon, delta):
        # m * x and fsum of m copies of x are both the correctly rounded product.
        charge = PrivacyParams(epsilon, delta)
        assert compose_basic_copies(charge, m) == compose_basic([charge] * m)

    @pytest.mark.parametrize("charges,eps,delta", [case for case in BASIC_GOLDEN if len(set(case[0])) == 1])
    def test_basic_copies_golden(self, charges, eps, delta):
        total = compose_basic_copies(PrivacyParams(*charges[0]), len(charges))
        assert total.epsilon == pytest.approx(eps, rel=1e-13, abs=1e-300)
        assert total.delta == pytest.approx(delta, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("m", [10**30, 10**400])
    @pytest.mark.parametrize("compose", [compose_basic_copies, lambda charge, m: compose_advanced(charge, m, 0.1)],
                             ids=["basic", "advanced"])
    def test_a_count_past_any_list_composes_or_is_refused_by_its_total(self, compose, m):
        # 10**30 copies compose to a finite epsilon; 10**400 does not fit a float, so epsilon overflows
        # before delta's m * 0.0 would.
        if m < 2**1024:
            assert compose(PrivacyParams(1.0), m).delta in (0.0, 0.1)
        else:
            with pytest.raises(ValueError, match=rf"^the composed epsilon of {m} charges must be finite, got inf$"):
                compose(PrivacyParams(1.0), m)

    @pytest.mark.parametrize("m", [0, -3])
    def test_a_count_below_one_is_refused(self, m):
        for compose in (compose_basic_copies, lambda charge, m: compose_advanced(charge, m, 0.1)):
            with pytest.raises(ValueError, match=rf"^cannot compose {m} charges$"):
                compose(PrivacyParams(1.0), m)

    @pytest.mark.parametrize("charges,eps,delta", BASIC_GOLDEN)
    def test_basic_golden(self, charges, eps, delta):
        total = compose_basic([PrivacyParams(e, d) for e, d in charges])
        assert total.epsilon == pytest.approx(eps, rel=1e-13, abs=1e-300)
        assert total.delta == pytest.approx(delta, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("case,eps,delta", ADVANCED_GOLDEN)
    def test_advanced_golden(self, case, eps, delta):
        m, e, d, dp = case
        total = compose_advanced(PrivacyParams(e, d), m, dp)
        assert total.epsilon == pytest.approx(eps, rel=1e-13, abs=1e-300)
        assert total.delta == pytest.approx(delta, rel=1e-13, abs=1e-300)

    def test_ledger_interface(self):
        ledger = PrivacyLedger([PrivacyParams(0.5, 0.25)] * 2)
        assert ledger.basic_total() == PrivacyParams(1.0, 0.5)
        assert compose_advanced(ledger.charges[0], len(ledger.charges), 0.01).delta == pytest.approx(0.51)


class TestDpBoundHolds:
    def test_identical_pmfs(self):
        p = np.array([0.2, 0.3, 0.5])
        assert dp_bound_holds(p, p, 0.0, 0.0)

    def test_disjoint_supports_fail(self):
        assert not dp_bound_holds(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, 0.0)

    def test_delta_absorbs_small_excess(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.5, 0.5])
        assert not dp_bound_holds(p, q, 0.0, 0.05)
        assert dp_bound_holds(p, q, 0.0, 0.11)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dp_bound_holds(np.array([1.0]), np.array([0.5, 0.5]), 1.0, 0.0)

    def test_monotone_in_epsilon_and_delta(self):
        # Passing at (eps, delta) implies passing at any weaker guarantee.
        rng = stream(13, 0)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            p = rng.random(k)
            p /= p.sum()
            q = rng.random(k)
            q /= q.sum()
            eps = float(rng.uniform(0, 2))
            delta = float(rng.uniform(0, 0.3))
            if dp_bound_holds(p, q, eps, delta):
                assert dp_bound_holds(p, q, eps + 0.5, delta)
                assert dp_bound_holds(p, q, eps, min(delta + 0.1, 0.99))


class TestPrivacyParamsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            PrivacyParams(0.0)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 1.0)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, -0.1)
