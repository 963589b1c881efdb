"""Point-query sanitizer, synthetic reconstruction, and exhaustive sanitizer."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from dpmulti import sanitize
from dpmulti.domain import (
    PARITY,
    POINT,
    THRESH,
    ConceptClass,
    Distribution,
    MultiLabeledDatabase,
    Universe,
    UniverseMismatchError,
)
from dpmulti.mechanisms import dp_bound_holds, exponential_mechanism_pmf, laplace_sample, noisy_threshold_pmf
from dpmulti.rng import stream
from dpmulti.sanitize import (
    EnumerationBudgetError,
    SanitizedAnswers,
    SyntheticDatabase,
    _exhaustive_candidates,
    _histogram_table,
    answers_to_synthetic,
    check_budget,
    point_sanitizer_rows,
    sanitize_error,
    sanitize_exhaustive,
    sanitize_exhaustive_pmf,
    sanitize_points,
)


def _unlabeled(universe, xs):
    return MultiLabeledDatabase.unlabeled(universe, np.array(xs, dtype=np.int64))


def _reference_closure(cclass):
    """Reference disagreement sets: every pairwise xor of the class's evaluation matrix, deduplicated."""
    base = cclass.eval_matrix(cclass.universe.elements())
    return np.unique((base[:, None, :] ^ base[None, :, :]).reshape(-1, base.shape[1]), axis=0)


def _universe(kind, size):
    return Universe.bitvectors(size.bit_length() - 1) if kind == PARITY else Universe.indexed(size)


def _per_tuple_scores(db, cclass, m):
    """Reference scorer: one bincount per ordered tuple, on the reference disagreement sets."""
    size = db.universe.size
    full = _reference_closure(cclass)
    target = (full @ np.bincount(db.xs, minlength=size).astype(np.float64)) / db.n
    tuples = list(itertools.product(range(size), repeat=m))
    counts = np.zeros((len(tuples), size))
    for i, tup in enumerate(tuples):
        counts[i] = np.bincount(np.array(tup, dtype=np.int64), minlength=size)
    answers = (full @ counts.T) / m
    return -db.n * np.abs(answers - target[:, None]).max(axis=0)


# (|X|, m, class); (256, 2) on parities has C(257, 2) = 32,896 histograms, more than
# a base-(m+1) count key could index in int64. Each id ends in "xor": the queries
# are the class's pairwise-xor closure, its disagreement sets.
EXACT_CASES = [
    pytest.param(size, m, kind, id=f"{size}-{m}-{kind}-xor")
    for size, m in [(2, 1), (2, 12), (3, 4), (8, 5), (256, 2)]
    for kind in ((PARITY,) if size == 256 else (POINT, THRESH))
]


class TestSanitizePoints:
    def test_subthreshold_released_exactly_zero(self):
        # Every element absent from the sample is answered exactly 0.
        u = Universe.indexed(8)
        xs = [0] * 60 + [1] * 2 + [2]
        for trial in range(50):
            ans = sanitize_points(_unlabeled(u, xs), 1.0, 0.05, stream(20, trial))
            assert set(ans.support.tolist()) <= {0, 1, 2}
            assert not ans.as_vector()[3:].any()

    def test_all_distinct_all_zero(self):
        u = Universe.indexed(16)
        xs = list(range(16))  # each count of 1 is released with probability delta/4; none is, 0.96 of the time
        ans = sanitize_points(_unlabeled(u, xs), 1.0, 0.01, stream(20, 100))
        assert ans.support.size == 0 and ans.answers.size == 0

    def test_single_heavy_element_accurate(self):
        alpha, beta, eps = 0.2, 0.1, 1.0
        n = math.ceil(8 * math.log(2 / (alpha * beta)) / (eps * alpha))
        u = Universe.indexed(4)
        good = 0
        for trial in range(100):
            ans = sanitize_points(_unlabeled(u, [3] * n), eps, 0.01, stream(21, trial))
            good += abs(ans.as_vector()[3] - 1.0) <= alpha / 2
        assert good >= 90

    def test_answers_clamped(self):
        # At eps = 2 the count of 10 clears its threshold of 4.7 rows almost always, and its noisy
        # frequency lands above 1 about half the time.
        u = Universe.indexed(2)
        clamped = 0
        for trial in range(200):
            ans = sanitize_points(_unlabeled(u, [0] * 10), 2.0, 0.05, stream(22, trial))
            assert ((0.0 <= ans.answers) & (ans.answers <= 1.0)).all()
            clamped += int((ans.answers == 1.0).sum())
        assert clamped >= 50

    def test_accuracy_at_pinned_rows(self):
        # All queries within alpha, over mixed-frequency databases, in >= 85%
        # of trials at the pinned sample bound (acceptance runs 500 trials).
        alpha, eps, delta, beta = 0.2, 1.0, 0.01, 0.1
        n = point_sanitizer_rows(alpha, beta, delta, eps)
        assert n == 452
        u = Universe.indexed(32)
        weights = np.zeros(32)
        weights[[0, 1, 2]] = [0.3, 0.25, 0.1]
        weights[3:8] = 0.06
        weights[8:13] = 0.01
        dist = Distribution.from_weights(u, weights)
        good = 0
        for trial in range(120):
            rng = stream(23, trial)
            db = _unlabeled(u, dist.sample(n, rng))
            ans = sanitize_points(db, eps, delta, rng)
            truth = np.bincount(db.xs, minlength=32) / n
            good += bool(np.abs(ans.as_vector() - truth).max() <= alpha)
        assert good >= 0.85 * 120

    def test_matches_per_element_loop(self):
        # The release rule one element at a time, ascending x, one draw per
        # nonzero count: same answers, and the stream ends in the same place.
        for trial in range(200):
            rng = stream(26, trial)
            size = int(rng.integers(2, 40))
            weights = rng.random(size) ** 3
            xs = rng.choice(size, size=int(rng.integers(1, 300)), p=weights / weights.sum())
            db = _unlabeled(Universe.indexed(size), xs)
            counts = np.bincount(db.xs, minlength=size)
            eps = float(rng.uniform(0.1, 3.0))
            # Odd trials take a large delta, so that counts of a few rows are released too.
            delta = float(rng.uniform(0.2, 0.9)) if trial % 2 else float(10.0 ** rng.uniform(-8, -1))
            vec, loop, ref = stream(27, trial), stream(27, trial), {}
            ans = sanitize_points(db, eps, delta, vec)
            threshold = (1.0 + 2.0 * math.log(2.0 / delta) / eps) / db.n
            for x in np.flatnonzero(counts):
                noisy = counts[x] / db.n + laplace_sample(2.0 / (eps * db.n), loop)
                if noisy >= threshold:
                    ref[int(x)] = min(noisy, 1.0)
            assert dict(zip(ans.support.tolist(), ans.answers.tolist())) == ref
            assert ans.support.dtype == np.int64 and ans.answers.dtype == np.float64
            assert vec.random() == loop.random()

    def test_rejects_bad_input(self):
        u = Universe.indexed(4)
        with pytest.raises(ValueError):
            sanitize_points(_unlabeled(u, [0]), 1.0, 1.5, stream(24, 0))
        from dpmulti.domain import EmptyDatabaseError

        with pytest.raises(EmptyDatabaseError):
            sanitize_points(_unlabeled(u, []), 1.0, 0.01, stream(24, 1))


def _recorded_release(monkeypatch, count, n, epsilon, delta):
    """(value, scale, threshold) of element 0's noisy_threshold release in sanitize_points, when element 0
    holds count of n rows, or None when the sanitizer gives it no release. A stub in place of
    noisy_threshold releases every value it is given at that value, so the answers name the elements
    that went through it."""
    calls = []

    def release_all(values, scale, threshold, rng):
        calls.append((scale, threshold))
        return np.ones(len(values), dtype=bool), np.asarray(values, dtype=np.float64)

    with monkeypatch.context() as patch:
        patch.setattr(sanitize, "noisy_threshold", release_all)
        ans = sanitize_points(_unlabeled(Universe.indexed(4), [0] * count + [1] * (n - count)),
                              epsilon, delta, stream(28, 0))
    if 0 not in ans.support:
        return None
    return (float(ans.answers[ans.support == 0][0]), *calls[0])


def _answer_grid_pmf(release, edges):
    """Exact pmf of one query's released answer on {0} + grid bins + {1}.

    release is _recorded_release's (value, scale, threshold), or None for an
    element that is answered 0 with probability 1. Otherwise the answer is
    value + Lap(scale), released at or above threshold (else 0) and capped at 1.
    """
    pmf = np.zeros(len(edges) + 1)
    if release is None:
        pmf[0] = 1.0
        return pmf
    value, scale, threshold = release

    def cdf(t):
        if t < 0:
            return 0.5 * math.exp(t / scale)
        return 1 - 0.5 * math.exp(-t / scale)

    pmf[0] = cdf(threshold - value)
    for i in range(len(edges) - 1):
        lo = max(edges[i], threshold)
        hi = edges[i + 1]
        if hi <= lo:
            continue
        pmf[i + 1] = cdf(hi - value) - cdf(lo - value)
    pmf[-1] = 1 - cdf(max(1.0, threshold) - value)
    return pmf


class TestPerQueryPrivacy:
    def test_case_analysis_on_neighboring_counts(self, monkeypatch):
        # Each query's exact (discretized) output law, read off the sanitizer's
        # own release, changes by at most (eps/2, delta/2) when one row moves,
        # at every n. At n = 200 and 400: pairs from the absent element, around
        # the release threshold (8.4 rows at eps = 1, delta = 0.05) and far
        # above it. At n = 10, eps = 0.5, delta = 0.05: every (c, c+1).
        settings = [
            (200, 1.0, 0.05, [(0, 1), (1, 2), (5, 6), (7, 8), (8, 9), (9, 10), (40, 41), (199, 200)]),
            (400, 1.0, 0.05, [(0, 1), (8, 9), (20, 21), (100, 101), (200, 201), (399, 400)]),
            (10, 0.5, 0.05, [(c, c + 1) for c in range(10)]),
        ]
        grid = np.linspace(0.0, 1.0, 41)
        failures, checked = [], 0
        for n, eps, delta, pairs in settings:
            for m0, m1 in pairs:
                laws = []
                for count in (m0, m1):
                    release = _recorded_release(monkeypatch, count, n, eps, delta)
                    pmf = _answer_grid_pmf(release, grid)
                    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
                    if release is not None:
                        # The hand-written release mass is the primitive's.
                        assert 1 - pmf[0] == pytest.approx(noisy_threshold_pmf([release[0]], *release[1:])[0],
                                                           abs=1e-12)
                    laws.append(pmf)
                p, q = laws
                if not (dp_bound_holds(p, q, eps / 2, delta / 2, tol=1e-9)
                        and dp_bound_holds(q, p, eps / 2, delta / 2, tol=1e-9)):
                    failures.append((n, m0, m1))
                checked += 1
        assert failures == []
        assert checked == 24


def _frequencies(synth):
    """Each element's share of the synthetic database's rows, sink rows included in the total."""
    return np.bincount(synth.elements, minlength=synth.universe.size) / synth.size


class TestElementCheck:
    def test_synthetic_rows_must_be_a_1d_array(self):
        with pytest.raises(ValueError, match=r"^elements must be a 1-D array, got shape \(2, 2\)$"):
            SyntheticDatabase(Universe.indexed(8), np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("support,message", [
        ([8], r"^element outside universe of size 8: got \[8, 8\]$"),
        ([0.5], r"^elements must be integers, got dtype float64$"),
    ], ids=["range", "float"])
    def test_answer_support_is_checked(self, support, message):
        with pytest.raises(ValueError, match=message):
            SanitizedAnswers(Universe.indexed(8), support, [1.0])


class TestAnswersToSynthetic:
    def test_exactly_representable(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [2], [1.0]), 0.25)
        assert set(synth.elements.tolist()) == {2}
        assert _frequencies(synth).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_half_half(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [0, 1], [0.5, 0.5]), 0.25)
        assert _frequencies(synth)[:2] == pytest.approx([0.5, 0.5])
        assert synth.size <= math.ceil(1 / 0.25) + 2

    def test_degenerate_empty_answers(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [], []), 0.25)
        assert synth.size == 4 and synth.sink_rows == 4
        assert not _frequencies(synth).any()

    def test_round_trip_bound(self):
        # max_x |freq(x) - a_x| <= alpha for every unit-mass answer map.
        u = Universe.indexed(8)
        rng = stream(25, 0)
        for alpha in (0.1, 0.2, 0.3):
            for _ in range(40):
                n_support = int(rng.integers(1, 6))
                raw = rng.random(n_support)
                raw = raw / raw.sum() * rng.uniform(0.3, 1.0)
                xs = rng.choice(8, size=n_support, replace=False)
                order = np.argsort(xs)
                ans = SanitizedAnswers(u, xs[order], raw[order])
                synth = answers_to_synthetic(ans, alpha)
                assert np.abs(_frequencies(synth) - ans.as_vector()).max() <= alpha + 1e-12
                assert synth.size <= math.ceil(1 / alpha) + len(ans.answers)

    def test_sink_is_outside_universe(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [], []), 0.5)
        assert synth.elements.size == 0 and synth.sink_rows >= 1

    @pytest.mark.parametrize("alpha", [1e-300, 1e-320])
    def test_alpha_too_small_for_the_row_counts_is_named(self, alpha):
        # Refused before the float row counts are cast (pytest turns the cast's RuntimeWarning into an error).
        ans = SanitizedAnswers(Universe.indexed(4), [0, 1], [0.5, 0.5])
        with pytest.raises(ValueError, match=rf"^alpha = {alpha} puts 1/alpha, the synthetic size, at or above 2\^53$"):
            answers_to_synthetic(ans, alpha)

    def test_real_rows_over_the_table_budget_are_refused(self):
        ans = SanitizedAnswers(Universe.indexed(8), [1, 2], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^alpha = 1e-15 asks for \d+ synthetic rows, over the budget of 134217728$"):
            answers_to_synthetic(ans, 1e-15)

    def test_sink_rows_are_not_built_so_not_budgeted(self):
        synth = answers_to_synthetic(SanitizedAnswers(Universe.indexed(8), [], []), 1e-15)
        assert synth.elements.size == 0 and synth.sink_rows == math.ceil(1e15)


class TestSanitizeError:
    def test_identical_databases(self):
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1, 2, 2])
        synth = SyntheticDatabase(u, np.array([0, 1, 2, 2]))
        assert sanitize_error(db, synth, ConceptClass(POINT, u)) == 0.0

    def test_hand_computed(self):
        # On |X| = 2 the thresholds disagree on {} and {1}.
        u = Universe.indexed(2)
        db = _unlabeled(u, [0, 0, 0, 1])
        synth = SyntheticDatabase(u, np.array([0, 1]))
        assert sanitize_error(db, synth, ConceptClass(THRESH, u)) == pytest.approx(0.25)

    @pytest.mark.parametrize("kind,size", [(POINT, 2), (POINT, 9), (THRESH, 2), (THRESH, 9), (PARITY, 8)])
    def test_equals_the_reference_closure_with_sink_rows(self, kind, size):
        # Sink rows leave the synthetic counts short of |D_hat|, so the d-sums need not total 0.
        u = _universe(kind, size)
        full = _reference_closure(ConceptClass(kind, u)).astype(np.float64)
        for trial in range(6):
            rng = stream(38, size, trial)
            db = _unlabeled(u, rng.integers(0, size, size=int(rng.integers(1, 60))))
            synth = SyntheticDatabase(u, rng.integers(0, size, size=int(rng.integers(1, 6))), sink_rows=trial)
            target = full @ np.bincount(db.xs, minlength=size) / db.n
            answers = full @ np.bincount(synth.elements, minlength=size) / synth.size
            assert sanitize_error(db, synth, ConceptClass(kind, u)) == pytest.approx(np.abs(target - answers).max(), abs=1e-15)

    def test_sizes_past_the_exact_int64_sums_are_refused(self):
        u = Universe.indexed(4)
        synth = SyntheticDatabase(u, np.array([0]), sink_rows=(1 << 60) - 1)
        with pytest.raises(ValueError, match=r"^n \* \|D_hat\| = 2305843009213693952 does not fit"):
            sanitize_error(_unlabeled(u, [0, 1]), synth, ConceptClass(THRESH, u))

    def test_query_class_on_another_universe_rejected(self):
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1, 2, 3])
        synth = SyntheticDatabase(u, np.array([0, 0]))
        with pytest.raises(UniverseMismatchError):
            sanitize_error(db, synth, ConceptClass(POINT, Universe.indexed(5)))
        with pytest.raises(UniverseMismatchError):
            sanitize_exhaustive_pmf(db, ConceptClass(THRESH, Universe.bitvectors(2)), 1.0, 2)


def _fresh_candidates(db, cclass, m, eps):
    """Reference: scores on an uncached histogram table, from the exact integers -max |closure . d| for
    d = m c_D - n h over the reference closure, divided by m once, then shifted as _exhaustive_candidates does."""
    histograms, _, log_multinomial = _histogram_table.__wrapped__(cclass, m)
    full = _reference_closure(cclass).astype(np.int64)
    d = m * np.bincount(db.xs, minlength=db.universe.size)[:, None] - db.n * histograms.T.astype(np.int64)
    scores = -np.abs(full @ d).max(axis=0) / m
    return scores + (2.0 / eps) * log_multinomial, histograms


class TestQueryMatrix:
    """The query family is the test-side matrix _reference_closure; the sanitizer scores it in closed form."""

    @pytest.mark.parametrize("kind,size", [(kind, size) for kind in (POINT, THRESH) for size in (2, 3, 8, 33)]
                             + [(PARITY, 1 << d) for d in (1, 2, 4)])
    def test_rows_are_the_reference_closure(self, kind, size):
        # Scores on the closed-form family equal, bit for bit, those on every row of the closure.
        cclass = ConceptClass(kind, _universe(kind, size))
        m = 1 if size == 33 else 3
        for trial in range(3):
            db = _unlabeled(cclass.universe, stream(36, size, trial).integers(0, size, size=1 + 97 * trial))
            scores, histograms = _exhaustive_candidates(db, cclass, m, 1.0)
            fresh_scores, fresh_histograms = _fresh_candidates(db, cclass, m, 1.0)
            assert np.array_equal(histograms, fresh_histograms)
            assert scores.tobytes() == fresh_scores.tobytes()

    @pytest.mark.parametrize("kind,admitted", [(POINT, 11585), (THRESH, 11585), (PARITY, 1 << 13)])
    def test_budget_boundary_at_one_synthetic_row(self, kind, admitted):
        # H x |X| cells at m = 1, where H = |X|: 11585^2 and 2^26 fit 2^27; 11586^2 and 2^28 do not.
        # The check counts the histograms and builds no table.
        before = _histogram_table.cache_info()
        check_budget(ConceptClass(kind, _universe(kind, admitted)), 1)
        refused = 2 * admitted if kind == PARITY else admitted + 1
        with pytest.raises(EnumerationBudgetError, match=f"tables at \\|X\\| = {refused}, m = 1 exceed"):
            check_budget(ConceptClass(kind, _universe(kind, refused)), 1)
        assert _histogram_table.cache_info() == before


class TestHistogramTable:
    def test_entries_are_read_only(self):
        u = Universe.indexed(8)
        for table in _histogram_table(ConceptClass(THRESH, u), 5):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1
        _, histograms = _exhaustive_candidates(_unlabeled(u, [0, 1]), ConceptClass(THRESH, u), 5, 1.0)
        assert not histograms.flags.writeable

    def test_query_classes_get_distinct_entries(self):
        u = Universe.indexed(8)
        query_classes = [ConceptClass(THRESH, u), ConceptClass(POINT, u), ConceptClass(PARITY, Universe.bitvectors(3))]
        answers = [_histogram_table(q, 3)[1] for q in query_classes]
        # All three are held at once, each is its own class's answers, and no two coincide.
        assert all(_histogram_table(q, 3)[1] is a for q, a in zip(query_classes, answers))
        assert all(np.array_equal(a, _histogram_table.__wrapped__(q, 3)[1]) for q, a in zip(query_classes, answers))
        assert len({(a.shape, a.tobytes()) for a in answers}) == len(query_classes)

    def test_warm_scores_equal_a_fresh_build_bit_for_bit(self):
        u = Universe.indexed(8)
        query_class = ConceptClass(THRESH, u)
        _exhaustive_candidates(_unlabeled(u, [0]), query_class, 5, 1.0)  # warm the entry
        for trial in range(4):
            db = _unlabeled(u, stream(34, trial).integers(0, 8, size=50 + 100 * trial))
            for eps in (0.1, 1.0, 3.7, 50.0):
                scores, histograms = _exhaustive_candidates(db, query_class, 5, eps)
                fresh_scores, fresh_histograms = _fresh_candidates(db, query_class, 5, eps)
                assert np.array_equal(histograms, fresh_histograms)
                assert scores.tobytes() == fresh_scores.tobytes()

    def test_over_budget_call_caches_nothing(self):
        u = Universe.indexed(64)
        before = _histogram_table.cache_info()
        for m in (8, 30):
            with pytest.raises(EnumerationBudgetError):
                _exhaustive_candidates(_unlabeled(u, [0, 1]), ConceptClass(POINT, u), m, 1.0)
        after = _histogram_table.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    def test_sampler_and_oracle_share_one_entry(self):
        u = Universe.indexed(5)
        query_class = ConceptClass(THRESH, u)
        db = _unlabeled(u, [0, 1, 1, 4])
        sanitize_exhaustive(db, query_class, 0.5, 1.0, stream(35, 0), synth_size=4)
        before = _histogram_table.cache_info()
        pmf, _ = sanitize_exhaustive_pmf(db, query_class, 1.0, 4)
        after = _histogram_table.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert pmf.shape == (math.comb(8, 4),)


class TestSanitizeExhaustive:
    @pytest.mark.parametrize("epsilon,synth_size", [(1e-320, 1), (1e-320, 3), (1e-308, 1), (2e-308, 4)])
    def test_epsilon_overflowing_the_multinomial_offset_is_named(self, epsilon, synth_size):
        # Refused before (2/eps) ln multinomial(h) gives inf * 0 = nan or an overflow, which pytest's
        # warnings-as-errors would raise. At 2e-308, 2/eps is finite but 2/eps * ln 4! is not.
        u = Universe.indexed(8)
        db = _unlabeled(u, [0, 3, 5, 7])
        message = rf"^epsilon = {epsilon} overflows the offset \(2/epsilon\) ln multinomial\(h\)$"
        with pytest.raises(ValueError, match=message):
            sanitize_exhaustive(db, ConceptClass(THRESH, u), 0.5, epsilon, stream(26, 0), synth_size=synth_size)
        with pytest.raises(ValueError, match=message):
            sanitize_exhaustive_pmf(db, ConceptClass(THRESH, u), epsilon, synth_size)

    def test_smallest_epsilon_with_a_finite_offset_runs(self):
        # 2/eps * ln 3! is just below the largest float.
        u = Universe.indexed(8)
        assert sanitize_exhaustive(_unlabeled(u, [0, 3, 5, 7]), ConceptClass(THRESH, u), 0.5, 2e-308, stream(26, 0),
                                   synth_size=3).size == 3

    def test_output_law_matches_exact_pmf(self):
        # |X|=2, m=2 for D=(0,0,1,1), scored on the thresholds' disagreement sets {} and {1}:
        # the perfect multiset (0,1) scores 0 and stands for two tuples; (0,0) and (1,1)
        # score -2 and stand for one each.
        u = Universe.indexed(2)
        db = _unlabeled(u, [0, 0, 1, 1])
        eps = 2.0
        pmf, multisets = sanitize_exhaustive_pmf(db, ConceptClass(THRESH, u), eps, 2)
        weights = {(0, 0): math.exp(-eps), (0, 1): 2.0, (1, 1): math.exp(-eps)}
        assert multisets == [(0, 0), (0, 1), (1, 1)]
        assert np.allclose(pmf, [weights[t] / sum(weights.values()) for t in multisets])
        counts = {t: 0 for t in multisets}
        for trial in range(4000):
            out = sanitize_exhaustive(db, ConceptClass(THRESH, u), 0.5, eps, stream(26, trial), synth_size=2)
            counts[tuple(out.elements.tolist())] += 1
        freqs = np.array([counts[t] / 4000 for t in multisets])
        assert np.abs(freqs - pmf).max() < 0.03

    def test_high_epsilon_concentrates_on_exact(self):
        u = Universe.indexed(2)
        db = _unlabeled(u, [0, 0, 1, 1])
        hits = 0
        for trial in range(100):
            out = sanitize_exhaustive(db, ConceptClass(THRESH, u), 0.5, 50.0, stream(27, trial), synth_size=2)
            hits += set(out.elements.tolist()) == {0, 1}
        assert hits == 100

    def test_utility_bound(self):
        # P[max-error > alpha] <= |X|^m exp(-eps*alpha*n/2) + MC slack.
        u = Universe.indexed(4)
        rng = stream(28, 0)
        db = _unlabeled(u, rng.integers(0, 4, size=64))
        cclass = ConceptClass(POINT, u)
        eps, alpha, m = 4.0, 0.5, 4
        bound = 4**m * math.exp(-eps * alpha * db.n / 2)
        bad = 0
        trials = 400
        for trial in range(trials):
            out = sanitize_exhaustive(db, cclass, alpha, eps, stream(28, trial + 1), synth_size=m)
            bad += sanitize_error(db, out, cclass) > alpha
        assert bad / trials <= bound + 3 * math.sqrt(max(bound, 0.01) / trials) + 0.01

    def test_budget_exceeded(self):
        u = Universe.indexed(64)
        db = _unlabeled(u, [0, 1])
        with pytest.raises(EnumerationBudgetError, match="sanitize_points"):
            sanitize_exhaustive(db, ConceptClass(POINT, u), 0.1, 1.0, stream(29, 0), synth_size=8)

    def test_rejects_infinite_epsilon(self):
        u = Universe.indexed(4)
        with pytest.raises(ValueError, match="epsilon must be finite, got inf"):
            sanitize_exhaustive_pmf(_unlabeled(u, [0, 1]), ConceptClass(POINT, u), math.inf, 2)

    def test_rejects_empty_synthetic_size(self):
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1])
        with pytest.raises(ValueError, match="synth_size"):
            sanitize_exhaustive(db, ConceptClass(POINT, u), 0.5, 1.0, stream(29, 2), synth_size=0)

    def test_budget_exceeded_at_huge_default_size(self):
        # alpha = 1e-6 plans m ~ 1.5e13 rows; the budget check builds nothing that size.
        u = Universe.indexed(8)
        db = _unlabeled(u, [0, 1])
        with pytest.raises(EnumerationBudgetError, match=r"\|X\| = 8, m = \d+ exceed budget 1048576; "):
            sanitize_exhaustive(db, ConceptClass(THRESH, u), 1e-6, 1.0, stream(29, 1))

    @pytest.mark.parametrize("size,m", [(8, 30), (3, 1447)])
    def test_oracle_budget_counts_histograms(self, size, m):
        # C(37, 30) = 10,295,472 and C(1449, 1447) = 1,049,076 histograms, both over 2^20.
        u = Universe.indexed(size)
        with pytest.raises(EnumerationBudgetError, match=f"\\|X\\| = {size}, m = {m} exceed"):
            sanitize_exhaustive_pmf(_unlabeled(u, [0, 1]), ConceptClass(THRESH, u), 1.0, m)

    def test_runs_where_only_histograms_fit_the_budget(self):
        # 4^58 ordered tuples, but only C(61, 3) = 35,990 histograms.
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1, 1, 3])
        scores, histograms = _exhaustive_candidates(db, ConceptClass(THRESH, u), 58, 1.0)
        assert histograms.shape == (35990, 4) and scores.shape == (35990,)
        out = sanitize_exhaustive(db, ConceptClass(THRESH, u), 0.5, 1.0, stream(29, 3), synth_size=58)
        assert out.size == 58 and np.all(np.diff(out.elements) >= 0)

    @pytest.mark.parametrize("size,m,kind", EXACT_CASES)
    def test_scores_equal_per_tuple_reference(self, size, m, kind):
        # Unshifted, each histogram's score is the reference score of its sorted tuple.
        u = _universe(kind, size)
        db = _unlabeled(u, stream(30, size, m).integers(0, size, size=37))
        query_class = ConceptClass(kind, u)
        eps = 1.0
        scores, histograms = _exhaustive_candidates(db, query_class, m, eps)
        assert len(histograms) == math.comb(size + m - 1, m)
        multinomials = [math.factorial(m) // math.prod(math.factorial(c) for c in h[h > 0]) for h in histograms]
        sorted_tuples = np.repeat(np.tile(np.arange(size), len(histograms)), histograms.ravel()).reshape(-1, m)
        reference = _per_tuple_scores(db, query_class, m)[sorted_tuples @ size ** np.arange(m - 1, -1, -1)]
        assert np.abs(scores - (2.0 / eps) * np.log(multinomials) - reference).max() <= 1e-12

    @pytest.mark.parametrize("size,m,kind", [case for case in EXACT_CASES if case.values[0] ** case.values[1] <= 8**5])
    def test_law_equals_summed_tuple_law(self, size, m, kind):
        # The tuple-level exponential mechanism, summed per sorted tuple, is the histogram law.
        u = _universe(kind, size)
        db = _unlabeled(u, stream(33, size, m).integers(0, size, size=29))
        query_class = ConceptClass(kind, u)
        reference = _per_tuple_scores(db, query_class, m)
        tuples = np.sort(np.array(list(itertools.product(range(size), repeat=m))), axis=1)
        sorted_tuples, outcome = np.unique(tuples, axis=0, return_inverse=True)
        for eps in (0.5, 1.0, 3.0):
            pmf, multisets = sanitize_exhaustive_pmf(db, query_class, eps, m)
            assert multisets == [tuple(t) for t in sorted_tuples.tolist()]
            tuple_pmf = exponential_mechanism_pmf(reference, eps, 1.0)
            summed = np.bincount(outcome.ravel(), weights=tuple_pmf, minlength=len(multisets))
            assert np.abs(pmf - summed).max() <= 1e-12

    def test_release_golden(self):
        # Frozen from the histogram sanitizer: same RNG draws, same released rows.
        u = Universe.indexed(8)
        db = MultiLabeledDatabase.unlabeled(u, stream(31, 0).integers(0, 8, size=400))
        queries = ConceptClass(THRESH, u)
        digest = hashlib.sha256()
        for t in range(20):
            synth = sanitize_exhaustive(db, queries, 0.04, 1.0, stream(31, 1, t), synth_size=5)
            digest.update(synth.elements.tobytes())
        assert digest.hexdigest() == "0e0a7ec08b358d45050eb86d3cfce763fc5ce0b1e4334f7ec040abcfd65e0bfa"
