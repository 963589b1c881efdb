"""Point-query sanitizer, synthetic reconstruction, and exhaustive sanitizer."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from dpmulti.domain import (
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
    _query_matrix,
    answers_to_synthetic,
    point_sanitizer_min_rows,
    point_sanitizer_rows,
    sanitize_error,
    sanitize_exhaustive,
    sanitize_exhaustive_pmf,
    sanitize_points,
)


def _unlabeled(universe, xs):
    return MultiLabeledDatabase.unlabeled(universe, np.array(xs, dtype=np.int64))


def _per_tuple_scores(db, query_class, m):
    """Reference scorer: one bincount per ordered tuple, on a freshly built query matrix."""
    size = db.universe.size
    full = _query_matrix.__wrapped__(query_class)
    target = (full @ np.bincount(db.xs, minlength=size).astype(np.float64)) / db.n
    tuples = list(itertools.product(range(size), repeat=m))
    counts = np.zeros((len(tuples), size))
    for i, tup in enumerate(tuples):
        counts[i] = np.bincount(np.array(tup, dtype=np.int64), minlength=size)
    answers = (full @ counts.T) / m
    return -db.n * np.abs(answers - target[:, None]).max(axis=0)


# (|X|, m, query class); (200, 2) has more histograms than a base-(m+1) count key
# could index in int64. Its xor closure (~20k queries) is left out: the
# reference would multiply that by 40k tuples.
EXACT_CASES = [
    (size, m, kind, queries)
    for size, m in [(2, 1), (2, 12), (3, 4), (8, 5), (200, 2)]
    for kind in (POINT, THRESH)
    for queries in (("plain",) if size == 200 else ("plain", "xor"))
]


class TestSanitizePoints:
    def test_subthreshold_released_exactly_zero(self):
        # Counts at or below alpha/4 never reach the noisy branch.
        u = Universe.indexed(8)
        xs = [0] * 60 + [1] * 2 + [2]  # 2/63 and 1/63 are below 0.5/4
        alpha = 0.5
        for trial in range(50):
            ans = sanitize_points(_unlabeled(u, xs), alpha, 1.0, 0.05, stream(20, trial))
            assert ans.answer(1) == 0.0
            assert ans.answer(2) == 0.0
            assert ans.answer(7) == 0.0

    def test_all_distinct_all_zero(self):
        u = Universe.indexed(16)
        xs = list(range(16))  # 1/16 <= alpha/4 for alpha = 0.25
        ans = sanitize_points(_unlabeled(u, xs), 0.25, 1.0, 0.01, stream(20, 100))
        assert ans.support.size == 0 and ans.answers.size == 0

    def test_single_heavy_element_accurate(self):
        alpha, beta, eps = 0.2, 0.1, 1.0
        n = math.ceil(8 * math.log(2 / (alpha * beta)) / (eps * alpha))
        u = Universe.indexed(4)
        good = 0
        for trial in range(100):
            ans = sanitize_points(_unlabeled(u, [3] * n), alpha, eps, 0.01, stream(21, trial))
            good += abs(ans.answer(3) - 1.0) <= alpha / 2
        assert good >= 90

    def test_answers_clamped(self):
        u = Universe.indexed(2)
        for trial in range(200):
            ans = sanitize_points(_unlabeled(u, [0] * 10), 0.3, 0.2, 0.05, stream(22, trial))
            assert ((0.0 <= ans.answers) & (ans.answers <= 1.0)).all()

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
            ans = sanitize_points(db, alpha, eps, delta, rng)
            truth = np.bincount(db.xs, minlength=32) / n
            good += bool(np.abs(ans.as_vector() - truth).max() <= alpha)
        assert good >= 0.85 * 120

    def test_min_rows_helper(self):
        # exp(-eps*n*alpha/8 + eps/2) <= delta at the returned n.
        for alpha, eps, delta in [(0.2, 1.0, 0.01), (0.5, 0.5, 0.001)]:
            n = point_sanitizer_min_rows(alpha, eps, delta)
            assert math.exp(-eps * n * alpha / 8 + eps / 2) <= delta
            assert math.exp(-eps * (n - 2) * alpha / 8 + eps / 2) > delta * 0.5

    def test_matches_per_element_loop(self):
        # The release rule one element at a time, ascending x, one draw per
        # count above alpha/4: same answers, and the stream ends in the same place.
        for trial in range(200):
            rng = stream(26, trial)
            size = int(rng.integers(2, 40))
            weights = rng.random(size) ** 3
            xs = rng.choice(size, size=int(rng.integers(1, 300)), p=weights / weights.sum())
            db = _unlabeled(Universe.indexed(size), xs)
            counts = np.bincount(db.xs, minlength=size)
            alpha, eps = float(rng.uniform(0.02, 0.9)), float(rng.uniform(0.1, 3.0))
            if trial % 2:  # the alpha/4 cut falls exactly on an occurring count
                alpha = min(4.0 * rng.choice(counts[counts > 0]) / db.n, 0.9)
            vec, loop, ref = stream(27, trial), stream(27, trial), {}
            ans = sanitize_points(db, alpha, eps, 0.01, vec)
            for x in np.flatnonzero(counts):
                if counts[x] / db.n > alpha / 4:
                    noisy = counts[x] / db.n + laplace_sample(2.0 / (eps * db.n), loop)
                    if noisy >= alpha / 2:
                        ref[int(x)] = min(noisy, 1.0)
            assert dict(zip(ans.support.tolist(), ans.answers.tolist())) == ref
            assert ans.support.dtype == np.int64 and ans.answers.dtype == np.float64
            assert vec.random() == loop.random()

    def test_rejects_bad_input(self):
        u = Universe.indexed(4)
        with pytest.raises(ValueError):
            sanitize_points(_unlabeled(u, [0]), 1.5, 1.0, 0.01, stream(24, 0))
        from dpmulti.domain import EmptyDatabaseError

        with pytest.raises(EmptyDatabaseError):
            sanitize_points(_unlabeled(u, []), 0.2, 1.0, 0.01, stream(24, 1))


def _answer_grid_pmf(count, n, alpha, epsilon, edges):
    """Exact pmf of one query's released answer on {0} + grid bins + {1}.

    Mirrors the four-step release rule: sub-threshold counts release 0 with
    probability 1; otherwise Lap(2/(eps n)) noise, a release-0 cut at alpha/2,
    and clamping of values above 1.
    """
    frac = count / n
    pmf = np.zeros(len(edges) + 1)
    if frac <= alpha / 4:
        pmf[0] = 1.0
        return pmf
    scale = 2.0 / (epsilon * n)

    def cdf(t):
        if t < 0:
            return 0.5 * math.exp(t / scale)
        return 1 - 0.5 * math.exp(-t / scale)

    pmf[0] = cdf(alpha / 2 - frac)
    for i in range(len(edges) - 1):
        lo = max(edges[i], alpha / 2)
        hi = edges[i + 1]
        if hi <= alpha / 2:
            continue
        pmf[i + 1] = max(0.0, cdf(hi - frac) - cdf(lo - frac))
    pmf[-1] = 1 - cdf(1 - frac)
    return pmf


class TestPerQueryPrivacy:
    def test_case_analysis_on_neighboring_counts(self):
        # Each query's exact (discretized) output law changes by at most
        # (eps/2, delta/2) when one row moves, provided n clears the
        # release-0 tail bound. 16 neighboring pairs across both regimes.
        alpha, eps, delta = 0.5, 1.0, 0.05
        n = 200
        assert n >= point_sanitizer_min_rows(alpha, eps, delta)
        boundary = int(alpha * n / 4)
        pairs = [(0, 1), (5, 6), (boundary - 1, boundary), (boundary, boundary + 1),
                 (boundary + 1, boundary + 2), (40, 41), (120, 121), (199, 200)]
        alpha2, n2 = 0.2, 400
        assert n2 >= point_sanitizer_min_rows(alpha2, eps, delta)
        boundary2 = int(alpha2 * n2 / 4)
        pairs2 = [(0, 1), (boundary2, boundary2 + 1), (boundary2 + 5, boundary2 + 6),
                  (100, 101), (200, 201), (399, 400), (boundary2 - 1, boundary2),
                  (boundary2 + 1, boundary2 + 2)]
        checked = 0
        for a, e, nn, plist in [(alpha, eps, n, pairs), (alpha2, eps, n2, pairs2)]:
            grid = np.concatenate([[a / 2], np.linspace(a / 2 + 1e-9, 1.0, 40)])
            for m0, m1 in plist:
                p = _answer_grid_pmf(m0, nn, a, e, grid)
                q = _answer_grid_pmf(m1, nn, a, e, grid)
                # Above the alpha/4 cut, the hand-written release mass is the primitive's.
                for count, pmf in [(m0, p), (m1, q)]:
                    if count / nn > a / 4:
                        release = noisy_threshold_pmf([count / nn], 2.0 / (e * nn), a / 2)[0]
                        assert 1 - pmf[0] == pytest.approx(release, abs=1e-12)
                assert dp_bound_holds(p, q, e / 2, delta / 2, tol=1e-9)
                assert dp_bound_holds(q, p, e / 2, delta / 2, tol=1e-9)
                checked += 1
        assert checked == 16


class TestAnswersToSynthetic:
    def test_exactly_representable(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [2], [1.0]), 0.25)
        assert set(synth.elements.tolist()) == {2}
        assert synth.frequency(2) == 1.0

    def test_half_half(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [0, 1], [0.5, 0.5]), 0.25)
        assert synth.frequency(0) == pytest.approx(0.5)
        assert synth.frequency(1) == pytest.approx(0.5)
        assert synth.size <= math.ceil(1 / 0.25) + 2

    def test_degenerate_empty_answers(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [], []), 0.25)
        assert synth.size == 4 and synth.sink_rows == 4
        assert all(synth.frequency(x) == 0.0 for x in range(4))

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
                errs = [abs(synth.frequency(x) - ans.answer(x)) for x in range(8)]
                assert max(errs) <= alpha + 1e-12
                assert synth.size <= math.ceil(1 / alpha) + len(ans.answers)

    def test_sink_is_outside_universe(self):
        u = Universe.indexed(4)
        synth = answers_to_synthetic(SanitizedAnswers(u, [], []), 0.5)
        assert synth.elements.size == 0 and synth.sink_rows >= 1


class TestSanitizeError:
    def test_identical_databases(self):
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1, 2, 2])
        synth = SyntheticDatabase(u, np.array([0, 1, 2, 2]))
        assert sanitize_error(db, synth, ConceptClass(POINT, u)) == 0.0

    def test_hand_computed(self):
        u = Universe.indexed(2)
        db = _unlabeled(u, [0, 0, 0, 1])
        synth = SyntheticDatabase(u, np.array([0, 1]))
        assert sanitize_error(db, synth, ConceptClass(POINT, u)) == pytest.approx(0.25)

    def test_xor_closure_queries(self):
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1, 2, 3])
        synth = SyntheticDatabase(u, np.array([0, 0, 0, 0]))
        err_thresh = sanitize_error(db, synth, ConceptClass(THRESH, u))
        err_xor = sanitize_error(db, synth, (ConceptClass(THRESH, u), "xor"))
        assert err_xor >= err_thresh - 1e-12

    def test_query_class_on_another_universe_rejected(self):
        u = Universe.indexed(4)
        db = _unlabeled(u, [0, 1, 2, 3])
        synth = SyntheticDatabase(u, np.array([0, 0]))
        with pytest.raises(UniverseMismatchError):
            sanitize_error(db, synth, ConceptClass(POINT, Universe.indexed(5)))
        with pytest.raises(UniverseMismatchError):
            sanitize_exhaustive_pmf(db, (ConceptClass(THRESH, Universe.bitvectors(2)), "xor"), 1.0, 2)


class TestQueryMatrix:
    @pytest.mark.parametrize("queries", ["plain", "xor"])
    def test_built_once_per_query_class_and_read_only(self, queries):
        def query_class():
            cclass = ConceptClass(THRESH, Universe.indexed(8))
            return (cclass, "xor") if queries == "xor" else cclass

        full = _query_matrix(query_class())
        # An equal query class built anew finds the same cached array.
        assert _query_matrix(query_class()) is full
        assert not full.flags.writeable
        with pytest.raises(ValueError):
            full[0, 0] = 1
        assert np.array_equal(full, _query_matrix.__wrapped__(query_class()))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown query-class tag 'and'"):
            _query_matrix((ConceptClass(THRESH, Universe.indexed(4)), "and"))


def _fresh_candidates(db, query_class, m, eps):
    """Reference: _exhaustive_candidates' scoring on an uncached histogram table and query matrix."""
    histograms, answers, log_multinomial = _histogram_table.__wrapped__(query_class, m)
    full = _query_matrix.__wrapped__(query_class)
    target = (full @ np.bincount(db.xs, minlength=db.universe.size).astype(np.float64)) / db.n
    scores = -db.n * np.abs(answers - target[:, None]).max(axis=0)
    return scores + (2.0 / eps) * log_multinomial, histograms


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
        query_classes = [ConceptClass(THRESH, u), ConceptClass(POINT, u),
                         (ConceptClass(THRESH, u), "xor"), (ConceptClass(POINT, u), "xor")]
        answers = [_histogram_table(q, 3)[1] for q in query_classes]
        # All four are held at once, each is its own class's answers, and no two coincide.
        assert all(_histogram_table(q, 3)[1] is a for q, a in zip(query_classes, answers))
        assert all(np.array_equal(a, _histogram_table.__wrapped__(q, 3)[1]) for q, a in zip(query_classes, answers))
        assert len({(a.shape, a.tobytes()) for a in answers}) == len(query_classes)

    @pytest.mark.parametrize("queries", ["plain", "xor"])
    def test_warm_scores_equal_a_fresh_build_bit_for_bit(self, queries):
        u = Universe.indexed(8)
        query_class = (ConceptClass(THRESH, u), "xor") if queries == "xor" else ConceptClass(THRESH, u)
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
        query_class = (ConceptClass(THRESH, u), "xor")
        db = _unlabeled(u, [0, 1, 1, 4])
        sanitize_exhaustive(db, query_class, 0.5, 1.0, stream(35, 0), synth_size=4)
        before = _histogram_table.cache_info()
        pmf, _ = sanitize_exhaustive_pmf(db, query_class, 1.0, 4)
        after = _histogram_table.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert pmf.shape == (math.comb(8, 4),)


class TestSanitizeExhaustive:
    def test_output_law_matches_exact_pmf(self):
        # |X|=2, m=2 for D=(0,0,1,1): the perfect multiset (0,1) scores 0 and
        # stands for two tuples; (0,0) and (1,1) score -2 and stand for one each.
        u = Universe.indexed(2)
        db = _unlabeled(u, [0, 0, 1, 1])
        eps = 2.0
        pmf, multisets = sanitize_exhaustive_pmf(db, ConceptClass(POINT, u), eps, 2)
        weights = {(0, 0): math.exp(-eps), (0, 1): 2.0, (1, 1): math.exp(-eps)}
        assert multisets == [(0, 0), (0, 1), (1, 1)]
        assert np.allclose(pmf, [weights[t] / sum(weights.values()) for t in multisets])
        counts = {t: 0 for t in multisets}
        for trial in range(4000):
            out = sanitize_exhaustive(db, ConceptClass(POINT, u), 0.5, eps, stream(26, trial), synth_size=2)
            counts[tuple(out.elements.tolist())] += 1
        freqs = np.array([counts[t] / 4000 for t in multisets])
        assert np.abs(freqs - pmf).max() < 0.03

    def test_high_epsilon_concentrates_on_exact(self):
        u = Universe.indexed(2)
        db = _unlabeled(u, [0, 0, 1, 1])
        hits = 0
        for trial in range(100):
            out = sanitize_exhaustive(db, ConceptClass(POINT, u), 0.5, 50.0, stream(27, trial), synth_size=2)
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

    @pytest.mark.parametrize("size,m,kind,queries", EXACT_CASES)
    def test_scores_equal_per_tuple_reference(self, size, m, kind, queries):
        # Unshifted, each histogram's score is the reference score of its sorted tuple.
        u = Universe.indexed(size)
        db = _unlabeled(u, stream(30, size, m).integers(0, size, size=37))
        query_class = (ConceptClass(kind, u), "xor") if queries == "xor" else ConceptClass(kind, u)
        eps = 1.0
        scores, histograms = _exhaustive_candidates(db, query_class, m, eps)
        assert len(histograms) == math.comb(size + m - 1, m)
        multinomials = [math.factorial(m) // math.prod(math.factorial(c) for c in h[h > 0]) for h in histograms]
        sorted_tuples = np.repeat(np.tile(np.arange(size), len(histograms)), histograms.ravel()).reshape(-1, m)
        reference = _per_tuple_scores(db, query_class, m)[sorted_tuples @ size ** np.arange(m - 1, -1, -1)]
        assert np.abs(scores - (2.0 / eps) * np.log(multinomials) - reference).max() <= 1e-12

    @pytest.mark.parametrize("size,m,kind,queries", [case for case in EXACT_CASES if case[0] ** case[1] <= 8**5])
    def test_law_equals_summed_tuple_law(self, size, m, kind, queries):
        # The tuple-level exponential mechanism, summed per sorted tuple, is the histogram law.
        u = Universe.indexed(size)
        db = _unlabeled(u, stream(33, size, m).integers(0, size, size=29))
        query_class = (ConceptClass(kind, u), "xor") if queries == "xor" else ConceptClass(kind, u)
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
        queries = (ConceptClass(THRESH, u), "xor")
        digest = hashlib.sha256()
        for t in range(20):
            synth = sanitize_exhaustive(db, queries, 0.04, 1.0, stream(31, 1, t), synth_size=5)
            digest.update(synth.elements.tobytes())
        assert digest.hexdigest() == "0e0a7ec08b358d45050eb86d3cfce763fc5ce0b1e4334f7ec040abcfd65e0bfa"
