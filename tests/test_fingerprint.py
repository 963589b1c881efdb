"""Codebook structure, feasibility, tracing, pirates, and attack experiments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dpmulti.domain import PARITY, POINT, THRESH, ConceptClass, Hypotheses
from dpmulti.fingerprint import (
    VARIANTS,
    _contract_met,
    accusation_threshold,
    attack_experiment,
    block_one_counts,
    code_length,
    feasible,
    gen_codebook,
    pirate_word,
    trace_word,
)
from dpmulti import fingerprint
from dpmulti.harness import parse_config, run_experiment
from dpmulti.learners import LearnResult, erm_mismatch_counts, erm_multi
from dpmulti.mechanisms import PrivacyLedger
from dpmulti.rng import stream

from scalar_reference import bit


def _erm_thresholds(db, rng):
    return erm_multi(db, ConceptClass(THRESH, db.universe))


def _all_zero_learner(db, rng):
    return LearnResult(Hypotheses(db.universe, POINT, np.full(db.k, -1)))


def _failing_learner(db, rng):
    return LearnResult(None, PrivacyLedger())


class TestGenCodebook:
    def test_structure(self):
        for trial in range(10):
            cb = gen_codebook(6, 30, 0.05, stream(90, trial))
            assert (cb.words[0] == 1).all()        # lowest user holds all ones
            assert (cb.words[5] == 0).all()        # highest user holds all zeros
            hist = np.bincount(cb.column_types, minlength=6)
            assert (hist[1:6] == 6).all()          # each type repeated k/(n-1)
            assert hist[0] == 0

    def test_adjacent_rows_differ_on_one_type(self):
        cb = gen_codebook(5, 40, 0.1, stream(91, 0))
        for u in range(4):
            diff_cols = np.flatnonzero(cb.words[u] != cb.words[u + 1])
            assert (cb.column_types[diff_cols] == u + 1).all()
            assert diff_cols.size == cb.block_size
            # the flip direction is always 1 (row u) over 0 (row u+1)
            assert (cb.words[u, diff_cols] == 1).all()

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            gen_codebook(6, 31, 0.05, stream(92, 0))

    @pytest.mark.parametrize("length", [0, -5])
    def test_length_below_one_rejected(self, length):
        with pytest.raises(ValueError, match="length must be >= 1"):
            gen_codebook(6, length, 0.05, stream(92, 3))

    def test_code_length_value(self):
        raw = math.ceil(2 * 6**3 * math.log(2 * 6 / 0.05))
        assert code_length(6, 0.05) == math.ceil(raw / 5) * 5
        assert code_length(6, 0.05) % 5 == 0


class TestFeasible:
    def test_member_codeword_always_feasible(self):
        cb = gen_codebook(5, 20, 0.1, stream(93, 0))
        for i in range(5):
            assert feasible(cb.words[i], cb, [i])
            assert feasible(cb.words[i], cb, range(5))

    def test_full_coalition_accepts_everything(self):
        # Types 1..n-1 mean no column is unanimous across all n users.
        cb = gen_codebook(4, 30, 0.1, stream(93, 1))
        rng = stream(93, 2)
        for _ in range(20):
            w = rng.integers(0, 2, size=30).astype(np.uint8)
            assert feasible(w, cb, range(4))

    def test_all_zero_holder_rejects_ones(self):
        cb = gen_codebook(4, 30, 0.1, stream(93, 3))
        assert not feasible(np.ones(30, dtype=np.uint8), cb, [3])


class TestTrace:
    def test_all_ones_accuses_first_user(self):
        cb = gen_codebook(6, code_length(6, 0.05), 0.05, stream(94, 0))
        assert trace_word(np.ones(cb.length, dtype=np.uint8), cb) == 0

    def test_all_zeros_accuses_last_user(self):
        cb = gen_codebook(6, code_length(6, 0.05), 0.05, stream(94, 1))
        assert trace_word(np.zeros(cb.length, dtype=np.uint8), cb) == 5

    def test_accusation_needs_block_size_over_threshold(self):
        # For the all-ones word the only gap is d at the virtual block 0, so an
        # accusation happens exactly when d > 2 ln(2n/xi).
        n, xi = 3, 0.1
        cut = 2 * math.log(2 * n / xi)  # ~8.19
        for d, expect in [(9, 0), (8, None)]:
            cb = gen_codebook(n, d * (n - 1), xi, stream(94, 2))
            assert trace_word(np.ones(cb.length, dtype=np.uint8), cb) == expect

    def test_balanced_blocks_escape_accusation(self):
        n, xi, d = 4, 0.5, 12
        cb = gen_codebook(n, d * (n - 1), xi, stream(94, 3))
        word = np.zeros(cb.length, dtype=np.uint8)
        for t in range(1, n):
            cols = np.flatnonzero(cb.column_types == t)
            word[cols[: d // 2]] = 1  # half ones per block
        assert d / 2 <= accusation_threshold(cb)
        assert trace_word(word, cb) is None

    def test_accused_in_range_and_deterministic(self):
        rng = stream(94, 4)
        cb = gen_codebook(5, 40, 0.2, stream(94, 5))
        for _ in range(30):
            w = rng.integers(0, 2, size=40).astype(np.uint8)
            a = trace_word(w, cb)
            assert a is None or 0 <= a < 5
            assert trace_word(w, cb) == a

    def test_block_counts_include_virtual_blocks(self):
        cb = gen_codebook(4, 30, 0.1, stream(94, 6))
        counts = block_one_counts(np.ones(30, dtype=np.uint8), cb)
        assert counts[0] == 0 and counts[4] == cb.block_size
        assert (counts[1:4] == cb.block_size).all()


class TestPirate:
    def test_exact_learner_reproduces_marked_pattern(self):
        # Exact thresholds give column averages t/n; rounding at 1/2 turns the
        # type-t blocks into constant 0/1 blocks split at n/2.
        cb = gen_codebook(6, 30, 0.05, stream(95, 0))
        res = pirate_word(_erm_thresholds, cb, range(6), "pac", 0.2, stream(95, 1))
        assert not res.flagged
        assert feasible(res.word, cb, range(6))
        for t in range(1, 6):
            cols = cb.column_types == t
            assert (res.word[cols] == (1 if t >= 3 else 0)).all()

    def test_all_zero_hypotheses_give_zero_word(self):
        cb = gen_codebook(5, 20, 0.1, stream(95, 2))
        res = pirate_word(_all_zero_learner, cb, range(5), "pac", 0.2, stream(95, 3))
        assert (res.word == 0).all()

    def test_failure_fallback_is_feasible_and_flagged(self):
        cb = gen_codebook(5, 20, 0.1, stream(95, 4))
        coalition = [0, 2, 4]
        res = pirate_word(_failing_learner, cb, coalition, "pac", 0.2, stream(95, 5))
        assert res.flagged
        assert feasible(res.word, cb, coalition)

    def test_padded_database_shape(self):
        cb = gen_codebook(6, 30, 0.05, stream(95, 6))
        res = pirate_word(_erm_thresholds, cb, range(6), "padded", 0.2, stream(95, 7))
        expected_rows = math.ceil(6 / (3 * 0.2))
        assert res.database.n == expected_rows
        assert res.database.xs[-1] == 5  # junk rows sit at the maximal element
        assert feasible(res.word, cb, range(6))

    def test_padded_accurate_hypotheses_recover_marks(self):
        # Exact hypotheses have padded averages t/N; alpha = 0.25 keeps the
        # rounding cut 3*alpha/2 = 0.375 exactly representable, so the word is
        # the deterministic staircase split at t/N >= 0.375.
        cb = gen_codebook(6, 30, 0.05, stream(95, 8))
        res = pirate_word(_erm_thresholds, cb, range(6), "padded", 0.25, stream(95, 9))
        total = math.ceil(6 / 0.75)
        for t in range(1, 6):
            cols = cb.column_types == t
            assert (res.word[cols] == (1 if t / total >= 0.375 else 0)).all()

    def test_parity_variant_runs_on_bit_universe(self):
        cb = gen_codebook(4, 30, 0.1, stream(95, 10))
        res = pirate_word(_all_zero_learner, cb, range(4), "parity", 0.1, stream(95, 11))
        assert res.database.universe.bit_width == 2
        assert not res.flagged  # zero averages sit in the <= alpha band
        assert (res.word == 0).all()

    def test_unknown_variant_rejected(self):
        cb = gen_codebook(4, 30, 0.1, stream(95, 12))
        with pytest.raises(ValueError):
            pirate_word(_erm_thresholds, cb, range(4), "bogus", 0.1, stream(95, 13))


def _random_table_learner(seed):
    """A learner releasing a random table of its variant's kind, -1 (zero) included where allowed."""
    def learner(db, rng):
        kind = PARITY if db.universe.bit_width is not None else THRESH
        low = 0 if kind == PARITY else -1
        return LearnResult(Hypotheses(db.universe, kind, stream(seed, 1).integers(low, db.universe.size, size=db.k)))
    return learner


def _contract_gaps(result, cclass):
    """Per label, the exact excess empirical error of the released hypothesis over the class's best, by brute force."""
    db = result.database
    xs = db.xs.tolist()

    def mismatches(kind, param, ys):
        return sum(bit(kind, param, x) != y for x, y in zip(xs, ys))

    gaps = []
    for h, ys in zip(result.hypotheses.params.tolist(), db.labels.T.tolist()):
        best = min(mismatches(cclass.kind, c, ys) for c in range(len(cclass)))
        gaps.append(Fraction(mismatches(result.hypotheses.kind, h, ys) - best, db.n))
    return gaps


class TestContractMet:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_label_brute_force(self, variant, seed):
        n = 4 if variant == "parity" else 6
        cb = gen_codebook(n, 10 * (n - 1), 0.1, stream(101, seed))
        res = pirate_word(_random_table_learner(seed), cb, range(n), variant, 0.2, stream(102, seed))
        cclass = ConceptClass(VARIANTS[variant], res.database.universe)
        if variant != "parity":
            assert (res.hypotheses.params == -1).any()
        worst = max(_contract_gaps(res, cclass))
        assert worst > 0
        for alpha, met in [(float(worst) - 1e-9, False), (float(worst) + 1e-9, True), (0.2, worst <= Fraction(0.2))]:
            assert _contract_met(res, cclass, alpha) is met

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_erm_table_meets_any_alpha(self, variant):
        n = 4 if variant == "parity" else 6
        cb = gen_codebook(n, 10 * (n - 1), 0.1, stream(103, 0))
        learner = lambda db, rng: erm_multi(db, ConceptClass(VARIANTS[variant], db.universe))
        res = pirate_word(learner, cb, range(n), variant, 0.2, stream(104, 0))
        cclass = ConceptClass(VARIANTS[variant], res.database.universe)
        assert max(_contract_gaps(res, cclass)) == 0
        assert _contract_met(res, cclass, 1e-9)

    def test_failed_learner_never_meets_the_contract(self):
        cb = gen_codebook(4, 30, 0.1, stream(105, 0))
        res = pirate_word(_failing_learner, cb, range(4), "pac", 0.2, stream(105, 1))
        assert not _contract_met(res, ConceptClass(THRESH, res.database.universe), 0.99)


def _reference_contract_met(result, cclass, alpha):
    """The contract check as first written: a second evaluate, and the class minimum always."""
    if result.hypotheses is None:
        return False
    db = result.database
    best = erm_mismatch_counts(db, cclass).min(axis=0)
    errors = np.count_nonzero(result.hypotheses.evaluate(db.xs) != db.labels.T, axis=1)
    return bool(((errors - best) / db.n <= alpha).all())


ALPHA_GRID = [1e-9, 0.05, 0.1, 1 / 6, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.75, 0.99]


def _plays(variant, seed):
    """Pirate results of a random table, ERM, all-zero and failed learner on one codebook of the variant."""
    n = 4 if variant == "parity" else 6
    cb = gen_codebook(n, 10 * (n - 1), 0.1, stream(107, seed))
    erm = lambda db, rng: erm_multi(db, ConceptClass(VARIANTS[variant], db.universe))
    learners = [_random_table_learner(seed), erm, _all_zero_learner, _failing_learner]
    return [pirate_word(learner, cb, range(n), variant, 0.2, stream(108, seed)) for learner in learners]


class TestContractShortcut:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_class_minimum_only_past_alpha_n(self, monkeypatch, variant):
        calls = []
        counts = fingerprint.erm_mismatch_counts
        monkeypatch.setattr(fingerprint, "erm_mismatch_counts", lambda *args: calls.append(args) or counts(*args))
        seen = set()
        for seed in range(4):
            for res in _plays(variant, seed):
                cclass = ConceptClass(VARIANTS[variant], res.database.universe)
                for alpha in ALPHA_GRID:
                    del calls[:]
                    met = _contract_met(res, cclass, alpha)
                    if res.evals is None:
                        want = 0
                    else:
                        errors = np.count_nonzero(res.evals != res.database.labels.T, axis=1)
                        want = 0 if (errors <= alpha * res.database.n).all() else 1
                    assert len(calls) == want
                    seen.add((want, met))
        assert {(0, True), (1, False)} <= seen
        # Stairstep columns are thresholds, so only parity plays have a class minimum above 0 to subtract.
        assert ((1, True) in seen) == (variant == "parity")

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_equals_the_reference_formula(self, variant):
        rng = stream(109, 0)
        for seed in range(6):
            for res in _plays(variant, seed):
                cclass = ConceptClass(VARIANTS[variant], res.database.universe)
                for alpha in [*ALPHA_GRID, *rng.uniform(0, 1, size=20)]:
                    assert _contract_met(res, cclass, float(alpha)) is _reference_contract_met(res, cclass, float(alpha))

    def test_evals_are_the_rounded_evaluation(self):
        for res in _plays("pac", 0):
            if res.hypotheses is None:
                assert res.evals is None and res.flagged
            else:
                assert np.array_equal(res.evals, res.hypotheses.evaluate(res.database.xs))

    @pytest.mark.parametrize("learner,variant,alpha", [
        (learner, variant, alpha)
        for learner in ("erm", "generic", "points", "parities")
        for variant in (("parity",) if learner == "parities" else sorted(VARIANTS))
        for alpha in (0.2, 0.45)
    ])
    def test_attack_reports_are_unchanged(self, monkeypatch, learner, variant, alpha):
        cfg = parse_config(f"[experiment]\nkind = attack\ntrials = 4\nseed = 11\n\n[attack]\nn_users = 4\nxi = 0.1\n"
                           f"length = 30\nlearner = {learner}\nvariant = {variant}\nalpha = {alpha}\n")
        got = run_experiment(cfg)
        monkeypatch.setattr(fingerprint, "_contract_met", _reference_contract_met)
        want = run_experiment(cfg)
        assert got.per_trial_rows == want.per_trial_rows and got.rows == want.rows


class TestAttackExperiment:
    def test_erm_completeness_and_soundness(self):
        report = attack_experiment(_erm_thresholds, 6, 0.05, 60, "pac", 0.2, seed=96)
        assert report.length == code_length(6, 0.05)
        assert report.completeness_rate >= 0.85
        assert report.soundness_violation_rate <= 0.10
        assert report.accuracy_rate == 1.0
        assert report.flagged_rate == 0.0

    def test_report_rows_schema(self):
        report = attack_experiment(_erm_thresholds, 4, 0.1, 5, "pac", 0.2, seed=97, length=30)
        assert len(report.rows) == 5
        assert set(report.rows[0]) == {"trial", "feasible", "accused", "accurate", "flagged"}
        assert len(report.soundness_rows) == 5
        assert {r["missing"] for r in report.soundness_rows} <= set(range(4))

    def test_deterministic_given_seed(self):
        a = attack_experiment(_erm_thresholds, 4, 0.1, 8, "pac", 0.2, seed=98, length=30)
        b = attack_experiment(_erm_thresholds, 4, 0.1, 8, "pac", 0.2, seed=98, length=30)
        assert a == b

    def test_degenerate_learner_measured_not_crashed(self):
        report = attack_experiment(_all_zero_learner, 4, 0.1, 10, "pac", 0.2, seed=99, length=30)
        assert report.accuracy_rate <= 0.5
        assert len(report.rows) == 10
        # An inaccurate play is no successful attack, however its word traces.
        assert report.completeness_rate <= report.accuracy_rate

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            attack_experiment(_erm_thresholds, 9, 0.05, 1, "pac", 0.2, seed=100)

