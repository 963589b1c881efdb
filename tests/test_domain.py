"""Domain vocabulary: concepts, databases, errors, dichotomies, sampling."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from dpmulti.domain import (
    EVAL_BLOCK_CELLS,
    PARITY,
    POINT,
    THRESH,
    Concept,
    ConceptClass,
    Distribution,
    EmptyDatabaseError,
    Hypotheses,
    LabeledDistribution,
    MultiLabeledDatabase,
    Universe,
    UniverseMismatchError,
    dichotomy_projection,
    empirical_error,
    evaluate,
    evaluate_many,
    generalization_error,
    generalization_errors,
    load_database,
    parity,
    point,
    sample_database,
    save_database,
    thresh,
    vc_sample_size,
    zero,
)
from dpmulti.domain import _parity_bits
from dpmulti.rng import stream

U5 = Universe.indexed(5)
U3 = Universe.indexed(3)
U4 = Universe.indexed(4)
B2 = Universe.bitvectors(2)


class TestEvaluate:
    def test_point(self):
        assert evaluate(point(U5, 2), 2) == 1
        assert evaluate(point(U5, 2), 3) == 0

    def test_thresh_prefix(self):
        assert [evaluate(thresh(U5, 2), x) for x in range(5)] == [1, 1, 1, 0, 0]

    def test_parity_inner_product(self):
        # <(1,1), (1,1)> = 1*1 + 1*1 = 0 mod 2
        assert evaluate(parity(B2, 0b11), 0b11) == 0
        assert evaluate(parity(B2, 0b01), 0b11) == 1

    def test_zero_always_zero(self):
        assert all(evaluate(zero(U5), x) == 0 for x in range(5))

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            evaluate(point(U5, 2), 7)

    def test_vectorized_matches_scalar(self):
        rng = stream(1, 0)
        xs = rng.integers(0, 4, size=50)
        for c in (point(B2, 2), thresh(B2, 1), parity(B2, 3), zero(B2)):
            assert (evaluate_many(c, xs) == [evaluate(c, int(x)) for x in xs]).all()

    def test_parity_linearity(self):
        rng = stream(2, 0)
        u = Universe.bitvectors(6)
        for _ in range(50):
            a, b, x = (int(v) for v in rng.integers(0, 64, size=3))
            assert evaluate(parity(u, a ^ b), x) == evaluate(parity(u, a), x) ^ evaluate(parity(u, b), x)

    def test_parity_bits_match_int_popcount(self):
        # Values past 32 bits too: the popcount covers every bit of the int64.
        values = stream(2, 1).integers(0, 1 << 40, size=(40, 25))
        want = [[v.bit_count() & 1 for v in row] for row in values.tolist()]
        got = _parity_bits(values)
        assert got.dtype == np.uint8 and got.tolist() == want


U16 = Universe.indexed(16)
B4 = Universe.bitvectors(4)

# kind -> (universe, parameters covering the whole range, zero = -1 included where allowed)
TABLE_CASES = {
    POINT: (U16, [3, -1, 0, 15, 3, -1]),
    THRESH: (U16, [-1, 0, 7, 15, 7]),
    PARITY: (B4, [0, 1, 5, 15, 8, 0]),
}


def _as_concept(universe, kind, p):
    return zero(universe) if p < 0 else Concept(kind, universe, p)


class TestHypotheses:
    @pytest.mark.parametrize("kind", sorted(TABLE_CASES))
    def test_evaluate_matches_stacked_evaluate_many(self, kind):
        universe, params = TABLE_CASES[kind]
        xs = stream(9, 0).integers(0, universe.size, size=40)
        table = Hypotheses(universe, kind, np.array(params))
        expected = np.stack([evaluate_many(_as_concept(universe, kind, p), xs) for p in params])
        got = table.evaluate(xs)
        assert got.dtype == np.uint8 and got.shape == (len(params), 40)
        assert got.T.flags.c_contiguous  # stored example-major
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", sorted(TABLE_CASES))
    def test_k0_evaluates_to_empty_matrix(self, kind):
        universe, _ = TABLE_CASES[kind]
        table = Hypotheses(universe, kind, np.zeros(0, dtype=np.int64))
        assert len(table) == 0 and list(table) == [] and table == ()
        assert table.evaluate(np.arange(5)).shape == (0, 5)

    def test_eval_matrix_is_the_full_table(self):
        for kind, (universe, _) in TABLE_CASES.items():
            xs = universe.elements()
            table = Hypotheses(universe, kind, universe.elements())
            assert np.array_equal(ConceptClass(kind, universe).eval_matrix(xs), table.evaluate(xs))

    @pytest.mark.parametrize(
        "kind,universe,params",
        [
            (POINT, U16, [0, 16]),
            (POINT, U16, [-2]),
            (THRESH, U16, [16]),
            (THRESH, U16, [3, -2]),
            (PARITY, B4, [-1]),
            (PARITY, B4, [16]),
        ],
        ids=["point-high", "point-low", "thresh-high", "thresh-low", "parity-zero", "parity-high"],
    )
    def test_out_of_range_params_rejected(self, kind, universe, params):
        with pytest.raises(ValueError):
            Hypotheses(universe, kind, np.array(params))

    def test_malformed_tables_rejected(self):
        with pytest.raises(ValueError):
            Hypotheses(U16, POINT, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Hypotheses(U16, POINT, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            Hypotheses(U16, "zero", np.array([-1]))
        with pytest.raises(ValueError):
            Hypotheses(U16, PARITY, np.array([1]))

    def test_evaluate_rejects_elements_outside_universe(self):
        table = Hypotheses(U16, POINT, np.array([1]))
        with pytest.raises(ValueError):
            table.evaluate(np.array([16]))
        with pytest.raises(ValueError):
            table.evaluate(np.array([-1]))
        with pytest.raises(ValueError):
            table.evaluate(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("kind", sorted(TABLE_CASES))
    def test_indexing_and_iteration_give_the_concepts(self, kind):
        universe, params = TABLE_CASES[kind]
        concepts = [_as_concept(universe, kind, p) for p in params]
        table = Hypotheses(universe, kind, np.array(params))
        assert len(table) == len(concepts)
        assert [table[j] for j in range(len(table))] == concepts
        assert table[-1] == concepts[-1]
        assert list(table) == concepts
        assert all(type(h.param) in (int, type(None)) for h in table)
        assert table == tuple(concepts) and table == concepts
        assert table != tuple(concepts[:-1])

    def test_table_equality(self):
        a = Hypotheses(U16, POINT, np.array([1, -1]))
        assert a == Hypotheses(U16, POINT, np.array([1, -1]))
        assert a != Hypotheses(U16, THRESH, np.array([1, -1]))
        assert a != Hypotheses(Universe.indexed(17), POINT, np.array([1, -1]))
        # Tables compare as the Concept sequences they stand for, so all-zero tables are equal.
        assert Hypotheses(U16, POINT, np.array([-1, -1])) == Hypotheses(U16, THRESH, np.array([-1, -1]))

    def test_parameters_are_read_only(self):
        table = Hypotheses(U16, POINT, np.array([1, 2]))
        with pytest.raises(ValueError):
            table.params[0] = 5

    def test_generalization_errors_match_per_pair(self):
        rng = stream(9, 1)
        for kind, (universe, params) in TABLE_CASES.items():
            dist = Distribution.from_weights(universe, rng.random(universe.size))
            hyps = Hypotheses(universe, kind, np.array(params))
            targets = Hypotheses(universe, kind, rng.integers(0, universe.size, size=len(params)))
            expected = [generalization_error(dist, c, h) for c, h in zip(targets, hyps)]
            assert generalization_errors(dist, targets, hyps) == expected

    @pytest.mark.parametrize("kind,universe", [(POINT, Universe.indexed(1500)), (PARITY, Universe.bitvectors(10))])
    def test_generalization_errors_across_row_blocks(self, kind, universe):
        # More labels than one block of the disagreement matrix holds at this universe size.
        rng = stream(9, 2)
        k = 3 * EVAL_BLOCK_CELLS // universe.size + 2
        dist = Distribution.from_weights(universe, rng.random(universe.size))
        targets, hyps = (Hypotheses(universe, kind, rng.integers(0, universe.size, size=k)) for _ in range(2))
        expected = [generalization_error(dist, c, h) for c, h in zip(targets, hyps)]
        assert generalization_errors(dist, targets, hyps) == expected

    @pytest.mark.parametrize("target_kind,hyp_kind", [(POINT, POINT), (THRESH, THRESH), (POINT, THRESH)])
    def test_generalization_errors_equal_per_pair_with_skipped_work(self, target_kind, hyp_kind):
        # Half the elements carry no mass, about a third of the pairs share their
        # parameter, -1 (zero) parameters occur, and the differing pairs span
        # several blocks of the support; every error is still the per-pair one.
        rng = stream(9, 6)
        universe = Universe.indexed(1500)
        dist = Distribution.from_weights(universe, rng.random(universe.size) * (rng.random(universe.size) < 0.5))
        support = np.count_nonzero(dist.pmf)
        k = 3 * EVAL_BLOCK_CELLS // support + 2
        params = rng.integers(-1, universe.size, size=k)
        params[:4] = -1
        hyp_params = np.where(rng.random(k) < 0.3, params, rng.integers(-1, universe.size, size=k))
        hyp_params[:2] = -1
        targets, hyps = Hypotheses(universe, target_kind, params), Hypotheses(universe, hyp_kind, hyp_params)
        expected = [generalization_error(dist, c, h) for c, h in zip(targets, hyps)]
        assert generalization_errors(dist, targets, hyps) == expected

    @pytest.mark.parametrize("kind", sorted(TABLE_CASES))
    @pytest.mark.parametrize("n", [60, EVAL_BLOCK_CELLS // 2], ids=["one-block", "row-blocks"])
    def test_table_labels_like_its_concepts(self, kind, n):
        universe, params = TABLE_CASES[kind]
        table = Hypotheses(universe, kind, np.array(params))
        dist = Distribution.from_weights(universe, stream(9, 3).random(universe.size))
        db = sample_database(dist, table, n, stream(9, 4))
        assert np.array_equal(db.xs, dist.sample(n, stream(9, 4)))
        # The scalar evaluate is the oracle, one (row, label) cell at a time.
        assert db.labels.tolist() == [[evaluate(c, x) for c in table] for x in db.xs.tolist()]
        assert db.labels.flags.c_contiguous
        expected = np.zeros((universe.size, 1 << len(table)))
        for x in range(universe.size):
            expected[x, sum(evaluate(c, x) << j for j, c in enumerate(table))] = dist.pmf[x]
        assert np.array_equal(LabeledDistribution.realizable(dist, table).pmf, expected)

    def test_table_on_another_universe_rejected(self):
        table = Hypotheses(U16, POINT, np.array([1, 2]))
        with pytest.raises(UniverseMismatchError):
            sample_database(Distribution.uniform(U5), table, 10, stream(9, 5))
        with pytest.raises(UniverseMismatchError):
            LabeledDistribution.realizable(Distribution.uniform(U5), table)


class TestEmpiricalError:
    def test_consistent_labels(self):
        c = point(U5, 1)
        db = MultiLabeledDatabase.from_rows(U5, [(x, [evaluate(c, x)]) for x in [0, 1, 1, 4]])
        assert empirical_error(db, 0, c) == 0

    def test_counted_mismatches(self):
        db = MultiLabeledDatabase.from_rows(U5, [(0, [1]), (1, [0]), (2, [1]), (3, [1])])
        assert empirical_error(db, 0, point(U5, 2)) == Fraction(2, 4)

    def test_zero_vs_all_ones(self):
        db = MultiLabeledDatabase.from_rows(U5, [(x, [1]) for x in range(5)])
        assert empirical_error(db, 0, zero(U5)) == 1

    def test_error_times_n_is_integer(self):
        rng = stream(3, 0)
        for _ in range(20):
            xs = rng.integers(0, 5, size=17)
            ys = rng.integers(0, 2, size=(17, 1))
            db = MultiLabeledDatabase(U5, xs, ys.astype(np.uint8))
            err = empirical_error(db, 0, thresh(U5, 2))
            assert (err * 17).denominator == 1
            assert 0 <= err <= 1

    def test_empty_database(self):
        db = MultiLabeledDatabase(U5, np.array([], dtype=np.int64), np.zeros((0, 1), dtype=np.uint8))
        with pytest.raises(EmptyDatabaseError):
            empirical_error(db, 0, zero(U5))

    @pytest.mark.parametrize("j", [-1, 1])
    def test_label_index_outside_k(self, j):
        db = MultiLabeledDatabase.from_rows(U5, [(0, [1]), (1, [0])])
        with pytest.raises(ValueError, match=f"label index {j} outside k=1"):
            empirical_error(db, j, zero(U5))

    def test_other_universe_rejected(self):
        db = MultiLabeledDatabase.from_rows(U5, [(0, [1]), (1, [0])])
        with pytest.raises(UniverseMismatchError):
            empirical_error(db, 0, zero(U4))


class TestGeneralizationError:
    def test_identical_concepts(self):
        d = Distribution.uniform(U5)
        assert generalization_error(d, thresh(U5, 2), thresh(U5, 2)) == 0.0

    def test_distinct_parities_half(self):
        u = Universe.bitvectors(4)
        d = Distribution.uniform(u)
        rng = stream(4, 0)
        for _ in range(10):
            a, b = (int(v) for v in rng.integers(0, 16, size=2))
            if a == b:
                continue
            assert generalization_error(d, parity(u, a), parity(u, b)) == 0.5

    def test_point_vs_zero(self):
        assert generalization_error(Distribution.uniform(U4), point(U4, 0), zero(U4)) == 0.25

    def test_matches_empirical_limit(self):
        # Empirical error on 50k samples sits within 0.02 of the exact value
        # (9+ sigma of the binomial spread, so the seeded check cannot flake).
        u = Universe.indexed(8)
        for trial in range(10):
            rng = stream(5, trial)
            d = Distribution.from_weights(u, rng.random(8) + 0.05)
            c = point(u, int(rng.integers(0, 8)))
            h = thresh(u, int(rng.integers(0, 8)))
            exact = generalization_error(d, c, h)
            db = sample_database(d, Hypotheses(u, POINT, np.array([c.param])), 50_000, rng)
            emp = float(np.count_nonzero(evaluate_many(h, db.xs) != db.labels[:, 0])) / db.n
            assert abs(emp - exact) < 0.02


class TestDichotomyProjection:
    def test_empty_points(self):
        proj = dichotomy_projection(ConceptClass(POINT, U3), [])
        assert proj == {(): point(U3, 0)}

    def test_point_example(self):
        proj = dichotomy_projection(ConceptClass(POINT, U3), [0, 1])
        assert set(proj) == {(1, 0), (0, 1), (0, 0)}
        assert proj[(1, 0)].param == 0
        assert proj[(0, 1)].param == 1
        assert proj[(0, 0)].param == 2

    def test_thresh_example(self):
        proj = dichotomy_projection(ConceptClass(THRESH, U3), [0, 2])
        assert set(proj) == {(1, 0), (1, 1)}

    def test_witnesses_realize_their_dichotomy(self):
        rng = stream(6, 0)
        for kind in (POINT, THRESH):
            cclass = ConceptClass(kind, Universe.indexed(9))
            pts = [int(v) for v in rng.integers(0, 9, size=4)]
            for labeling, witness in dichotomy_projection(cclass, pts).items():
                assert tuple(evaluate(witness, p) for p in pts) == labeling

    def test_complete_against_enumeration(self):
        rng = stream(6, 1)
        for kind in (POINT, THRESH):
            cclass = ConceptClass(kind, Universe.indexed(11))
            pts = [int(v) for v in rng.integers(0, 11, size=5)]
            brute = {tuple(evaluate(c, p) for p in pts) for c in cclass.concepts()}
            assert set(dichotomy_projection(cclass, pts)) == brute

    def test_cardinality_bounds(self):
        for kind in (POINT, THRESH):
            for size in (4, 9, 16):
                cclass = ConceptClass(kind, Universe.indexed(size))
                pts = list(range(0, size, 2))
                proj = dichotomy_projection(cclass, pts)
                assert len(proj) <= min(size, 2 ** len(pts))
                if kind == POINT:
                    assert len(proj) == min(size, len(pts) + 1)

    def test_parity_cardinality_is_spanned_subspace(self):
        # Parities realize exactly 2^rank(B) labelings of B.
        u = Universe.bitvectors(4)
        cclass = ConceptClass(PARITY, u)
        rng = stream(6, 2)
        for _ in range(15):
            pts = [int(p) for p in rng.integers(0, 16, size=int(rng.integers(1, 6)))]
            proj = dichotomy_projection(cclass, pts)
            assert len(proj) <= min(len(cclass), 2 ** len(pts))
            assert (len(proj) & (len(proj) - 1)) == 0  # power of two


class TestShatterCertificates:
    """VC dimensions reported to callers, certified by brute force."""

    @staticmethod
    def _shattered(cclass, pts):
        return len(dichotomy_projection(cclass, pts)) == 2 ** len(pts)

    @pytest.mark.parametrize("kind", [POINT, THRESH])
    def test_indexed_classes_have_vc_one(self, kind):
        cclass = ConceptClass(kind, Universe.indexed(16))
        assert cclass.vc_dim == 1
        # Element 0 is labeled 1 by every threshold, so the witness set is {1}.
        assert self._shattered(cclass, [1])
        assert not any(
            self._shattered(cclass, list(pair)) for pair in itertools.combinations(range(16), 2)
        )

    @pytest.mark.parametrize("bits", [3, 4])
    def test_parity_vc_is_bit_width(self, bits):
        u = Universe.bitvectors(bits)
        cclass = ConceptClass(PARITY, u)
        assert cclass.vc_dim == bits
        basis = [1 << i for i in range(bits)]
        assert self._shattered(cclass, basis)
        assert not any(
            self._shattered(cclass, list(sub))
            for sub in itertools.combinations(range(u.size), bits + 1)
        )


class TestSampling:
    def test_point_mass_degenerate(self):
        d = Distribution.point_mass(U5, 3)
        db = sample_database(d, Hypotheses(U5, POINT, np.array([3])), 40, stream(7, 0))
        assert (db.xs == 3).all()
        assert (db.labels == 1).all()

    def test_unlabeled_k0(self):
        no_targets = Hypotheses(U5, POINT, np.zeros(0, dtype=np.int64))
        db = sample_database(Distribution.uniform(U5), no_targets, 10, stream(7, 1))
        assert db.k == 0 and db.labels.shape == (10, 0)

    def test_fixed_seed_reproducible(self):
        d = Distribution.uniform(U5)
        targets = Hypotheses(U5, THRESH, np.array([2, 4]))
        a = sample_database(d, targets, 100, stream(7, 2))
        b = sample_database(d, targets, 100, stream(7, 2))
        assert (a.xs == b.xs).all() and (a.labels == b.labels).all()

    def test_labels_consistent_with_concepts(self):
        d = Distribution.uniform(U5)
        c = thresh(U5, 1)
        db = sample_database(d, Hypotheses(U5, THRESH, np.array([1])), 200, stream(7, 3))
        assert (db.labels[:, 0] == evaluate_many(c, db.xs)).all()


class TestLabeledDistribution:
    def test_realizable_matches_concept_labels(self):
        d = Distribution.uniform(U4)
        ld = LabeledDistribution.realizable(d, Hypotheses(U4, THRESH, np.array([1, 2])))
        db = ld.sample(300, stream(8, 0))
        assert (db.labels[:, 0] == evaluate_many(thresh(U4, 1), db.xs)).all()
        assert (db.labels[:, 1] == evaluate_many(thresh(U4, 2), db.xs)).all()

    def test_marginal_error_matches_montecarlo(self):
        d = Distribution.uniform(U4)
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.0, 1.0]])
        ld = LabeledDistribution.from_label_probs(d, probs)
        h = thresh(U4, 1)
        exact = ld.marginal_error(0, h)
        db = ld.sample(40_000, stream(8, 1))
        emp = float(np.count_nonzero(evaluate_many(h, db.xs) != db.labels[:, 0])) / db.n
        assert abs(exact - emp) < 0.02

    @pytest.mark.parametrize("j", [5, 2, -1])
    def test_marginal_error_rejects_label_outside_k(self, j):
        ld = LabeledDistribution.realizable(Distribution.uniform(U4), Hypotheses(U4, THRESH, np.array([1, 2])))
        with pytest.raises(ValueError, match=rf"label index {j} outside k=2"):
            ld.marginal_error(j, thresh(U4, 1))


class TestParameterChecks:
    @pytest.mark.parametrize("pmf", [[np.nan, 0.5, 0.5, 0.0], [np.inf, 0.5, 0.5, 0.0], [-np.inf, 1.0, 0.0, 0.0]],
                             ids=["nan", "inf", "minus-inf"])
    def test_distribution_rejects_non_finite_pmf(self, pmf):
        with pytest.raises(ValueError, match="pmf entries must be finite"):
            Distribution(U4, pmf)
        with pytest.raises(ValueError, match="pmf entries must be finite"):
            LabeledDistribution(U4, 0, np.array(pmf)[:, None])

    @pytest.mark.parametrize("weights", [[np.inf, 1, 1, 1], [np.nan, 1, 1, 1]], ids=["inf", "nan"])
    def test_from_weights_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="weights must be finite"):
            Distribution.from_weights(U4, weights)

    @pytest.mark.parametrize("bits", [0, -1, 21, 20_000, 10**8])
    def test_bit_width_checked_before_the_size(self, bits):
        with pytest.raises(ValueError, match=rf"bit_width must be in \[1, 20\], got {bits}$"):
            Universe.bitvectors(bits)
        with pytest.raises(ValueError, match=rf"bit_width must be in \[1, 20\], got {bits}$"):
            Universe(8, bit_width=bits)


class TestVcSampleSize:
    def test_realizable_example(self):
        assert vc_sample_size(1, 0.1, 0.1) == 6940

    def test_monotone_in_alpha(self):
        assert vc_sample_size(1, 0.05, 0.1) > vc_sample_size(1, 0.1, 0.1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            vc_sample_size(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            vc_sample_size(1, 1.5, 0.1)


class TestDatabaseFiles:
    def test_round_trip(self, tmp_path):
        db = sample_database(Distribution.uniform(U5), Hypotheses(U5, THRESH, np.array([2, 0])), 25, stream(9, 0))
        path = tmp_path / "db.txt"
        save_database(db, path)
        back = load_database(path)
        assert back.universe == db.universe
        assert (back.xs == db.xs).all() and (back.labels == db.labels).all()

    def test_bitvector_round_trip(self, tmp_path):
        u = Universe.bitvectors(3)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, PARITY, np.array([5])), 10, stream(9, 1))
        path = tmp_path / "db.txt"
        save_database(db, path)
        assert load_database(path).universe.bit_width == 3

    def test_header_format(self, tmp_path):
        db = MultiLabeledDatabase.from_rows(U3, [(0, [1, 0]), (2, [0, 1])])
        path = tmp_path / "db.txt"
        save_database(db, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# universe=3 k=2"
        assert lines[1] == "0 1 0"

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# universe=3 k=2\n0 1\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_database(path)


class TestValidation:
    def test_universe_bounds(self):
        with pytest.raises(ValueError):
            Universe.indexed(1)
        with pytest.raises(ValueError):
            Universe.bitvectors(21)

    def test_parity_needs_bitvector_universe(self):
        with pytest.raises(ValueError):
            parity(U5, 1)

    def test_concept_param_range(self):
        with pytest.raises(ValueError):
            point(U3, 3)
        with pytest.raises(ValueError):
            Concept("zero", U3, 1)

    def test_pmf_normalization(self):
        with pytest.raises(ValueError):
            Distribution(U3, np.array([0.5, 0.5, 0.1]))
