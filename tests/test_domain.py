"""Domain vocabulary: concepts, databases, errors, dichotomies, sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dpmulti.domain import (
    EVAL_BLOCK_CELLS,
    LABEL_TABLE_CELLS,
    PARITY,
    PMF_TOL,
    POINT,
    THRESH,
    ZERO,
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
    generalization_error,
    generalization_errors,
    load_database,
    sample_database,
    save_database,
    vc_sample_size,
)
from dpmulti.domain import _pack_words, _parity_bits, _unpack_words, _xor_table
from dpmulti.rng import stream

from scalar_reference import bit, joint_pmf, table_bits

U5 = Universe.indexed(5)
U3 = Universe.indexed(3)
U4 = Universe.indexed(4)
B2 = Universe.bitvectors(2)


def _evaluate(universe, kind, params, xs):
    return Hypotheses(universe, kind, np.array(params)).evaluate(np.array(xs)).tolist()


class TestEvaluate:
    """Hypotheses.evaluate on the classes' truth tables."""

    def test_point(self):
        assert _evaluate(U5, POINT, [2], [2, 3]) == [[1, 0]]

    def test_thresh_prefix(self):
        assert _evaluate(U5, THRESH, [2], range(5)) == [[1, 1, 1, 0, 0]]

    def test_parity_inner_product(self):
        # <(1,1), (1,1)> = 1*1 + 1*1 = 0 mod 2
        assert _evaluate(B2, PARITY, [0b11, 0b01], [0b11]) == [[0], [1]]

    def test_zero_always_zero(self):
        for kind in (POINT, THRESH):
            assert _evaluate(U5, kind, [-1], range(5)) == [[0] * 5]
        assert _evaluate(B2, PARITY, [0], range(4)) == [[0] * 4]

    @pytest.mark.parametrize("kind,universe", [(POINT, U5), (THRESH, U5), (PARITY, B2)], ids=[POINT, THRESH, PARITY])
    def test_out_of_universe_rejected(self, kind, universe):
        for x in (universe.size, universe.size + 2, -1):
            with pytest.raises(ValueError, match="element outside universe"):
                _evaluate(universe, kind, [1], [0, x])

    @pytest.mark.parametrize("kind,universe", [(POINT, U5), (THRESH, U5), (PARITY, Universe.bitvectors(3))], ids=[POINT, THRESH, PARITY])
    def test_truth_table_matches_scalar_reference(self, kind, universe):
        # Every concept of the class, and the zero hypothesis where the kind has one, on every element.
        params = np.arange(0 if kind == PARITY else -1, universe.size)
        table = Hypotheses(universe, kind, params)
        xs = universe.elements().tolist()
        assert table.evaluate(universe.elements()).tolist() == table_bits(table, xs)

    def test_parity_linearity(self):
        rng = stream(2, 0)
        u = Universe.bitvectors(6)
        for _ in range(50):
            a, b, x = (int(v) for v in rng.integers(0, 64, size=3))
            (ha,), (hb,), (hab,) = _evaluate(u, PARITY, [a, b, a ^ b], [x])
            assert hab == ha ^ hb

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
    return Concept(ZERO, universe) if p < 0 else Concept(kind, universe, p)


class TestHypotheses:
    @pytest.mark.parametrize("kind", sorted(TABLE_CASES))
    def test_evaluate_matches_scalar_reference(self, kind):
        universe, params = TABLE_CASES[kind]
        table = Hypotheses(universe, kind, np.array(params))
        # One block, then k * n above EVAL_BLOCK_CELLS: a block of examples at a time, the last block short.
        for n in (40, EVAL_BLOCK_CELLS // 2 + 1):
            xs = stream(9, 0).integers(0, universe.size, size=n)
            got = table.evaluate(xs)
            assert got.dtype == np.uint8 and got.shape == (len(params), n)
            assert got.T.flags.c_contiguous  # stored example-major
            assert got.tolist() == table_bits(table, xs.tolist())

    @pytest.mark.parametrize("kind", sorted(TABLE_CASES))
    def test_k0_evaluates_to_empty_matrix(self, kind):
        universe, _ = TABLE_CASES[kind]
        table = Hypotheses(universe, kind, np.zeros(0, dtype=np.int64))
        assert len(table) == 0 and list(table) == [] and table.params.shape == (0,)
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
        assert list(table) == concepts
        assert all(type(h.param) in (int, type(None)) for h in table)
        # A table is not a Concept list: it has no indexing, and it does not equal its Concepts.
        with pytest.raises(TypeError):
            table[0]
        assert table != concepts and table != tuple(concepts)

    def test_table_equality(self):
        # Tables compare by identity; their contents are compared through kind, universe and params.
        a = Hypotheses(U16, POINT, np.array([1, -1]))
        same = Hypotheses(U16, POINT, np.array([1, -1]))
        assert a == a and a != same
        assert (a.universe, a.kind, a.params.tolist()) == (same.universe, same.kind, same.params.tolist())

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
        # The scalar reference is the oracle, one (label, row) cell at a time.
        assert db.labels.T.tolist() == table_bits(table, db.xs.tolist())
        assert db.labels.flags.c_contiguous

    def test_table_on_another_universe_rejected(self):
        table = Hypotheses(U16, POINT, np.array([1, 2]))
        with pytest.raises(UniverseMismatchError):
            sample_database(Distribution.uniform(U5), table, 10, stream(9, 5))


class TestClassSums:
    @pytest.mark.parametrize("kind,universe", [(kind, universe) for kind in (POINT, THRESH)
                                               for universe in (Universe.indexed(2), U5, Universe.indexed(64))]
                             + [(PARITY, Universe.bitvectors(d)) for d in (1, 2, 6)])
    @pytest.mark.parametrize("tail", [(), (7,), (0,), (3, 2)])
    def test_sums_equal_the_evaluation_matrix_product(self, kind, universe, tail):
        # Negative entries included; the result is exact int64 of shape (|C|,) + tail.
        cclass = ConceptClass(kind, universe)
        v = stream(37, universe.size, len(tail)).integers(-1000, 1000, size=(universe.size, *tail))
        reference, original = np.tensordot(cclass.eval_matrix(universe.elements()).astype(np.int64), v, axes=1), v.copy()
        for same in (v, np.asfortranarray(v), v.astype(np.int16)):
            got = cclass.sums(same)
            assert got.dtype == np.int64 and got.shape == reference.shape
            assert np.array_equal(got, reference)
        assert np.array_equal(v, original)  # worked on a copy

    def test_unsigned_narrow_input(self):
        # The sanitizer's uint8 count tables: sums past 255 are not wrapped.
        cclass = ConceptClass(THRESH, Universe.indexed(4))
        assert cclass.sums(np.full((4, 1), 200, dtype=np.uint8)).ravel().tolist() == [200, 400, 600, 800]
        parities = ConceptClass(PARITY, Universe.bitvectors(2))
        assert parities.sums(np.full(4, 200, dtype=np.uint8)).tolist() == [0, 400, 400, 400]

    def test_wrong_row_count_refused(self):
        with pytest.raises(ValueError, match=r"^expected 5 rows, got shape \(4, 2\)$"):
            ConceptClass(POINT, U5).sums(np.zeros((4, 2)))


class TestGeneralizationError:
    def test_identical_concepts(self):
        d = Distribution.uniform(U5)
        assert generalization_error(d, Concept(THRESH, U5, 2), Concept(THRESH, U5, 2)) == 0.0

    def test_distinct_parities_half(self):
        u = Universe.bitvectors(4)
        d = Distribution.uniform(u)
        rng = stream(4, 0)
        for _ in range(10):
            a, b = (int(v) for v in rng.integers(0, 16, size=2))
            if a == b:
                continue
            assert generalization_error(d, Concept(PARITY, u, a), Concept(PARITY, u, b)) == 0.5

    def test_point_vs_zero(self):
        assert generalization_error(Distribution.uniform(U4), Concept(POINT, U4, 0), Concept(ZERO, U4)) == 0.25

    def test_matches_empirical_limit(self):
        # Empirical error on 50k samples sits within 0.02 of the exact value
        # (9+ sigma of the binomial spread, so the seeded check cannot flake).
        u = Universe.indexed(8)
        for trial in range(10):
            rng = stream(5, trial)
            d = Distribution.from_weights(u, rng.random(8) + 0.05)
            c = Concept(POINT, u, int(rng.integers(0, 8)))
            h = Concept(THRESH, u, int(rng.integers(0, 8)))
            exact = generalization_error(d, c, h)
            db = sample_database(d, Hypotheses(u, POINT, np.array([c.param])), 50_000, rng)
            hx = Hypotheses(u, THRESH, np.array([h.param])).evaluate(db.xs)[0]
            emp = float(np.count_nonzero(hx != db.labels[:, 0])) / db.n
            assert abs(emp - exact) < 0.02


def _brute_projection(cclass, pts):
    """Every labeling of pts that the class realizes, mapped to the lowest parameter realizing it."""
    brute = {}
    for param in range(len(cclass)):
        brute.setdefault(tuple(bit(cclass.kind, param, p) for p in pts), param)
    return brute


class TestDichotomyProjection:
    def test_empty_points(self):
        proj = dichotomy_projection(ConceptClass(POINT, U3), [])
        assert proj.kind == POINT and proj.universe == U3 and proj.params.tolist() == [0]
        assert proj.evaluate(np.array([], dtype=np.int64)).shape == (1, 0)

    def test_point_example(self):
        proj = dichotomy_projection(ConceptClass(POINT, U3), [0, 1])
        assert proj.kind == POINT and proj.params.tolist() == [0, 1, 2]
        assert proj.evaluate(np.array([0, 1])).tolist() == [[1, 0], [0, 1], [0, 0]]

    def test_thresh_example(self):
        proj = dichotomy_projection(ConceptClass(THRESH, U3), [0, 2])
        assert proj.kind == THRESH and proj.params.tolist() == [0, 2]
        assert {tuple(row) for row in proj.evaluate(np.array([0, 2])).tolist()} == {(1, 0), (1, 1)}

    def test_witnesses_realize_their_dichotomy(self):
        # One witness per labeling, each the lowest parameter realizing it, in ascending order.
        rng = stream(6, 0)
        for kind in (POINT, THRESH):
            cclass = ConceptClass(kind, Universe.indexed(9))
            pts = [int(v) for v in rng.integers(0, 9, size=4)]
            brute = _brute_projection(cclass, pts)
            proj = dichotomy_projection(cclass, pts)
            assert proj.params.tolist() == sorted(brute.values())
            for witness in proj.params.tolist():
                assert brute[tuple(bit(kind, witness, p) for p in pts)] == witness

    def test_complete_against_enumeration(self):
        rng = stream(6, 1)
        for kind in (POINT, THRESH):
            cclass = ConceptClass(kind, Universe.indexed(11))
            pts = [int(v) for v in rng.integers(0, 11, size=5)]
            brute = _brute_projection(cclass, pts)
            labelings = [tuple(row) for row in dichotomy_projection(cclass, pts).evaluate(np.array(pts)).tolist()]
            assert len(labelings) == len(brute) and set(labelings) == set(brute)

    def test_large_point_class(self):
        # 100 distinct points of 2^16: each point is its own witness, and the all-zero
        # labeling's witness is the first element not among them.
        u = Universe.indexed(1 << 16)
        rng = stream(6, 3)
        pts = np.r_[np.arange(7), rng.choice(np.arange(8, 1 << 16), size=93, replace=False)]
        rng.shuffle(pts)
        proj = dichotomy_projection(ConceptClass(POINT, u), pts)
        assert proj.kind == POINT
        assert proj.params.tolist() == sorted(pts.tolist() + [7])
        expected = (proj.params[:, None] == pts[None, :]).astype(np.uint8)
        assert np.array_equal(proj.evaluate(pts), expected)

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


# Universes on both sides of LABEL_TABLE_CELLS for points: the table over the
# universe while |X| * words fits in it (16 and 2^16 elements at k <= 64,
# 2^16 / 3 elements at k <= 192), the sorted-parameter route above it (2^16
# elements at k = 65 and 130, 2^16 + 1 and 2^20 elements). Parity reads one
# table per 12 bits of x: one for d <= 12, two or more above.
LABELLER_UNIVERSES = {
    POINT: [Universe.indexed(16), Universe.indexed(LABEL_TABLE_CELLS // 3), Universe.indexed(LABEL_TABLE_CELLS),
            Universe.indexed(LABEL_TABLE_CELLS + 1), Universe.indexed(1 << 20)],
    THRESH: [Universe.indexed(16), Universe.indexed(LABEL_TABLE_CELLS + 1), Universe.indexed(1 << 20)],
    PARITY: [Universe.bitvectors(1), Universe.bitvectors(4), Universe.bitvectors(12), Universe.bitvectors(13),
             Universe.bitvectors(17), Universe.bitvectors(20)],
}
LABELLER_CASES = [(kind, universe) for kind, universes in LABELLER_UNIVERSES.items() for universe in universes]


class TestLabelWords:
    """Hypotheses.label_words against its reference, _pack_words(evaluate(xs).T), on every route."""

    @pytest.mark.parametrize("k", [1, 32, 64, 65, 130])
    @pytest.mark.parametrize("kind,universe", LABELLER_CASES, ids=[f"{k}-{u.size}" for k, u in LABELLER_CASES])
    def test_matches_packed_evaluate(self, kind, universe, k):
        rng = stream(31, k)
        low = 0 if kind == PARITY else -1
        params = rng.integers(low, universe.size, size=k)
        params[k // 2 :] = params[: k - k // 2]  # duplicate parameters
        params[::7] = low  # the zero hypothesis (point, thresh), the all-zero mask (parity)
        table = Hypotheses(universe, kind, params)
        # Elements that some target hits, the extremes, and random elements that most targets miss.
        hit = np.clip(params, 0, None)
        xs = np.concatenate([hit, hit + 1, [0, universe.size - 1], rng.integers(0, universe.size, size=300)])
        xs = np.clip(xs, 0, universe.size - 1)
        got = table.label_words(xs)
        assert got.dtype == np.uint64 and got.shape == (len(xs), -(-k // 64))
        assert np.array_equal(got, _pack_words(table.evaluate(xs).T))

    @pytest.mark.parametrize("kind,universe", LABELLER_CASES, ids=[f"{k}-{u.size}" for k, u in LABELLER_CASES])
    def test_edge_tables(self, kind, universe):
        xs = stream(31, 0).integers(0, universe.size, size=50)
        empty = Hypotheses(universe, kind, np.zeros(0, dtype=np.int64))
        assert np.array_equal(empty.label_words(xs), np.zeros((50, 1), dtype=np.uint64))
        zero_param = Hypotheses(universe, kind, np.full(3, 0 if kind == PARITY else -1))
        assert not zero_param.label_words(xs).any()
        table = Hypotheses(universe, kind, np.array([1, 1, universe.size - 1]))
        assert table.label_words(np.zeros(0, dtype=np.int64)).shape == (0, 1)
        assert np.array_equal(table.label_words(xs), _pack_words(table.evaluate(xs).T))

    @pytest.mark.parametrize("kind,universe,k", [
        (POINT, Universe.indexed(1 << 20), 64),
        (THRESH, Universe.indexed(1 << 20), 64),
        (PARITY, Universe.bitvectors(20), 64),
        (POINT, Universe.indexed(LABEL_TABLE_CELLS), 65),  # 2^16 elements of two words: past LABEL_TABLE_CELLS
    ])
    def test_large_universe_builds_no_universe_table(self, kind, universe, k):
        # One uint64 column over 2^20 elements would take 8 MiB, and two over 2^16 elements 1 MiB.
        table = Hypotheses(universe, kind, stream(31, 1).integers(0, universe.size, size=k))
        xs = stream(31, 2).integers(0, universe.size, size=2000)
        tracemalloc.start()
        try:
            table.label_words(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("b", range(13))
    def test_xor_table_matches_doubling(self, b, width):
        # The reference build: rows [2^i, 2^(i+1)) are rows [0, 2^i) XOR planes[i].
        planes = stream(31, 3 + b).integers(0, 1 << 64, size=(b, width), dtype=np.uint64)
        want = np.zeros((1 << b, width), dtype=np.uint64)
        for i, plane in enumerate(planes):
            np.bitwise_xor(want[: 1 << i], plane, out=want[1 << i : 2 << i])
        got = _xor_table(planes)
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    def test_elements_are_checked(self):
        table = Hypotheses(U5, POINT, np.array([1, 2]))
        with pytest.raises(ValueError, match="element outside universe"):
            table.label_words(np.array([5]))
        with pytest.raises(ValueError, match="1-D"):
            table.label_words(np.zeros((2, 2), dtype=np.int64))


class TestPackedDatabase:
    @pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130])
    def test_from_labels_round_trips(self, k):
        labels = stream(32, k).integers(0, 2, size=(20, k)).astype(np.uint8)
        db = MultiLabeledDatabase.from_labels(U5, np.arange(20) % 5, labels)
        assert db.k == k and db.n == 20
        assert db.words.dtype == np.uint64 and db.words.shape == (20, max(1, -(-k // 64)))
        assert np.array_equal(db.words, _pack_words(labels))
        assert db.labels.dtype == np.uint8 and np.array_equal(db.labels, labels)
        assert db.labels is db.labels and not db.labels.flags.writeable

    @pytest.mark.parametrize("k,word,bit", [(0, 0, 0), (3, 0, 3), (3, 0, 63), (64, 0, 63), (65, 1, 1), (130, 2, 2)])
    def test_word_bits_above_k(self, k, word, bit):
        words = np.zeros((4, max(1, -(-k // 64))), dtype=np.uint64)
        words[2, word] = np.uint64(1) << np.uint64(bit)
        if k > 64 * word + bit:  # a label bit: accepted
            assert MultiLabeledDatabase(U5, np.arange(4), words, k).labels[2, 64 * word + bit] == 1
        else:
            with pytest.raises(ValueError, match=f"at or above k={k}"):
                MultiLabeledDatabase(U5, np.arange(4), words, k)

    def test_word_shape_and_dtype_checked(self):
        xs = np.arange(4)
        for words, k in [(np.zeros((4, 1), dtype=np.uint64), 65), (np.zeros((3, 1), dtype=np.uint64), 1),
                         (np.zeros((4, 1), dtype=np.int64), 1), (np.zeros(4, dtype=np.uint64), 1)]:
            with pytest.raises(ValueError, match="words must be uint64"):
                MultiLabeledDatabase(U5, xs, words, k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            MultiLabeledDatabase(U5, xs, np.zeros((4, 1), dtype=np.uint64), -1)
        with pytest.raises(ValueError, match="element outside universe"):
            MultiLabeledDatabase(U5, np.array([5]), np.zeros((1, 1), dtype=np.uint64), 1)

    def test_from_labels_checks_bits_and_shape(self):
        with pytest.raises(ValueError, match="labels must be bits"):
            MultiLabeledDatabase.from_labels(U5, np.arange(2), np.array([[0], [2]]))
        with pytest.raises(ValueError, match=r"labels must have shape \(n, k\)"):
            MultiLabeledDatabase.from_labels(U5, np.arange(2), np.array([0, 1]))
        with pytest.raises(ValueError, match=r"^labels must have shape \(n, k\)$"):
            MultiLabeledDatabase.from_labels(U5, np.arange(3), np.zeros((2, 1)))

    def test_words_and_labels_are_read_only_copies(self):
        words = np.array([[1], [0]], dtype=np.uint64)
        db = MultiLabeledDatabase(U5, np.arange(2), words, 1)
        with pytest.raises(ValueError, match="read-only"):
            db.words[0, 0] = 0
        words[0, 0] = 0  # the caller's array stays writable and is not the database's
        assert db.words[0, 0] == 1 and db.labels[0, 0] == 1
        labels = np.array([[1], [0]], dtype=np.uint8)
        db = MultiLabeledDatabase.from_labels(U5, np.arange(2), labels)
        labels[0, 0] = 0
        assert db.labels[0, 0] == 1 and not db.labels.flags.writeable
        assert np.array_equal(db.labels, _unpack_words(db.words, 1))

    def test_compares_by_identity_and_hashes(self):
        a, b = (MultiLabeledDatabase.from_labels(U5, np.array([0, 3]), np.array([[1], [0]])) for _ in range(2))
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_sampled_database_stores_the_labeller_words(self):
        table = Hypotheses(U16, THRESH, np.array([3, 9, -1]))
        db = sample_database(Distribution.uniform(U16), table, 50, stream(32, 1))
        assert db.k == 3 and np.array_equal(db.words, table.label_words(db.xs))


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
        db = sample_database(d, Hypotheses(U5, THRESH, np.array([1])), 200, stream(7, 3))
        assert db.labels[:, 0].tolist() == [bit(THRESH, 1, x) for x in db.xs.tolist()]


def _weights(size, weights):
    return Distribution.from_weights(Universe.indexed(size), weights)


_RS = np.random.default_rng(2015)
_SPARSE = np.zeros(100)
_SPARSE[[3, 4, 17, 50, 51, 52, 90]] = [0.5, 2.0, 1.0, 3.0, 0.25, 1.5, 0.75]
SAMPLE_DISTS = {
    **{f"uniform-{size}": Distribution.uniform(Universe.indexed(size)) for size in (3, 100, 1000, 1024, 65536)},
    "random-37": _weights(37, _RS.random(37)),
    "random-1024": _weights(1024, _RS.random(1024)),
    "sparse-100": _weights(100, _SPARSE),
    "point-mass-first": Distribution.point_mass(Universe.indexed(100), 0),
    "point-mass-last": Distribution.point_mass(Universe.indexed(100), 99),
    "point-mass-last-1024": Distribution.point_mass(Universe.indexed(1024), 1023),
}


class TestDistributionSample:
    @pytest.mark.parametrize("name", list(SAMPLE_DISTS))
    def test_draws_match_rng_choice(self, name):
        # Draw for draw, and the generator left in the same state.
        dist = SAMPLE_DISTS[name]
        for seed, n in enumerate((0, 1, 7, 480, 2726)):
            ours, theirs = stream(11, seed), stream(11, seed)
            xs = dist.sample(n, ours)
            expected = theirs.choice(dist.universe.size, size=n, p=dist.pmf).astype(np.int64)
            assert xs.dtype == np.int64 and np.array_equal(xs, expected), (name, n)
            assert ours.random() == theirs.random(), (name, n)

    def test_zero_draws_consume_no_randomness(self):
        rng = stream(11, 99)
        xs = _weights(5, [1, 2, 3, 4, 5]).sample(0, rng)
        assert xs.dtype == np.int64 and xs.shape == (0,)
        assert rng.random() == stream(11, 99).random()

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=r"n must be >= 0, got -1"):
            Distribution.uniform(U5).sample(-1, stream(11, 98))


class TestFrozenPmf:
    @pytest.mark.parametrize("make", [
        lambda: Distribution.uniform(U4),
        lambda: LabeledDistribution.from_label_probs(Distribution.uniform(U4), np.array([[1.0], [1.0], [0.0], [0.0]])),
    ], ids=["distribution", "labeled-distribution"])
    def test_compares_by_identity_and_hashes(self, make):
        a, b = make(), make()
        assert a == a and a != b and np.array_equal(a.pmf, b.pmf)
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_distribution_pmf_is_a_read_only_copy(self):
        weights = np.array([0.25, 0.25, 0.5, 0.0])
        dist = Distribution(U4, weights)
        with pytest.raises(ValueError):
            dist.pmf[0] = 1.0
        weights[:] = [1.0, 0.0, 0.0, 0.0]
        assert dist.pmf.tolist() == [0.25, 0.25, 0.5, 0.0]

    def test_labeled_distribution_pmf_is_a_read_only_copy(self):
        joint = np.array([[0.25, 0.0], [0.0, 0.25], [0.5, 0.0], [0.0, 0.0]])
        ld = LabeledDistribution(U4, 1, joint)
        with pytest.raises(ValueError):
            ld.pmf[0, 0] = 1.0
        joint[0, 0] = 0.0
        assert ld.pmf[0, 0] == 0.25


def _pmf_summing_to(offset, size=3 * 4096 + 5):
    """A seeded pmf over several sum blocks whose fsum is 1 + offset: its largest entry absorbs the difference."""
    p = stream(16, 0).random(size)
    p /= p.sum()
    p[p.argmax()] += offset - (math.fsum(p.tolist()) - 1.0)
    return p


class TestPmfSumCheck:
    # The blocked check needs the full fsum only within about 9.1e-13 (its slack) of the tolerance's edge.
    @pytest.mark.parametrize("offset,near_edge", [
        (0.0, False), (5e-14, False), (-5e-14, False),
        (1e-12 - 1e-15, True), (-(1e-12 - 1e-15), True),
        (1e-12 + 1e-15, True), (-(1e-12 + 1e-15), True),
        (3e-12, False), (-3e-12, False),
    ])
    def test_decision_is_the_full_fsum_decision(self, monkeypatch, offset, near_edge):
        p = _pmf_summing_to(offset)
        expected = abs(math.fsum(p.tolist()) - 1.0) <= PMF_TOL
        assert expected == (abs(offset) <= 1e-12)
        fsum, lengths = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda xs: lengths.append(len(xs)) or fsum(xs))
        try:
            Distribution(Universe.indexed(p.size), p)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "pmf must sum to 1 within 1e-12"
            accepted = False
        assert accepted == expected
        assert (p.size in lengths) == near_edge  # the full fsum ran only at the edge

    @pytest.mark.parametrize("offset", [1e-12 - 1e-15, 1e-12 + 1e-15, -(1e-12 + 1e-15)])
    def test_one_block_edge_cases(self, offset):
        p = _pmf_summing_to(offset, size=1000)
        expected = abs(math.fsum(p.tolist()) - 1.0) <= PMF_TOL
        try:
            LabeledDistribution(Universe.indexed(500), 1, p.reshape(500, 2))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected


def _label_probs_reference(dist, probs):
    """from_label_probs as one (|X|, 2^k, k) broadcast and a product over the k axis."""
    k = probs.shape[1]
    bits = _unpack_words(np.arange(1 << k)[:, None], k)
    cond = np.prod(np.where(bits[None, :, :] == 1, probs[:, None, :], 1.0 - probs[:, None, :]), axis=2)
    return dist.pmf[:, None] * cond


@pytest.mark.parametrize("k", range(1, 13))
def test_from_label_probs_is_the_broadcast_product_bit_for_bit(k):
    rng = stream(17, k)
    for dist in (Distribution.uniform(Universe.indexed(8)), _weights(5, rng.random(5)), _weights(3, [0.0, 1.0, 2.0])):
        probs = rng.random((dist.universe.size, k))
        probs[0, ::2], probs[-1, ::3] = 0.0, 1.0  # some labels certain
        ld = LabeledDistribution.from_label_probs(dist, probs)
        assert ld.pmf.tobytes() == _label_probs_reference(dist, probs).tobytes()


def _realizable(dist, kind, params):
    """The realizable law of the targets (kind, params), as from_label_probs at their 0/1 labels."""
    targets = Hypotheses(dist.universe, kind, np.array(params))
    return LabeledDistribution.from_label_probs(dist, targets.evaluate(dist.universe.elements()).T)


@pytest.mark.parametrize("kind,universe,params", [
    (POINT, U5, [3, -1, 0, 4, 3]),
    (THRESH, U5, [-1, 0, 2, 4, 2]),
    (PARITY, Universe.bitvectors(3), [0, 1, 5, 7, 5]),
], ids=[POINT, THRESH, PARITY])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_label_probs_at_zero_one_are_the_realizable_law_bit_for_bit(kind, universe, params, k):
    # Zero-mass elements included: they carry 0.0 at every label vector in both.
    weights = stream(18, k).random(universe.size)
    weights[1] = 0.0
    for dist in (Distribution.uniform(universe), Distribution.from_weights(universe, weights)):
        targets = Hypotheses(universe, kind, np.array(params[:k], dtype=np.int64))
        ld = _realizable(dist, kind, params[:k])
        assert ld.k == k and ld.pmf.tobytes() == joint_pmf(dist, targets).tobytes()


LABELED_DISTS = {
    "realizable-uniform-4": _realizable(Distribution.uniform(U4), THRESH, [1, 2]),
    "realizable-random-37": _realizable(SAMPLE_DISTS["random-37"], POINT, [3, 36, 0]),
    "realizable-point-mass": _realizable(SAMPLE_DISTS["point-mass-last"], THRESH, [98, 99]),
    "label-probs-8x8": LabeledDistribution.from_label_probs(
        Distribution.uniform(Universe.indexed(8)), np.random.default_rng(26).random((8, 8)) * 0.9 + 0.05),
    "label-probs-sparse": LabeledDistribution.from_label_probs(
        _weights(8, [0, 1, 0, 3, 0.5, 0, 0, 2]), np.tile([0.0, 0.3, 1.0], (8, 1))),
}


class TestLabeledDistributionSample:
    @pytest.mark.parametrize("name", list(LABELED_DISTS))
    def test_draws_match_rng_choice(self, name):
        # Draw for draw, and the generator left in the same state; zero draws make no database.
        ld = LABELED_DISTS[name]
        for seed, n in enumerate((0, 1, 7, 400, 2726)):
            ours, theirs = stream(12, seed), stream(12, seed)
            flat = theirs.choice(ld.pmf.size, size=n, p=ld.pmf.ravel() / ld.pmf.sum())
            if n == 0:
                with pytest.raises(EmptyDatabaseError):
                    ld.sample(n, ours)
            else:
                db = ld.sample(n, ours)
                codes = flat % ld.pmf.shape[1]
                assert db.xs.dtype == np.int64 and np.array_equal(db.xs, flat // ld.pmf.shape[1]), (name, n)
                assert np.array_equal(db.labels, (codes[:, None] >> np.arange(ld.k)) & 1), (name, n)
            assert ours.random() == theirs.random(), (name, n)

    def test_zero_draws_consume_no_randomness(self):
        rng = stream(12, 99)
        with pytest.raises(EmptyDatabaseError, match="^a database needs at least one row$"):
            LABELED_DISTS["label-probs-8x8"].sample(0, rng)
        assert rng.random() == stream(12, 99).random()

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=r"n must be >= 0, got -1"):
            LABELED_DISTS["realizable-uniform-4"].sample(-1, stream(12, 98))


class TestEmptyDatabase:
    # A database has at least one row: every route that builds one refuses zero.
    @pytest.mark.parametrize("build", [
        lambda: MultiLabeledDatabase(U4, np.zeros(0, dtype=np.int64), np.zeros((0, 1), dtype=np.uint64), 1),
        lambda: MultiLabeledDatabase.from_labels(U4, [], np.zeros((0, 3), dtype=np.uint8)),
        lambda: MultiLabeledDatabase.unlabeled(U4, np.zeros(0, dtype=np.int64)),
        lambda: LABELED_DISTS["realizable-uniform-4"].sample(0, stream(13, 0)),
        lambda: sample_database(Distribution.uniform(U4), Hypotheses(U4, POINT, np.array([1, 2])), 0, stream(13, 1)),
    ], ids=["constructor", "from-labels", "unlabeled", "labeled-distribution-sample", "sample-database"])
    def test_every_route_refuses_zero_rows(self, build):
        with pytest.raises(EmptyDatabaseError, match="^a database needs at least one row$"):
            build()

    def test_sample_database_of_zero_rows_consumes_no_randomness(self):
        rng = stream(13, 2)
        with pytest.raises(EmptyDatabaseError):
            sample_database(Distribution.uniform(U4), Hypotheses(U4, POINT, np.array([1, 2])), 0, rng)
        assert rng.random() == stream(13, 2).random()

    def test_sample_database_refuses_a_negative_size(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            sample_database(Distribution.uniform(U4), Hypotheses(U4, POINT, np.array([1, 2])), -1, stream(13, 3))

    @pytest.mark.parametrize("text", ["# universe=8 k=2\n", "# universe=8 k=0\n\n   \n"], ids=["header-only", "blank-rows"])
    def test_load_database_refuses_a_file_with_no_rows_naming_its_path(self, tmp_path, text):
        path = tmp_path / "db.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as refused:
            load_database(path)
        assert str(refused.value) == f"{path}: a database needs at least one row"

    def test_one_row_is_a_database(self, tmp_path):
        db = MultiLabeledDatabase.from_labels(U4, [3], [[1, 0]])
        assert db.n == 1 and db.words.tolist() == [[1]]
        save_database(db, tmp_path / "db.txt")
        assert load_database(tmp_path / "db.txt").labels.tolist() == [[1, 0]]


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
        db = MultiLabeledDatabase.from_labels(U3, np.array([0, 2]), np.array([[1, 0], [0, 1]]))
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
            Hypotheses(U5, PARITY, np.array([1]))
        with pytest.raises(ValueError):
            ConceptClass(PARITY, U5)

    def test_concept_param_range(self):
        with pytest.raises(ValueError):
            Concept(POINT, U3, 3)
        with pytest.raises(ValueError):
            Concept("zero", U3, 1)

    def test_pmf_normalization(self):
        with pytest.raises(ValueError):
            Distribution(U3, np.array([0.5, 0.5, 0.1]))



U8 = Universe.indexed(8)
POINT_TABLE = Hypotheses(U8, POINT, np.array([1, 2]))
SQUARE = np.zeros((2, 2), dtype=np.int64)
OUTSIDE = r"^element outside universe of size 8: got "
FLOAT = r"^elements must be integers, got dtype float64$"
NOT_1D = r"^elements must be a 1-D array, got shape \(2, 2\)$"


class TestElementCheck:
    """Every array of elements is read by one check: 1-D integers inside the universe."""

    @pytest.mark.parametrize("call,message", [
        (lambda: dichotomy_projection(ConceptClass(POINT, U8), [100, -5]), OUTSIDE + r"\[-5, 100\]$"),
        (lambda: ConceptClass(POINT, U8).eval_matrix([100]), OUTSIDE + r"\[100, 100\]$"),
        (lambda: POINT_TABLE.evaluate(np.array([2.7])), FLOAT),
        (lambda: POINT_TABLE.label_words(np.array([2.7])), FLOAT),
        (lambda: POINT_TABLE.evaluate(SQUARE), NOT_1D),
        (lambda: MultiLabeledDatabase(U8, SQUARE, np.zeros((2, 1), dtype=np.uint64), 1), NOT_1D),
        (lambda: MultiLabeledDatabase.unlabeled(U8, np.array([0.5, 1.0])), FLOAT),
        (lambda: Distribution.point_mass(U8, 8), OUTSIDE + r"\[8, 8\]$"),
        (lambda: Distribution.point_mass(U8, -1), OUTSIDE + r"\[-1, -1\]$"),
        (lambda: Concept(POINT, U8, 8), OUTSIDE + r"\[8, 8\]$"),
        (lambda: Hypotheses(U8, POINT, np.array([1.0])), r"^hypothesis parameters must be integers, got dtype float64$"),
        (lambda: Hypotheses(U8, POINT, SQUARE), r"^hypothesis parameters must be a 1-D array, got shape \(2, 2\)$"),
    ], ids=["projection-range", "eval-matrix-range", "evaluate-float", "label-words-float", "evaluate-2d",
            "database-2d", "unlabeled-float", "point-mass-high", "point-mass-negative", "concept-range",
            "params-float", "params-2d"])
    def test_refusal_names_what_was_wrong(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("xs", [np.array([0, 7, 3], dtype=np.int32), np.array([0, 7, 3], dtype=np.uint8),
                                    [0, 7, 3], []], ids=["int32", "uint8", "list", "empty-list"])
    def test_integer_inputs_read_as_int64(self, xs):
        want = np.array(xs, dtype=np.int64)
        if len(want):
            db = MultiLabeledDatabase.unlabeled(U8, xs)
            assert db.xs.dtype == np.int64 and np.array_equal(db.xs, want)
        else:  # a database has at least one row
            with pytest.raises(EmptyDatabaseError):
                MultiLabeledDatabase.unlabeled(U8, xs)
        assert np.array_equal(POINT_TABLE.evaluate(xs), POINT_TABLE.evaluate(want))
        assert np.array_equal(POINT_TABLE.label_words(xs), POINT_TABLE.label_words(want))
        cclass = ConceptClass(THRESH, U8)
        assert np.array_equal(cclass.eval_matrix(xs), cclass.eval_matrix(want))
        params = Hypotheses(U8, POINT, xs).params
        assert params.dtype == np.int64 and np.array_equal(params, want)

    def test_an_int64_array_is_kept_and_hypothesis_parameters_are_copied(self):
        xs = np.array([1, 2], dtype=np.int64)
        assert MultiLabeledDatabase.unlabeled(U8, xs).xs is xs
        table = Hypotheses(U8, POINT, xs)
        assert table.params is not xs and xs.flags.writeable
