"""Learner behavior: ERM, GF(2) solving, parity/point/generic learners,
and direct sum."""

import hashlib
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dpmulti import learners
from dpmulti.domain import (
    EVAL_BLOCK_CELLS,
    MAX_PARITY_BITS,
    PARITY,
    POINT,
    THRESH,
    ConceptClass,
    Distribution,
    EmptyDatabaseError,
    Hypotheses,
    LabeledDistribution,
    MultiLabeledDatabase,
    Universe,
    dichotomy_projection,
    generalization_errors,
    sample_database,
)
from dpmulti.harness import read_learn, sample_and_learn
from dpmulti.learners import (
    LearnResult,
    direct_sum_learner,
    erm_mismatch_counts,
    erm_multi,
    generic_multi_learner,
    generic_privacy_total,
    generic_rows_bound,
    generic_sanitizer,
    gf2_solve,
    gf2_solve_blocks,
    parity_block_plan,
    parity_learner,
    parity_learner_pmf,
    _parity_tally,
    _point_tally,
    point_learner,
    point_rows_bound,
)
from dpmulti.mechanisms import (
    PrivacyLedger,
    PrivacyParams,
    dp_bound_holds,
    noisy_threshold_pmf,
    stable_argmax,
    stable_argmax_pmf,
)
from dpmulti.rng import stream
from dpmulti.sanitize import SanitizedAnswers, answers_to_synthetic, sanitize_exhaustive, sanitize_points

from scalar_reference import bit


class TestErmMulti:
    def test_realizable_zero_error(self):
        u = Universe.indexed(8)
        cclass = ConceptClass(THRESH, u)
        targets = Hypotheses(u, THRESH, np.array([2, 6]))
        db = sample_database(Distribution.uniform(u), targets, 200, stream(30, 0))
        hyps = erm_multi(db, cclass).hypotheses
        assert np.array_equal(hyps.evaluate(db.xs), db.labels.T)

    def test_tie_breaks_to_lowest_parameter(self):
        u = Universe.indexed(3)
        db = MultiLabeledDatabase.from_labels(u, np.arange(3), np.array([[1], [1], [0]]))
        hyps = erm_multi(db, ConceptClass(POINT, u)).hypotheses
        assert hyps.params.tolist() == [0]
        assert np.count_nonzero(hyps.evaluate(db.xs) != db.labels.T) == 1

    def test_label_permutation_equivariance(self):
        u = Universe.indexed(6)
        rng = stream(30, 1)
        db = MultiLabeledDatabase.from_labels(u, rng.integers(0, 6, size=50), rng.integers(0, 2, size=(50, 3)).astype(np.uint8))
        perm = [2, 0, 1]
        permuted = MultiLabeledDatabase.from_labels(u, db.xs, db.labels[:, perm])
        a = erm_multi(db, ConceptClass(POINT, u)).hypotheses
        b = erm_multi(permuted, ConceptClass(POINT, u)).hypotheses
        assert b.kind == a.kind and b.params.tolist() == a.params[perm].tolist()

    @pytest.mark.parametrize("kind", [POINT, THRESH, PARITY])
    def test_mismatch_counts_match_two_product_form(self, kind):
        u = Universe.bitvectors(4)
        cclass = ConceptClass(kind, u)
        for trial in range(5):
            rng = stream(30, 3, trial)
            n, k = int(rng.integers(1, 300)), int(rng.integers(0, 80))
            db = MultiLabeledDatabase.from_labels(u, rng.integers(0, u.size, size=n), rng.integers(0, 2, size=(n, k)).astype(np.uint8))
            evals, labels = cclass.eval_matrix(db.xs).astype(np.int64), db.labels.astype(np.int64)
            got = erm_mismatch_counts(db, cclass)
            assert got.dtype == np.int64
            assert np.array_equal(got, evals @ (1 - labels) + (1 - evals) @ labels)

    @pytest.mark.parametrize("kind", [POINT, THRESH, PARITY])
    def test_mismatch_counts_blocked_match_the_unblocked_reference(self, kind):
        # 512 concepts on 700 rows is 5.5 blocks of EVAL_BLOCK_CELLS evaluations, the last one short.
        u = Universe.bitvectors(9)
        cclass = ConceptClass(kind, u)
        assert len(cclass) * 700 > 5 * EVAL_BLOCK_CELLS
        rng = stream(30, 5)
        labels = rng.integers(0, 2, size=(700, 3)).astype(np.uint8)
        db = MultiLabeledDatabase.from_labels(u, rng.integers(0, u.size, size=700), labels)
        reference = np.count_nonzero(cclass.eval_matrix(db.xs)[:, :, None] != db.labels[None], axis=1)
        assert np.array_equal(erm_mismatch_counts(db, cclass), reference)

    @pytest.mark.parametrize("kind", [POINT, THRESH, PARITY])
    def test_equals_argmin_of_mismatch_counts(self, kind):
        # Few rows make equal counts, and so ties, common; k = 0 and k > 2000 included.
        u = Universe.bitvectors(3)
        cclass = ConceptClass(kind, u)
        for trial, k in enumerate([0, 1, 7, 64, 2370]):
            rng = stream(30, 4, trial)
            n = int(rng.integers(1, 5))
            db = MultiLabeledDatabase.from_labels(u, rng.integers(0, u.size, size=n), rng.integers(0, 2, size=(n, k)).astype(np.uint8))
            got = erm_multi(db, cclass).hypotheses
            assert got.kind == kind
            assert got.params.tolist() == np.argmin(erm_mismatch_counts(db, cclass), axis=0).tolist()


    @pytest.mark.parametrize("kind", [POINT, THRESH, PARITY])
    @pytest.mark.parametrize("bits,n,k", [(16, 1, 5), (1, EVAL_BLOCK_CELLS // 2, 64), (16, 2, 3), (1, EVAL_BLOCK_CELLS // 2 + 1, 64)],
                             ids=["65536-concepts-one-row", "2-concepts-32768-rows", "past-the-block-wide",
                                  "past-the-block-tall"])
    def test_exact_at_the_ends_of_the_evaluated_path(self, kind, bits, n, k):
        # |C| * n = EVAL_BLOCK_CELLS at both extremes, where the keys are largest (up to 2^17) and
        # are taken in float32; one row or one more row takes the closed-form path.
        u = Universe.indexed(1 << bits) if kind != PARITY else Universe.bitvectors(bits)
        cclass = ConceptClass(kind, u)
        rng = stream(30, 6, bits, n)
        db = MultiLabeledDatabase.from_labels(u, rng.integers(0, u.size, size=n), rng.integers(0, 2, size=(n, k)).astype(np.uint8))
        evaluated = len(cclass) * n <= EVAL_BLOCK_CELLS
        assert evaluated == (len(cclass) * n == EVAL_BLOCK_CELLS)
        if evaluated:
            assert learners._product_dtype(n, len(cclass)) == np.float32
        counts = erm_mismatch_counts(db, cclass)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.count_nonzero(cclass.eval_matrix(db.xs)[:, :, None] != db.labels[None], axis=1))
        assert erm_multi(db, cclass).hypotheses.params.tolist() == np.argmin(counts, axis=0).tolist()

    def test_keys_are_exact_up_to_the_float32_bound(self):
        # 4096 hypotheses on 4095 rows: keys reach 4096 * 4095 + 4095 = 2^24 - 1, the largest float32 admits.
        rows, size = 4095, 4096
        assert learners._product_dtype(rows, size) == np.float32
        rng = stream(30, 7)
        evals = rng.integers(0, 2, size=(size, rows)).astype(np.uint8)
        evals[-1] = 1
        labels = rng.integers(0, 2, size=(rows, 4)).astype(np.uint8)
        labels[:, 0] = 0
        keys = learners._mismatch_keys(evals, labels, tiebreak=True)
        assert keys.dtype == np.float32 and keys[-1, 0] == (1 << 24) - 1
        e, y = evals.astype(np.int64), labels.astype(np.int64)
        reference = size * (e @ (1 - y) + (1 - e) @ y) + np.arange(size)[:, None]
        assert np.array_equal(keys.astype(np.int64), reference)

    def test_product_falls_back_to_float64_where_keys_could_reach_2_24(self):
        # Chosen from the shapes alone, so no database of 2^24 rows is built.
        assert learners._product_dtype(2**24 - 1, 1) == np.float32
        assert learners._product_dtype(2**24, 1) == np.float64  # the generic learner's counts on 2^24 rows
        assert learners._product_dtype(2**16 - 1, 2**8) == np.float32
        assert learners._product_dtype(2**16, 2**8) == np.float64
        for bits in range(17):  # every evaluated ERM shape, |C| * n <= EVAL_BLOCK_CELLS, is in float32
            assert learners._product_dtype(EVAL_BLOCK_CELLS >> bits, 1 << bits) == np.float32


class TestLearnResult:
    def test_erm_multi_releases_the_argmin_table(self):
        u = Universe.indexed(8)
        rng = stream(30, 2)
        db = MultiLabeledDatabase.from_labels(u, rng.integers(0, 8, size=60), rng.integers(0, 2, size=(60, 5)).astype(np.uint8))
        cclass = ConceptClass(THRESH, u)
        res = erm_multi(db, cclass)
        assert res.ledger.charges == [] and not res.below_sample_bound
        assert not res.failed and LearnResult(None).failed
        assert res.hypotheses.kind == THRESH
        assert res.hypotheses.params.tolist() == np.argmin(erm_mismatch_counts(db, cclass), axis=0).tolist()

    @pytest.mark.parametrize("algorithm", ["points", "parities", "generic", "direct-sum", "erm"])
    def test_every_learner_releases_a_table(self, algorithm):
        settings = {
            "points": {"universe": "8", "dist": "weights:1,1,1,1,0,0,0,0"},
            "parities": {"d": "6", "delta": "0.1"},
            "generic": {"universe": "8", "epsilon_prime": "2"},
            "direct-sum": {"universe": "8", "dist": "weights:1,1,1,1,0,0,0,0"},
            "erm": {"universe": "8"},
        }[algorithm]
        params = {"algorithm": algorithm, "k": "3", "delta": "0.01", "n": "1200", **settings}
        targets, res = sample_and_learn(read_learn(params), 5, 0, 0)
        assert isinstance(targets, Hypotheses) and len(targets) == 3
        assert isinstance(res.hypotheses, Hypotheses) and len(res.hypotheses) == 3


class TestGf2Solve:
    def test_worked_example(self):
        assert gf2_solve(2, [(0b01, 1), (0b10, 1), (0b11, 0)]) == 0b11

    def test_contradiction(self):
        assert gf2_solve(2, [(0b01, 0), (0b01, 1)]) is None

    def test_free_variables_zeroed(self):
        assert gf2_solve(2, [(0b11, 0)]) == 0

    def test_empty_system(self):
        assert gf2_solve(3, []) == 0

    def test_against_exhaustive_search(self):
        rng = stream(31, 0)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            rows = int(rng.integers(0, 2 * d))
            masks = rng.integers(0, 1 << d, size=rows)
            bits = rng.integers(0, 2, size=rows)
            eqs = list(zip(masks.tolist(), bits.tolist()))
            brute = [
                x
                for x in range(1 << d)
                if all(((m & x).bit_count() & 1) == b for m, b in eqs)
            ]
            got = gf2_solve(d, eqs)
            if brute:
                # Free variables at 0 make the solution the smallest one.
                assert got == min(brute)
            else:
                assert got is None


    def test_packed_columns_match_single_column_solves(self):
        # One packed solve equals the per-column solves, and each column's
        # solution satisfies its system whenever brute force finds one.
        rng = stream(31, 1)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            k = int(rng.integers(1, 71))
            rows = int(rng.integers(0, 2 * d))
            masks = rng.integers(0, 1 << d, size=rows).tolist()
            cols = rng.integers(0, 2, size=(rows, k))
            if rows and rng.random() < 0.5:
                # Columns labelled by a parity are consistent; the others may not be.
                x = rng.integers(0, 1 << d, size=k).tolist()
                for j in rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist():
                    cols[:, j] = [(m & x[j]).bit_count() & 1 for m in masks]
            singles = [gf2_solve(d, zip(masks, cols[:, j].tolist())) for j in range(k)]
            packed_rhs = [sum(int(b) << j for j, b in enumerate(row)) for row in cols]
            got = gf2_solve(d, zip(masks, packed_rhs))
            for j, single in enumerate(singles):
                brute = [x for x in range(1 << d) if all(((m & x).bit_count() & 1) == b for m, b in zip(masks, cols[:, j]))]
                assert (single in brute) if brute else single is None
            if any(single is None for single in singles):
                assert got is None
            else:
                assert got == sum(single << (j * d) for j, single in enumerate(singles))

    def test_packed_inconsistent_column_gives_none(self):
        # Column 0 is consistent, column 69 contradicts itself.
        assert gf2_solve(2, [(0b01, 1), (0b01, 1 | 1 << 69)]) is None
        assert gf2_solve(2, [(0b01, 1 | 1 << 69), (0b10, 1 << 69)]) == 0b01 | 0b11 << (69 * 2)

    @pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 2370])
    def test_blocks_match_brute_force_and_single_block_solves(self, k):
        # Blocks labelled by parities, by parities with one flipped label, or at
        # random, so both consistent and abstaining blocks occur.
        rng = stream(31, 2, k)
        shapes = [(1, 1, 1), (10, 44, 50)] + [
            (b, int(rng.integers(1, 4 * b + 5)), int(rng.integers(1, 51))) for b in rng.integers(1, 11, size=6).tolist()
        ]
        words = -(-k // 64)
        seen = {True: 0, False: 0}
        for bits, s, m in shapes:
            xs = rng.integers(0, 1 << bits, size=(m, s))
            labels = rng.integers(0, 2, size=(m, s, k)).astype(np.uint8)
            kinds = rng.integers(0, 3, size=m)
            for t in np.flatnonzero(kinds < 2).tolist():
                masks = rng.integers(0, 1 << bits, size=k)
                labels[t] = np.bitwise_count(xs[t][:, None] & masks[None, :]) & 1
                if kinds[t] == 1 and k:
                    labels[t, rng.integers(s), rng.integers(k)] ^= 1
            packed = np.packbits(labels, axis=2, bitorder="little")
            rhs = np.zeros((m, s, 8 * words), dtype=np.uint8)
            rhs[:, :, : packed.shape[2]] = packed
            solutions, ok = gf2_solve_blocks(bits, xs, rhs.view("<u8"))
            assert solutions.shape == (m, bits, words) and ok.shape == (m,)
            for t in range(m):
                want = _smallest_solutions(bits, xs[t], labels[t])
                assert ok[t] == (want >= 0).all()
                seen[bool(ok[t])] += 1
                if ok[t]:
                    coords = np.unpackbits(solutions[t].astype("<u8").view(np.uint8), axis=1, bitorder="little")
                    got = (coords[:, :k].astype(np.int64) << np.arange(bits)[:, None]).sum(axis=0)
                    assert got.tolist() == want.tolist()
                if t < 3:
                    rows = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in labels[t]]
                    single = gf2_solve(bits, zip(xs[t].tolist(), rows))
                    assert single == (sum(x << (j * bits) for j, x in enumerate(want.tolist())) if ok[t] else None)
        assert seen[True] and (seen[False] or k == 0)

    @pytest.mark.parametrize(
        "bits,equations,match",
        [
            (2, [(-1, 1)], "equation rows"),
            (2, [(4, 1)], "equation rows"),
            (2, [(1, -1)], "right-hand sides"),
            (65, [(1, 1)], "bits"),
            (-1, [(1, 1)], "bits"),
            (65, [], "bits"),
        ],
    )
    def test_adapter_rejects_inputs_outside_its_contract(self, bits, equations, match):
        with pytest.raises(ValueError, match=match):
            gf2_solve(bits, equations)

    def test_adapter_takes_full_64_bit_rows(self):
        assert gf2_solve(64, [((1 << 64) - 1, 1)]) == 1
        assert gf2_solve(64, [(1 << 63, 1), (1, 0)]) == 1 << 63

    @pytest.mark.parametrize(
        "bits,xs,match",
        [(65, [[1]], "bits"), (-1, [[0]], "bits"), (2, [[1, -1]], "xs"), (2, [[4, 1]], "xs"), (0, [[1]], "xs")],
    )
    def test_blocks_reject_inputs_outside_their_contract(self, bits, xs, match):
        xs = np.array(xs)
        with pytest.raises(ValueError, match=match):
            gf2_solve_blocks(bits, xs, np.zeros(xs.shape + (1,), dtype=np.uint64))

    def test_blocks_match_scalar_gauss_jordan(self):
        # Up to MAX_PARITY_BITS columns, where brute force is too slow, and up
        # to 38 words of right-hand sides. Blocks hold parity-labelled rows with
        # an occasional flipped label, duplicated rows (some with a different
        # right-hand side) and all-zero rows with a nonzero right-hand side.
        rng = stream(31, 3)
        seen = Counter()
        for case in range(160):
            bits = MAX_PARITY_BITS if case % 8 == 0 else int(rng.integers(1, MAX_PARITY_BITS + 1))
            words = 38 if case % 10 == 0 else int(rng.integers(1, 4))
            m, s = int(rng.integers(1, 5)), int(rng.integers(1, 2 * bits + 3))
            xs = rng.integers(0, 1 << bits, size=(m, s))
            labels = np.bitwise_count(xs[..., None] & rng.integers(0, 1 << bits, size=64 * words)) & 1
            labels ^= rng.random(labels.shape) < rng.choice([0.0, 0.001, 0.02])
            for t in range(m):
                if s > 1 and rng.random() < 0.4:
                    copied, dst = rng.choice(s, size=2, replace=False)
                    xs[t, dst] = xs[t, copied]
                    if rng.random() < 0.5:
                        labels[t, dst] = labels[t, copied]
                if rng.random() < 0.2:
                    row = rng.integers(s)
                    xs[t, row] = 0
                    labels[t, row, rng.integers(64 * words)] = 1
            rhs = np.packbits(labels.astype(np.uint8), axis=2, bitorder="little").view("<u8")
            xs_before, rhs_before = xs.copy(), rhs.copy()
            solutions, ok = gf2_solve_blocks(bits, xs, rhs)
            assert np.array_equal(xs, xs_before) and np.array_equal(rhs, rhs_before)
            assert solutions.shape == (m, bits, words) and solutions.dtype == np.uint64
            for t in range(m):
                packed = [int.from_bytes(rhs[t, i].astype("<u8").tobytes(), "little") for i in range(s)]
                want = _gauss_jordan(bits, xs[t].tolist(), packed)
                assert ok[t] == (want is not None)
                if want is not None:
                    got = [int.from_bytes(solutions[t, c].astype("<u8").tobytes(), "little") for c in range(bits)]
                    assert got == want
                seen[(bool(ok[t]), s < bits)] += 1
        assert all(seen[key] for key in itertools.product((True, False), repeat=2))


def _gauss_jordan(bits, rows, rhs):
    """Scalar Gauss-Jordan elimination of one block over Python ints, free variables at 0.

    rows[i] is a coefficient bitmask and rhs[i] packs row i's right-hand sides.
    Returns, per coordinate c, the packed values of x_c in every system, or
    None when some system is inconsistent.
    """
    rows, rhs = list(rows), list(rhs)
    pivot_cols, rank = [], 0
    for c in range(bits):
        found = next((i for i in range(rank, len(rows)) if rows[i] >> c & 1), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        rhs[rank], rhs[found] = rhs[found], rhs[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> c & 1:
                rows[i] ^= rows[rank]
                rhs[i] ^= rhs[rank]
        pivot_cols.append(c)
        rank += 1
    if any(rhs[rank:]):
        return None
    solution = [0] * bits
    for i, c in enumerate(pivot_cols):
        solution[c] = rhs[i]
    return solution


def _smallest_solutions(bits, xs, labels):
    """Brute force over all 2**bits masks: per label column j, the smallest x with
    <xs[i], x> = labels[i, j] for every row i, or -1 when there is none."""
    weights = 1 << np.arange(len(xs), dtype=np.int64)
    patterns = (np.bitwise_count(np.arange(1 << bits)[:, None] & xs[None, :]) & 1) @ weights
    # np.unique keeps the first, so smallest, mask giving each row pattern.
    keys, smallest = np.unique(patterns, return_index=True)
    wanted = weights @ labels.astype(np.int64)
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[pos] == wanted, smallest[pos], -1)


def _reference_parity_learner(db, epsilon, delta, beta, rng):
    """The parity learner as one single-column gf2_solve per (block, label)."""
    bits, k = db.universe.bit_width, db.k
    m, s_target = parity_block_plan(bits, epsilon, beta, delta)
    s = max(1, db.n // m)
    votes, first_seen = {}, {}
    for t in range(min(m, db.n // s)):
        lo, hi = t * s, (t + 1) * s
        vec = []
        for j in range(k):
            sol = gf2_solve(bits, zip(db.xs[lo:hi].tolist(), db.labels[lo:hi, j].tolist()))
            if sol is None:
                break
            vec.append(sol)
        if len(vec) == k:
            votes[tuple(vec)] = votes.get(tuple(vec), 0) + 1
            first_seen.setdefault(tuple(vec), t)
    ordered = sorted(votes.items(), key=lambda item: (-item[1], first_seen[item[0]]))
    best, best_count = ordered[0] if ordered else ((0,) * k, 0)
    second_count = ordered[1][1] if len(ordered) > 1 else 0
    choice = stable_argmax(float(max(0, (best_count - second_count - 1) // 2)), epsilon, delta, rng)
    return (None if choice is None else best), db.n < m * s_target


def _witness_database(relabel: bool) -> MultiLabeledDatabase:
    """36 blocks of rows 1, 3, 0, ..., 0 at d=2: blocks 0..17 labelled by mask 1,
    blocks 18..35 by mask 3; relabel sets the x=3 row of block 18 to 1 (mask 1's label)."""
    m, s = parity_block_plan(2, 1.0, 0.5, 0.1)
    assert (m, s) == (36, 8)
    xs = np.tile(np.array([1, 3, 0, 0, 0, 0, 0, 0]), m)
    masks = np.repeat(np.r_[np.full(18, 1), np.full(18, 3)], s)
    labels = (np.bitwise_count(xs & masks) & 1).astype(np.uint8)
    if relabel:
        labels[18 * s + 1] = 1
    return MultiLabeledDatabase.from_labels(Universe.bitvectors(2), xs, labels[:, None])


def _parity_law(db, eps, delta, beta) -> dict:
    masks, p_release, p_bottom = parity_learner_pmf(db, eps, delta, beta)
    return {tuple(masks.tolist()): p_release, None: p_bottom}


def _neighbours(db):
    """Every database that differs from db in exactly one row."""
    rows = [(x, bits) for x in range(db.universe.size) for bits in itertools.product((0, 1), repeat=db.k)]
    for i in range(db.n):
        for x, bits in rows:
            if x != db.xs[i] or bits != tuple(db.labels[i].tolist()):
                xs, labels = db.xs.copy(), db.labels.copy()
                xs[i], labels[i] = x, bits
                yield MultiLabeledDatabase.from_labels(db.universe, xs, labels)


def _all_databases(universe, k, n):
    """Every database of n rows over universe with k labels, rows in order."""
    rows = [(x, bits) for x in range(universe.size) for bits in itertools.product((0, 1), repeat=k)]
    for combo in itertools.product(rows, repeat=n):
        xs, labels = zip(*combo)
        yield MultiLabeledDatabase.from_labels(universe, np.array(xs), np.array(labels))


def _stable_under_substitution(tally, databases) -> int:
    """Check a deterministic tally, db -> (released params, distance), on every
    single-row substitution of each database: the distance moves by at most 1,
    and at distance >= 1 the params do not move. Returns how many databases
    had distance >= 1."""
    stable = 0
    for db in databases:
        params, distance = tally(db)
        stable += distance >= 1
        for other in _neighbours(db):
            other_params, other_distance = tally(other)
            assert abs(other_distance - distance) <= 1
            if distance >= 1:
                assert other_params.tolist() == params.tolist()
    return stable


class TestParityLearner:
    def test_pmf_matches_seeded_sampler(self):
        # A clear leader: 20 blocks vote mask 1 and 16 vote mask 3, a gap of 4
        # and a distance of (4 - 1) // 2 = 1 below the threshold ln(10).
        eps, delta, beta = 1.0, 0.1, 0.5
        db = _witness_database(relabel=False)
        xs, labels = db.xs.reshape(36, 8), db.labels.reshape(36, 8).copy()
        labels[18:20] = labels[:2]
        db = MultiLabeledDatabase.from_labels(db.universe, xs.ravel(), labels.reshape(-1, 1))
        masks, p_release, p_bottom = parity_learner_pmf(db, eps, delta, beta)
        assert masks.tolist() == [1]
        assert p_release == pytest.approx(0.5 * math.exp(-(math.log(10) - 1)), abs=1e-12)
        assert p_release + p_bottom == pytest.approx(1.0, abs=1e-12)
        trials = 2000
        released = 0
        for trial in range(trials):
            res = parity_learner(db, eps, delta, beta, stream(47, trial))
            if not res.failed:
                released += 1
                assert res.hypotheses.params.tolist() == [1]
        assert abs(released / trials - p_release) < 4 * math.sqrt(p_release * p_bottom / trials)

    def test_witness_laws(self):
        # The exact laws of the privacy witness: one relabelled row moves the
        # vote gap from 0 to 2, but the distance (gap - 1) // 2 stays at 0, so
        # both laws are 0.5 * exp(-ln 10) = 0.05. Fed the raw gap, the second
        # was 0.369, above the 0.236 that (1, 0.1)-DP allows.
        eps, delta, beta = 1.0, 0.1, 0.5
        before = _parity_law(_witness_database(relabel=False), eps, delta, beta)
        after = _parity_law(_witness_database(relabel=True), eps, delta, beta)
        assert set(before) == set(after) == {(1,), None}
        assert before[(1,)] == pytest.approx(0.5 * math.exp(-math.log(10)), abs=1e-12)
        assert after[(1,)] == pytest.approx(0.5 * math.exp(-math.log(10)), abs=1e-12)

    def test_witness_neighbours_meet_the_ledger(self):
        eps, delta, beta = 1.0, 0.1, 0.5
        before = _parity_law(_witness_database(relabel=False), eps, delta, beta)
        after = _parity_law(_witness_database(relabel=True), eps, delta, beta)
        outcomes = sorted(set(before) | set(after), key=repr)
        p = np.array([before.get(o, 0.0) for o in outcomes])
        q = np.array([after.get(o, 0.0) for o in outcomes])
        assert dp_bound_holds(p, q, eps, delta) and dp_bound_holds(q, p, eps, delta)

    def test_tally_is_stable_under_every_substitution(self):
        # eps = 8, delta = beta = 0.5 plans m = 3 blocks: every database of 3 or
        # 4 rows at d = 1, and near-parity databases of 6..9 rows at d = 2, whose
        # blocks hold 2 or 3 rows.
        eps, delta, beta = 8.0, 0.5, 0.5
        assert parity_block_plan(2, eps, beta, delta)[0] == 3
        tally = lambda db: _parity_tally(db, eps, delta, beta)[:2]
        tiny = Universe.bitvectors(1)
        assert _stable_under_substitution(tally, (db for n in (3, 4) for db in _all_databases(tiny, 1, n)))
        u, rng = Universe.bitvectors(2), stream(48, 0)
        databases = []
        for _ in range(40):
            n, k = int(rng.integers(6, 10)), int(rng.integers(1, 3))
            xs = rng.integers(0, u.size, size=n)
            labels = np.bitwise_count(xs[:, None] & rng.integers(0, u.size, size=k)[None, :]) & 1
            labels ^= rng.random((n, k)) < 0.05
            databases.append(MultiLabeledDatabase.from_labels(u, xs, labels.astype(np.uint8)))
        assert _stable_under_substitution(tally, databases)

    @pytest.mark.parametrize("k", [0, 1, 5, 64, 100])
    @pytest.mark.parametrize("labels", ["parity", "random"])
    @pytest.mark.parametrize("planned", [False, True])
    def test_matches_per_column_reference(self, k, labels, planned):
        d, eps, delta, beta = 4, 1.0, 0.1, 0.1
        m, s = parity_block_plan(d, eps, beta, delta)
        u = Universe.bitvectors(d)
        for trial in range(4):
            rng = stream(39, k, trial)
            n = m * s if planned else int(rng.integers(1, m * s))
            xs = rng.integers(0, u.size, size=n)
            if labels == "parity":
                masks = rng.integers(0, u.size, size=k)
                ys = np.array([[(x & mk).bit_count() & 1 for mk in masks.tolist()] for x in xs.tolist()], dtype=np.uint8)
            else:
                ys = rng.integers(0, 2, size=(n, k)).astype(np.uint8)
            db = MultiLabeledDatabase.from_labels(u, xs, ys.reshape(n, k))
            res = parity_learner(db, eps, delta, beta, stream(39, k, trial, 1))
            want, want_below = _reference_parity_learner(db, eps, delta, beta, stream(39, k, trial, 1))
            got = None if res.failed else tuple(h.param for h in res.hypotheses)
            assert got == want
            assert res.below_sample_bound == want_below

    @pytest.mark.parametrize("first,other", [(3, 1), (1, 3)])
    def test_vote_tie_goes_to_earliest_block(self, first, other):
        # Blocks alternate between two parities, so both get m/2 votes. A tie
        # leaves a zero gap, which the selection releases only sometimes; when
        # it does, the vector of block 0 wins.
        eps, delta, beta = 1.0, 0.9, 0.5
        m, s = parity_block_plan(2, eps, beta, delta)
        assert m % 2 == 0
        u = Universe.bitvectors(2)
        xs = np.resize(np.array([1, 2, 3, 0]), m * s)
        masks = np.repeat(np.resize(np.array([first, other]), m), s)
        labels = (np.bitwise_count(xs & masks) & 1).astype(np.uint8)[:, None]
        db = MultiLabeledDatabase.from_labels(u, xs, labels)
        released = 0
        for trial in range(40):
            res = parity_learner(db, eps, delta, beta, stream(39, 7, trial))
            if not res.failed:
                released += 1
                assert res.hypotheses.params.tolist() == [first]
        assert released

    def _setup(self, d=6, k=3, seed=32, trial=0):
        u = Universe.bitvectors(d)
        cc = ConceptClass(PARITY, u)
        rng = stream(seed, trial)
        targets = Hypotheses(u, PARITY, rng.integers(0, u.size, size=k))
        return u, cc, targets, rng

    def test_exact_recovery_at_bound(self):
        eps = delta = beta_delta = None
        eps, delta, beta = 1.0, 0.1, 0.1
        m, s = parity_block_plan(6, eps, beta, delta)
        assert (m, s) == (48, 24)
        wins = 0
        for trial in range(40):
            u, cc, targets, rng = self._setup(trial=trial)
            db = sample_database(Distribution.uniform(u), targets, m * s, rng)
            res = parity_learner(db, eps, delta, beta, rng)
            assert not res.below_sample_bound
            wins += (not res.failed) and all(
                h.param == c.param for h, c in zip(res.hypotheses, targets)
            )
        assert wins >= 36

    def test_unanimous_blocks_always_released(self):
        # With every block pinning the target, gap = m > (2/eps) ln(1/(delta*beta)),
        # so the noisy threshold cannot plausibly abstain.
        eps, delta, beta = 1.0, 0.1, 0.1
        for trial in range(60):
            u, cc, targets, rng = self._setup(d=4, k=2, seed=33, trial=trial)
            m, s = parity_block_plan(4, eps, beta, delta)
            db = sample_database(Distribution.uniform(u), targets, m * s, rng)
            res = parity_learner(db, eps, delta, beta, rng)
            if not res.failed:
                assert tuple(h.param for h in res.hypotheses) == tuple(c.param for c in targets)

    def test_output_is_target_or_failure(self):
        # Structural: when the true vector holds a majority of block votes, the
        # selection can only release it or abstain, never a wrong vector.
        eps, delta, beta = 1.0, 0.1, 0.1
        for trial in range(40):
            u, cc, targets, rng = self._setup(d=4, k=2, seed=34, trial=trial)
            db = sample_database(Distribution.uniform(u), targets, 16 * 48, rng)
            res = parity_learner(db, eps, delta, beta, rng)
            if not res.failed:
                assert all(h.kind == PARITY for h in res.hypotheses)
                assert tuple(h.param for h in res.hypotheses) == tuple(c.param for c in targets)

    def test_adversarial_constant_rows(self):
        # All rows x = 0 leave every block underdetermined; the zeroed free
        # variables make all blocks agree, so the all-zero mask vector is
        # released. Documents behavior outside the uniform-examples promise.
        u = Universe.bitvectors(4)
        db = MultiLabeledDatabase.from_labels(u, np.zeros(1000, dtype=np.int64), np.zeros((1000, 2), dtype=np.uint8))
        res = parity_learner(db, 1.0, 0.1, 0.1, stream(35, 0))
        assert not res.failed
        assert tuple(h.param for h in res.hypotheses) == (0, 0)

    def test_ledger_single_charge(self):
        u, cc, targets, rng = self._setup(d=4, k=2, seed=36)
        db = sample_database(Distribution.uniform(u), targets, 500, rng)
        res = parity_learner(db, 0.5, 0.05, 0.1, rng)
        assert res.ledger.basic_total() == PrivacyParams(0.5, 0.05)

    def test_below_bound_flag(self):
        u, cc, targets, rng = self._setup(d=6, k=3, seed=37)
        db = sample_database(Distribution.uniform(u), targets, 100, rng)
        assert parity_learner(db, 1.0, 0.1, 0.1, rng).below_sample_bound

    def test_label_permutation_equivariance(self):
        u, cc, targets, rng = self._setup(d=4, k=3, seed=38)
        db = sample_database(Distribution.uniform(u), targets, 700, rng)
        perm = [1, 2, 0]
        permuted = MultiLabeledDatabase.from_labels(u, db.xs, db.labels[:, perm])
        a = parity_learner(db, 1.0, 0.1, 0.1, stream(38, 1))
        b = parity_learner(permuted, 1.0, 0.1, 0.1, stream(38, 1))
        assert not a.failed and not b.failed
        assert b.hypotheses.kind == a.hypotheses.kind
        assert b.hypotheses.params.tolist() == a.hypotheses.params[perm].tolist()

    def test_pmf_golden_off_the_benchmark_paths(self):
        # parity_learner_pmf's (masks, P[release]) at d = 10 over 18 seeded
        # databases, paths the parity-sweep benchmark does not take: k = 32
        # and 70 (one and two label words); n = 96, 240, 480, so blocks of
        # s = 2, 5, 10 rows, the first two below bits; clean parity labels,
        # 2% flipped labels, and rows drawn from 12 elements, where most
        # blocks abstain. The digest pins the learner's output across
        # rewrites of the block solve.
        universe, digest = Universe.bitvectors(10), hashlib.sha256()
        for k in (32, 70):
            for n in (96, 240, 480):
                for pool, flip in ((1024, 0.0), (1024, 0.02), (12, 0.02)):
                    rng = stream(37, k, n, pool, int(flip * 100))
                    xs = rng.choice(1024, size=pool, replace=False)[rng.integers(0, pool, size=n)]
                    labels = np.bitwise_count(xs[:, None] & rng.integers(0, 1024, size=k)[None, :]) & 1
                    labels ^= rng.random((n, k)) < flip
                    db = MultiLabeledDatabase.from_labels(universe, xs, labels.astype(np.uint8))
                    masks, p_release, _ = parity_learner_pmf(db, 1.0, 0.1, 0.1)
                    digest.update(masks.astype("<i8").tobytes() + np.float64(p_release).tobytes())
        assert digest.hexdigest() == "839d54d62a23e759dcc5234e93aadc81bab5008731530f449011a041c2b49d90"


def _point_witness(relabel: bool) -> MultiLabeledDatabase:
    """Eight rows at x = 0 with k = 1: label 1 five times, then 0 three times, so
    the two vector counts are (5, 3); relabel sets the fifth row to 0, giving (4, 4)."""
    labels = np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=np.uint8)
    if relabel:
        labels[4] = 0
    return MultiLabeledDatabase.from_labels(Universe.indexed(4), np.zeros(8, dtype=np.int64), labels[:, None])


def _point_selection_law(db, monkeypatch) -> dict:
    """Exact law of point_learner at (epsilon, delta) = (2, 0.2) given the heavy
    set {0}: the sanitizer is replaced by one releasing only x = 0, and the
    stable selection, whose budget is (1, 0.1), by one recording what it is fed."""
    fed = []
    monkeypatch.setattr(learners, "sanitize_points", lambda db, *_: SanitizedAnswers(db.universe, [0], [1.0]))
    monkeypatch.setattr(learners, "stable_argmax", lambda gap, *_: fed.append(gap) or 0)
    result = point_learner(db, 0.2, 2.0, 0.2, stream(49, 0))
    p_release, p_bottom = stable_argmax_pmf(fed[0], 1.0, 0.1)
    return {tuple(result.hypotheses.params.tolist()): p_release, None: p_bottom}


class TestPointLearner:
    def test_witness_laws(self, monkeypatch):
        # Counts (5, 3) against (4, 4): the raw gaps 2 and 0 would give release
        # laws 0.369 and 0.050, above the e * 0.050 + 0.1 = 0.236 that (1, 0.1)
        # allows. Both distances are 0, so both laws are 0.5 * exp(-ln 10).
        before = _point_selection_law(_point_witness(relabel=False), monkeypatch)
        after = _point_selection_law(_point_witness(relabel=True), monkeypatch)
        assert set(before) == set(after) == {(0,), None}
        assert before[(0,)] == pytest.approx(0.5 * math.exp(-math.log(10)), abs=1e-12)
        assert after[(0,)] == pytest.approx(0.5 * math.exp(-math.log(10)), abs=1e-12)

    def test_witness_neighbours_meet_the_ledger(self, monkeypatch):
        before = _point_selection_law(_point_witness(relabel=False), monkeypatch)
        after = _point_selection_law(_point_witness(relabel=True), monkeypatch)
        outcomes = sorted(set(before) | set(after), key=repr)
        p = np.array([before.get(o, 0.0) for o in outcomes])
        q = np.array([after.get(o, 0.0) for o in outcomes])
        assert dp_bound_holds(p, q, 1.0, 0.1) and dp_bound_holds(q, p, 1.0, 0.1)

    def test_tally_is_stable_under_every_substitution(self):
        # Every 4-row database over {0, 1} with k = 1 and heavy set {0}, then
        # 10..14-row databases over 4 elements, labels nearly a function of x,
        # with heavy sets {0}, {0, 1} and {0, 1, 2}.
        tally = lambda db: _point_tally(db, np.array([0]))
        assert _stable_under_substitution(tally, _all_databases(Universe.indexed(2), 1, 4))
        u, rng = Universe.indexed(4), stream(50, 0)
        stable = Counter()
        for _ in range(30):
            n, k = int(rng.integers(10, 15)), int(rng.integers(1, 3))
            xs = rng.choice(u.size, size=n, p=[0.45, 0.45, 0.1, 0.0])
            labels = (xs[:, None] == rng.integers(0, u.size, size=k)[None, :]) ^ (rng.random((n, k)) < 0.05)
            heavy = np.arange(int(rng.integers(1, 4)))
            db = MultiLabeledDatabase.from_labels(u, xs, labels.astype(np.uint8))
            stable[len(heavy)] += _stable_under_substitution(lambda db: _point_tally(db, heavy), [db])
        assert stable[1] and stable[2]

    def test_point_mass_distribution(self):
        u = Universe.indexed(8)
        dist = Distribution.point_mass(u, 5)
        targets = Hypotheses(u, POINT, np.full(3, 5))
        hits = 0
        for trial in range(40):
            rng = stream(40, trial)
            db = sample_database(dist, targets, 600, rng)
            res = point_learner(db, 0.2, 1.0, 0.01, rng)
            hits += (not res.failed) and all(
                h.kind == POINT and h.param == 5 for h in res.hypotheses
            )
        assert hits >= 36

    def test_zero_mass_target_yields_zero_hypothesis(self):
        u = Universe.indexed(8)
        dist = Distribution.from_weights(u, [1, 1, 0, 0, 0, 0, 0, 0])
        targets = Hypotheses(u, POINT, np.array([7]))
        rng = stream(41, 0)
        db = sample_database(dist, targets, 800, rng)
        res = point_learner(db, 0.2, 1.0, 0.01, rng)
        assert not res.failed
        assert res.hypotheses.params.tolist() == [-1]
        assert generalization_errors(dist, targets, res.hypotheses) == [0.0]

    def test_accuracy_monte_carlo(self):
        u = Universe.indexed(16)
        n = point_rows_bound(0.2, 0.1, 0.01, 1.0)
        assert n == 2726
        dist = Distribution.from_weights(u, [1, 1, 1, 1] + [0] * 12)
        good = 0
        for trial in range(40):
            rng = stream(42, trial)
            params = [int(p) for p in rng.integers(0, 4, size=3)] + [9]
            targets = Hypotheses(u, POINT, np.array(params))
            db = sample_database(dist, targets, n, rng)
            res = point_learner(db, 0.2, 1.0, 0.01, rng)
            if res.failed:
                continue
            assert all(h.kind in ("point", "zero") for h in res.hypotheses)
            good += max(generalization_errors(dist, targets, res.hypotheses)) <= 0.2
        assert good >= 36

    def test_empty_heavy_set_all_zero(self):
        # All-distinct rows leave no heavy elements, so every label maps to zero: at
        # this delta the sanitizer, run at (eps/2, delta/2), releases each count of 1
        # with probability below 1e-6.
        u = Universe.indexed(256)
        eps, delta, n = 1.0, 1e-6, 256
        threshold = (1.0 + 2.0 * math.log(2.0 / (delta / 2)) / (eps / 2)) / n
        assert (noisy_threshold_pmf(np.full(n, 1.0 / n), 2.0 / (eps / 2 * n), threshold) < 1e-6).all()
        db = MultiLabeledDatabase.from_labels(u, np.arange(n, dtype=np.int64), np.ones((n, 2), dtype=np.uint8))
        res = point_learner(db, 0.5, eps, delta, stream(43, 0))
        assert not res.failed
        assert all(h.kind == "zero" for h in res.hypotheses)

    def test_ledger_two_half_charges(self):
        u = Universe.indexed(4)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, POINT, np.array([1])), 500, stream(44, 0))
        res = point_learner(db, 0.2, 1.0, 0.01, stream(44, 1))
        assert res.ledger.charges == [PrivacyParams(0.5, 0.005), PrivacyParams(0.5, 0.005)]
        assert res.ledger.basic_total() == PrivacyParams(1.0, 0.01)

    def test_heavy_set_is_filter_then_cap(self, monkeypatch):
        # Against the rule written out: answers reaching alpha/15, and past the
        # cap floor(15/alpha) = 30 only the largest, ties to the smaller element.
        u = Universe.indexed(64)
        db = MultiLabeledDatabase.from_labels(u, np.zeros(4, dtype=np.int64), np.zeros((4, 1), dtype=np.uint8))
        fed = []

        def record(db, heavy):
            fed.append(heavy.tolist())
            return np.full(1, -1), 0.0

        monkeypatch.setattr(learners, "_point_tally", record)
        rng = stream(47, 0)
        for _ in range(100):
            support = np.sort(rng.choice(64, size=int(rng.integers(0, 65)), replace=False))
            answers = rng.choice([0.01, 1 / 30, 0.04, 0.2], size=len(support))
            fed.clear()
            monkeypatch.setattr(learners, "sanitize_points", lambda *_: SanitizedAnswers(u, support, answers))
            point_learner(db, 0.5, 1.0, 0.01, stream(47, 1))
            a = dict(zip(support.tolist(), answers.tolist()))
            want = [x for x in a if a[x] >= 0.5 / 15]
            if len(want) > 30:
                want = sorted(sorted(want, key=lambda x: (-a[x], x))[:30])
            assert fed == ([want] if want else [])

    def test_label_permutation_equivariance(self):
        # Each row's labels are its element's bits with 5% flipped, so every
        # element has a clear top vector and the learner releases: label j maps
        # to the first element with bit j set.
        u = Universe.indexed(8)
        rng = stream(45, 0)
        xs = rng.integers(0, 4, size=2000)
        bits = (xs[:, None] >> np.arange(3)) & 1
        labels = (bits ^ (rng.random((2000, 3)) < 0.05)).astype(np.uint8)
        a = point_learner(MultiLabeledDatabase.from_labels(u, xs, labels), 0.2, 1.0, 0.01, stream(45, 1))
        assert not a.failed
        assert a.hypotheses.params.tolist() == [1, 2, -1]
        for perm in ([2, 0, 1], [1, 2, 0]):
            b = point_learner(MultiLabeledDatabase.from_labels(u, xs, labels[:, perm]), 0.2, 1.0, 0.01, stream(45, 1))
            assert not b.failed
            assert b.hypotheses.kind == a.hypotheses.kind
            assert b.hypotheses.params.tolist() == a.hypotheses.params[perm].tolist()

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 64, 65, 2370])
    def test_top_vectors_match_per_row_reference(self, k, monkeypatch):
        # Few distinct label rows force count ties; elements 6..9 never occur.
        u = Universe.indexed(10)
        rng = stream(46, k)
        for _ in range(20):
            n = int(rng.integers(0, 120))
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 4)), k)).astype(np.uint8)
            xs, labels = rng.integers(0, 6, size=n), pool[rng.integers(0, len(pool), size=n)]
            heavy = np.sort(rng.choice(10, size=int(rng.integers(1, 11)), replace=False))
            if n == 0:  # a database has at least one row
                with pytest.raises(EmptyDatabaseError):
                    MultiLabeledDatabase.from_labels(u, xs, labels)
                continue
            _check_top_vectors(MultiLabeledDatabase.from_labels(u, xs, labels), heavy, monkeypatch)
        with pytest.raises(EmptyDatabaseError):
            MultiLabeledDatabase.from_labels(u, np.zeros(0, dtype=np.int64), np.zeros((0, k), dtype=np.uint8))
        # One label vector per element, as a realizable target gives, then the
        # same pool with one row of heavy element 2 flipped; element 5 is never
        # heavy and its rows mix two vectors, which must not force the ranking.
        for _ in range(10):
            n = int(rng.integers(1, 120))
            xs = rng.integers(0, 6, size=n)
            labels = rng.integers(0, 2, size=(10, k)).astype(np.uint8)[xs]
            labels[xs == 5] = rng.integers(0, 2, size=(int((xs == 5).sum()), k))
            heavy = np.sort(np.r_[2, rng.choice([0, 1, 3, 4, 6, 9], size=int(rng.integers(0, 6)), replace=False)])
            _check_top_vectors(MultiLabeledDatabase.from_labels(u, xs, labels), heavy, monkeypatch)
            if k and (xs == 2).any():
                labels[np.flatnonzero(xs == 2)[-1], rng.integers(0, k)] ^= 1
                _check_top_vectors(MultiLabeledDatabase.from_labels(u, xs, labels), heavy, monkeypatch)
        # Over 1000 elements, rows fall on 240..271, across the byte boundary at
        # 256, and the heavy set holds some of them plus elements that never occur.
        u = Universe.indexed(1000)
        for _ in range(10):
            n = int(rng.integers(1, 200))
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 4)), k)).astype(np.uint8)
            db = MultiLabeledDatabase.from_labels(u, rng.integers(240, 272, size=n), pool[rng.integers(0, len(pool), size=n)])
            candidates = np.r_[np.arange(240, 272), [0, 500, 999]]
            heavy = np.sort(rng.choice(candidates, size=int(rng.integers(1, 20)), replace=False))
            _check_top_vectors(db, heavy, monkeypatch)
        # 300 heavy elements, past the 255 that one byte per slot can number.
        xs = rng.integers(0, 400, size=600)
        labels = rng.integers(0, 2, size=(400, k)).astype(np.uint8)[xs]
        heavy = np.sort(rng.choice(400, size=300, replace=False))
        _check_top_vectors(MultiLabeledDatabase.from_labels(u, xs, labels), heavy, monkeypatch)
        if k:
            labels[np.flatnonzero(np.isin(xs, heavy))[-1], k - 1] ^= 1
            _check_top_vectors(MultiLabeledDatabase.from_labels(u, xs, labels), heavy, monkeypatch)


def _check_top_vectors(db, heavy, monkeypatch):
    """_point_tally against per-element reference tallies. Alone, each element
    must feed _stability_distance its exact (top, runner-up) counts and map
    label j to itself iff its top vector has bit j; with the whole heavy set,
    the feed is the least top count against the best one-element downgrade,
    and label j maps to the first element whose top vector has bit j. The
    rows are ranked (one _tally call) exactly when some element of the heavy
    set holds two label vectors, which is when its runner-up count is not 0."""
    fed, ranked = [], []
    distance, tally = learners._stability_distance, learners._tally
    monkeypatch.setattr(learners, "_stability_distance", lambda *pair: fed.append(pair) or distance(*pair))
    monkeypatch.setattr(learners, "_tally", lambda *args: ranked.append(args) or tally(*args))
    tops, vecs, seconds = zip(*(_reference_top_vectors(db, x) for x in heavy))
    for x, top, vec, second in zip(heavy, tops, vecs, seconds):
        params, _ = _point_tally(db, np.array([x]))
        assert fed.pop() == (top, second)
        assert params.tolist() == [int(x) if bit else -1 for bit in vec]
        assert len(ranked) == (second > 0)
        ranked.clear()
    params, _ = _point_tally(db, heavy)
    runner_up = max(min([seconds[i], *tops[:i], *tops[i + 1 :]]) for i in range(len(heavy)))
    assert fed.pop() == (min(tops), runner_up)
    want = [next((int(x) for x, vec in zip(heavy, vecs) if vec[j]), -1) for j in range(db.k)]
    assert params.tolist() == want
    assert len(ranked) == any(second > 0 for second in seconds)


def _reference_top_vectors(db, x):
    """Per-row tuple tally of one element: (top count, top vector, runner-up count)."""
    counts: Counter = Counter()
    first_row: dict = {}
    for i, (xi, row) in enumerate(zip(db.xs.tolist(), db.labels)):
        if xi == x:
            vec = tuple(int(b) for b in row)
            counts[vec] += 1
            first_row.setdefault(vec, i)
    if not counts:
        return 0, (0,) * db.k, 0
    ordered = sorted(counts.items(), key=lambda item: (-item[1], first_row[item[0]]))
    return ordered[0][1], ordered[0][0], ordered[1][1] if len(ordered) > 1 else 0


class TestGenericLearner:
    def test_hypothesis_set_structure(self):
        # |H| <= 2^|B|, and H realizes every labeling of B the class realizes,
        # so for any concept there is a hypothesis agreeing with it on all of B.
        u = Universe.indexed(8)
        cclass = ConceptClass(POINT, u)
        for trial in range(20):
            rng = stream(50, trial)
            db = sample_database(Distribution.uniform(u), Hypotheses(u, POINT, np.array([3])), 2000, rng)
            answers = sanitize_points(db, 1.0, 0.01, rng)
            synth = answers_to_synthetic(answers, 0.02)
            support = synth.distinct_elements()
            witnesses = dichotomy_projection(cclass, support)
            labelings = {tuple(row) for row in witnesses.evaluate(support).tolist()}
            assert len(witnesses) <= 2 ** len(support)
            for param in range(len(cclass)):
                assert tuple(bit(POINT, param, x) for x in support.tolist()) in labelings

    def test_realizable_accuracy(self):
        u = Universe.indexed(8)
        cclass = ConceptClass(POINT, u)
        dist = Distribution.uniform(u)
        good = 0
        for trial in range(30):
            rng = stream(51, trial)
            targets = Hypotheses(u, POINT, rng.integers(0, 8, size=2))
            db = sample_database(dist, targets, 4000, rng)
            res = generic_multi_learner(db, cclass, 0.2, 0.1, 1.0, 50.0, 0.01, rng)
            good += max(generalization_errors(dist, targets, res.hypotheses)) <= 0.2
        assert good >= 27

    def test_agnostic_contract_vs_erm_oracle(self):
        u = Universe.indexed(8)
        cclass = ConceptClass(POINT, u)
        good = 0
        for trial in range(30):
            rng = stream(52, trial)
            probs = rng.random((8, 2)) * 0.9 + 0.05
            ld = LabeledDistribution.from_label_probs(Distribution.uniform(u), probs)
            db = ld.sample(4000, rng)
            res = generic_multi_learner(db, cclass, 0.2, 0.1, 1.0, 50.0, 0.01, rng)
            best = erm_mismatch_counts(db, cclass).min(axis=0) / db.n
            errors = np.count_nonzero(res.hypotheses.evaluate(db.xs) != db.labels.T, axis=1) / db.n
            good += bool((errors <= best + 0.2).all())
        assert good >= 27

    def test_exhaustive_route_for_thresholds(self):
        u = Universe.indexed(6)
        cclass = ConceptClass(THRESH, u)
        dist = Distribution.uniform(u)
        good = 0
        for trial in range(10):
            rng = stream(53, trial)
            targets = Hypotheses(u, THRESH, rng.integers(0, 6, size=2))
            db = sample_database(dist, targets, 1500, rng)
            res = generic_multi_learner(
                db, cclass, 0.4, 0.1, 1.0, 40.0, 0.0, rng, sanitizer="exhaustive", synth_size=6
            )
            good += max(generalization_errors(dist, targets, res.hypotheses)) <= 0.4
        assert good >= 8

    @pytest.mark.parametrize("kind,delta,sanitizer,resolved,rows", [
        (THRESH, 0.01, "auto", "exhaustive", 931),
        (THRESH, 0.0, "auto", "exhaustive", 931),
        (THRESH, 0.01, "points", "points", 6413),
        (POINT, 0.01, "auto", "points", 6413),
        (POINT, 0.0, "auto", "exhaustive", 931),
    ])
    def test_sample_bound_follows_the_sanitizer_that_runs(self, kind, delta, sanitizer, resolved, rows):
        # "auto" runs the exhaustive sanitizer for thresholds even when delta > 0,
        # so their bound is the exhaustive sanitizer's, whatever delta is.
        cclass = ConceptClass(kind, Universe.indexed(8))
        assert generic_sanitizer(cclass, delta, sanitizer) == resolved
        assert generic_rows_bound(cclass, 2, 0.2, 0.1, 1.0, 1.0, delta, sanitizer) == rows
        assert generic_rows_bound(cclass, 2, 0.2, 0.1, 1.0, 1.0, delta, resolved) == rows
        if sanitizer == "auto":
            assert generic_rows_bound(cclass, 2, 0.2, 0.1, 1.0, 1.0, delta) == rows

    def test_below_bound_flag_uses_the_resolved_sanitizer(self):
        u = Universe.indexed(8)
        rng = stream(56, 0)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, THRESH, np.array([2, 5])), 1000, rng)
        res = generic_multi_learner(db, ConceptClass(THRESH, u), 0.2, 0.1, 1.0, 1.0, 0.01, rng, synth_size=4)
        assert not res.below_sample_bound

    def test_unknown_sanitizer_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizer 'best'"):
            generic_sanitizer(ConceptClass(THRESH, Universe.indexed(8)), 0.0, "best")

    def test_ledger_matches_claimed_charges(self):
        u = Universe.indexed(8)
        cclass = ConceptClass(POINT, u)
        rng = stream(54, 0)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, POINT, np.array([0, 1])), 3000, rng)
        res = generic_multi_learner(db, cclass, 0.2, 0.1, 1.0, 0.5, 0.01, rng)
        basic = res.ledger.basic_total()
        assert basic == PrivacyParams(1.0 + 2 * 0.5, 0.01)
        assert generic_privacy_total(2, 1.0, 0.5, 0.01) == basic

    @pytest.mark.parametrize("alpha,epsilon_prime,message", [
        (0.2, 0.0, "epsilon_prime must be positive, got 0.0"),
        (0.2, -1.0, "epsilon_prime must be positive, got -1.0"),
        (0.2, math.inf, "epsilon_prime must be finite, got inf"),
        (1.5, 1.0, "alpha must be in (0, 1), got 1.5"),
        (0.0, 1.0, "alpha must be in (0, 1), got 0.0"),
    ])
    def test_bad_parameter_rejected_before_any_draw(self, alpha, epsilon_prime, message):
        self._assert_rejected_before_any_draw(message, alpha=alpha, epsilon_prime=epsilon_prime)

    @pytest.mark.parametrize("epsilon,delta,message", [
        (1.0, -0.1, "delta must be in [0, 1), got -0.1"),
        (1.0, 1.0, "delta must be in [0, 1), got 1.0"),
        (0.0, 0.0, "epsilon must be positive, got 0.0"),
        (math.inf, 0.0, "epsilon must be finite, got inf"),
    ], ids=["delta-negative", "delta1", "epsilon0", "epsilon-inf"])
    def test_bad_privacy_parameter_rejected_before_any_draw(self, epsilon, delta, message):
        # A negative delta would otherwise pick the pure-DP sanitizer and run it.
        self._assert_rejected_before_any_draw(message, epsilon=epsilon, delta=delta)

    @staticmethod
    def _assert_rejected_before_any_draw(message, alpha=0.2, epsilon=1.0, epsilon_prime=1.0, delta=0.0):
        u = Universe.indexed(8)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, THRESH, np.array([3])), 100, stream(55, 0))
        rng = stream(55, 1)
        with pytest.raises(ValueError) as err:
            generic_multi_learner(db, ConceptClass(THRESH, u), alpha, 0.1, epsilon, epsilon_prime, delta, rng,
                                  synth_size=4)
        assert str(err.value) == message
        assert rng.random() == stream(55, 1).random()


class _StubBase:
    """Deterministic single-label base learner with a fixed privacy charge."""

    def __init__(self, universe, epsilon=0.1, delta=0.0):
        self.universe = universe
        self.epsilon = epsilon
        self.delta = delta

    def __call__(self, db, rng):
        cclass = ConceptClass(POINT, self.universe)
        hyps = erm_multi(db, cclass).hypotheses
        return LearnResult(hyps, PrivacyLedger([PrivacyParams(self.epsilon, self.delta)]))


class TestDirectSum:
    def test_k1_identity(self):
        u = Universe.indexed(6)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, POINT, np.array([2])), 300, stream(60, 0))
        base = _StubBase(u)
        direct = base(db, stream(60, 1))
        summed = direct_sum_learner(base, db, stream(60, 1))
        assert summed.hypotheses.kind == direct.hypotheses.kind
        assert summed.hypotheses.params.tolist() == direct.hypotheses.params.tolist()
        assert summed.ledger.basic_total() == direct.ledger.basic_total()

    def test_basic_ledger_sums(self):
        u = Universe.indexed(6)
        db = sample_database(
            Distribution.uniform(u), Hypotheses(u, POINT, np.arange(4)), 200, stream(61, 0)
        )
        res = direct_sum_learner(_StubBase(u, 0.1, 0.0), db, stream(61, 1))
        total = res.ledger.basic_total()
        assert total.epsilon == pytest.approx(0.4)
        assert total.delta == 0.0

    def test_every_label_runs_after_an_abort(self):
        u = Universe.indexed(6)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, POINT, np.arange(3)), 100, stream(65, 0))
        labels_seen = []

        def base(single, rng):
            labels_seen.append(single.labels[:, 0].tolist())
            result = _StubBase(u, 0.1, 0.01)(single, rng)
            return LearnResult(None, result.ledger) if len(labels_seen) == 1 else result

        res = direct_sum_learner(base, db, stream(65, 1))
        assert res.failed
        assert labels_seen == db.labels.T.tolist()
        assert res.ledger.charges == [PrivacyParams(0.1, 0.01)] * 3

    def test_each_label_database_is_its_single_column(self):
        # 130 labels span three words, so columns come from every word and from bits 0 and 63.
        u = Universe.indexed(8)
        rng = stream(66, 0)
        db = MultiLabeledDatabase.from_labels(u, rng.integers(0, 8, size=40), rng.integers(0, 2, size=(40, 130)))
        singles = []
        direct_sum_learner(lambda single, rng: singles.append(single) or _StubBase(u)(single, rng), db, stream(66, 1))
        assert len(singles) == 130
        for j, single in enumerate(singles):
            assert single.k == 1 and single.words.dtype == np.uint64 and single.words.shape == (40, 1)
            assert single.xs is db.xs
            assert np.array_equal(single.labels, db.labels[:, j : j + 1]), j

    def test_union_bound_accuracy(self):
        u = Universe.indexed(8)
        dist = Distribution.from_weights(u, [1, 1, 1, 1, 0, 0, 0, 0])
        n = point_rows_bound(0.2, 0.1, 0.01, 1.0)
        base = lambda db, rng: point_learner(db, 0.2, 1.0, 0.01, rng)
        good = 0
        for trial in range(30):
            rng = stream(63, trial)
            targets = Hypotheses(u, POINT, rng.integers(0, 4, size=4))
            db = sample_database(dist, targets, n, rng)
            res = direct_sum_learner(base, db, rng)
            if res.failed:
                continue
            good += max(generalization_errors(dist, targets, res.hypotheses)) <= 0.2
        assert good >= 24  # union bound at k=4, beta=0.1 allows 1 - 4*0.1 = 0.6

    def test_permutation_invariance_of_objective(self):
        u = Universe.indexed(6)
        rng = stream(64, 0)
        db = MultiLabeledDatabase.from_labels(
            u, rng.integers(0, 6, size=150), rng.integers(0, 2, size=(150, 3)).astype(np.uint8)
        )
        perm = [2, 0, 1]
        permuted = MultiLabeledDatabase.from_labels(u, db.xs, db.labels[:, perm])
        a = direct_sum_learner(_StubBase(u), db, stream(64, 1))
        b = direct_sum_learner(_StubBase(u), permuted, stream(64, 1))
        assert b.hypotheses.kind == a.hypotheses.kind
        assert b.hypotheses.params.tolist() == a.hypotheses.params[perm].tolist()

    def test_point_base_joins_the_single_label_tables(self):
        # Target 7 has no mass, so its label column is all 0 and the point learner releases zero (-1) for it.
        u = Universe.indexed(8)
        dist = Distribution.from_weights(u, [1, 1, 1, 1, 0, 0, 0, 0])
        base = lambda db, rng: point_learner(db, 0.2, 1.0, 0.01, rng)
        db = sample_database(dist, Hypotheses(u, POINT, np.array([1, 7, 3])), 2726, stream(66, 0))
        res = direct_sum_learner(base, db, stream(66, 1))
        assert not res.failed
        assert res.hypotheses.kind == POINT and res.hypotheses.params[1] == -1
        rng = stream(66, 1)
        singles = [base(MultiLabeledDatabase.from_labels(u, db.xs, db.labels[:, j : j + 1]), rng).hypotheses for j in range(3)]
        assert res.hypotheses.params.tolist() == [p for table in singles for p in table.params.tolist()]

    def test_label_column_is_a_database_of_one_label(self):
        # Its column is built through the database constructor, so it gets the same row check.
        u = Universe.indexed(6)
        labels = stream(67, 1).integers(0, 2, size=(5, 70)).astype(np.uint8)
        db = MultiLabeledDatabase.from_labels(u, np.arange(5), labels)
        for j in (0, 63, 64, 69):
            assert learners._label_column(db, j).labels.tolist() == labels[:, j : j + 1].tolist()
        rowless = SimpleNamespace(universe=u, xs=np.zeros(0, dtype=np.int64), words=np.zeros((0, 2), dtype=np.uint64))
        with pytest.raises(EmptyDatabaseError):
            learners._label_column(rowless, 0)

    def test_k0_rejected(self):
        u = Universe.indexed(6)
        with pytest.raises(ValueError, match="k=0"):
            direct_sum_learner(_StubBase(u), MultiLabeledDatabase.unlabeled(u, np.arange(6)), stream(67, 0))

    def test_base_kinds_must_agree(self):
        u = Universe.indexed(6)
        db = sample_database(Distribution.uniform(u), Hypotheses(u, POINT, np.arange(2)), 50, stream(68, 0))
        kinds = iter([POINT, THRESH])
        base = lambda single, rng: erm_multi(single, ConceptClass(next(kinds), u))
        with pytest.raises(ValueError, match="more than one kind"):
            direct_sum_learner(base, db, stream(68, 1))


class TestOneRow:
    # One row is the smallest database; every learner and sanitizer runs on it with no guard of its own.
    U = Universe.indexed(8)
    ONE = MultiLabeledDatabase.from_labels(U, [5], [[1, 0]])

    @pytest.mark.parametrize("learn,charges", [
        (lambda db, rng: erm_multi(db, ConceptClass(THRESH, db.universe)), []),
        (lambda db, rng: point_learner(db, 0.2, 1.0, 0.01, rng), [PrivacyParams(0.5, 0.005)] * 2),
        (lambda db, rng: generic_multi_learner(db, ConceptClass(POINT, db.universe), 0.2, 0.1, 1.0, 2.0, 0.01, rng),
         [PrivacyParams(1.0, 0.01)] + [PrivacyParams(2.0)] * 2),
        (lambda db, rng: generic_multi_learner(db, ConceptClass(THRESH, db.universe), 0.2, 0.1, 1.0, 2.0, 0.0, rng,
                                               synth_size=2), [PrivacyParams(1.0)] + [PrivacyParams(2.0)] * 2),
        (lambda db, rng: direct_sum_learner(lambda single, r: point_learner(single, 0.2, 1.0, 0.01, r), db, rng),
         [PrivacyParams(0.5, 0.005)] * 4),
        (lambda db, rng: parity_learner(MultiLabeledDatabase.from_labels(Universe.bitvectors(3), db.xs, db.labels),
                                        1.0, 0.1, 0.1, rng), [PrivacyParams(1.0, 0.1)]),
    ], ids=["erm", "points", "generic-points", "generic-exhaustive", "direct-sum", "parities"])
    def test_learner_runs_on_one_row(self, learn, charges):
        result = learn(self.ONE, stream(69, 0))
        assert result.ledger.charges == charges
        if result.hypotheses is not None:
            assert result.hypotheses.evaluate(np.arange(8)).shape == (2, 8)
        if charges:
            assert result.below_sample_bound
        else:  # ERM fits its one row
            assert result.hypotheses.evaluate([5])[:, 0].tolist() == [1, 0]

    def test_sanitizers_run_on_one_row(self):
        answers = sanitize_points(self.ONE, 1.0, 0.01, stream(69, 1))
        assert set(answers.support.tolist()) <= {5}
        synth = sanitize_exhaustive(self.ONE, ConceptClass(THRESH, self.U), 0.5, 1.0, stream(69, 2), synth_size=2)
        assert synth.size == 2
