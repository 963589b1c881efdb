"""Multi-concept learners.

erm_multi             exact per-label empirical risk minimization (non-private)
direct_sum_learner    k independent runs of a single-concept base learner
generic_multi_learner one-time sanitization + per-label exponential mechanism
parity_learner        block-wise GF(2) solving + stable vote selection
                      (parity_learner_pmf: its exact output law)
point_learner         heavy-hitter discovery + stable label-vector selection

Each private learner's charge schedule is written once (parity_charges,
point_charges, generic_charges); its ledger and the harness's plan are both
built from it, so an abort charges what a release does.

Learners do not enforce their sample-size bounds as hard errors; results carry
a below_sample_bound flag instead, so deliberately under-sampled experiments
(for scaling studies and lower-bound demos) still run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .domain import (
    EVAL_BLOCK_CELLS,
    PARITY,
    POINT,
    ConceptClass,
    Hypotheses,
    MultiLabeledDatabase,
    _pack_words,
    _tally,
    _unpack_words,
    dichotomy_projection,
)
from .mechanisms import (
    PrivacyLedger,
    PrivacyParams,
    check_epsilon,
    check_fraction,
    compose_basic,
    exponential_mechanism,
    pinned_bound,
    stable_argmax,
    stable_argmax_pmf,
)
from .sanitize import (
    answers_to_synthetic,
    check_budget,
    exhaustive_synth_size,
    point_sanitizer_rows,
    sanitize_exhaustive,
    sanitize_points,
)

LearnerFn = Callable[[MultiLabeledDatabase, np.random.Generator], "LearnResult"]


@dataclass(frozen=True)
class LearnResult:
    """The released multi-hypothesis, a Hypotheses table (None when selection
    aborted), plus the privacy charge schedule.

    details carries learner-specific diagnostics (e.g. hypothesis-set sizes)
    for experiment reporting; it is not part of the privacy surface.
    """

    hypotheses: Hypotheses | None
    ledger: PrivacyLedger = field(default_factory=PrivacyLedger)
    below_sample_bound: bool = False
    details: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.hypotheses is None


def erm_multi(db: MultiLabeledDatabase, cclass: ConceptClass) -> LearnResult:
    """Per-label empirical-error minimizer over a finite class, charging nothing.

    The objective separates per label, so each column of db's n >= 1 rows is
    solved independently; ties break to the lowest concept parameter. The
    released table holds the argmin parameters as they are.

    The argmin is one axis-0 minimum of the keys count * |C| + parameter: the
    smallest key has the smallest count and, among equal counts, the lowest
    parameter, which key % |C| recovers.
    """
    db.universe.require_same(cclass.universe)
    keys = _erm_table(db, cclass, tiebreak=True)
    return LearnResult(Hypotheses(db.universe, cclass.kind, keys.min(axis=0).astype(np.int64) % len(cclass)))


def erm_mismatch_counts(db: MultiLabeledDatabase, cclass: ConceptClass) -> np.ndarray:
    """(|C|, k) int64 mismatch counts underlying erm_multi; exposed for oracles."""
    return _erm_table(db, cclass).astype(np.int64, copy=False)


def _erm_table(db: MultiLabeledDatabase, cclass: ConceptClass, tiebreak: bool = False) -> np.ndarray:
    """(|C|, k) mismatch counts, or with tiebreak the keys count * |C| + parameter.

    Within one block of evaluations they are one product, _mismatch_keys, in
    float32 there (every key is at most |C| * (n + 1) <= 2^17). Above it they come
    in closed form from per-element counts, in int64 (counts are at most n and
    |C| at most 2^20): with ones[x, j] the rows at x whose label j is 1 and
    rows[x] all rows at x, concept p mismatches sum_x ones[x, j] plus, over its
    ones x, rows[x] - 2 ones[x, j], which cclass.sums adds up without
    evaluating a concept.
    """
    size = len(cclass)
    if size * db.n <= EVAL_BLOCK_CELLS:  # small shapes, attack plays among them, evaluate directly
        return _mismatch_keys(cclass.eval_matrix(db.xs), db.labels, tiebreak)
    gaps, total = _label_gaps(db, size)
    counts = cclass.sums(gaps)
    counts += total
    if tiebreak:
        counts *= size
        counts += np.arange(size)[:, None]
    return counts


def _label_gaps(db: MultiLabeledDatabase, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (size, k) int64 table rows[x] - 2 ones[x, j] and the k totals sum_x ones[x, j] (see _erm_table).

    ones is counted only over the elements the sample holds, one label at a
    time into a contiguous row, since a column of the (size, k) table is
    strided and size can be far above n. Its temporaries, the largest as big
    as the table, are gone before cclass.sums copies the table.
    """
    rows = np.bincount(db.xs, minlength=size)
    seen = np.flatnonzero(rows)
    at = (np.cumsum(rows > 0) - 1)[db.xs]  # each row's element as an index into seen
    ones = np.empty((db.k, seen.size), dtype=np.int64)
    for j, column in enumerate(db.labels.T):  # float64 bincounts hold the counts (at most n) exactly
        ones[j] = np.bincount(at, weights=column, minlength=seen.size)
    total = ones.sum(axis=1)
    ones *= -2
    ones += rows[seen]
    gaps = np.zeros((size, db.k), dtype=np.int64)
    gaps[seen] = ones.T
    return gaps, total


def _product_dtype(rows: int, scale: int) -> type:
    """The float type in which _mismatch_keys adds exactly, from its shapes alone.

    Every term, partial sum and key of that product is an integer of size below
    scale * (rows + 1). float32 holds every integer up to 2^24, so it adds them
    exactly in any order while that bound is at most 2^24; above it float64
    does (exact below 2^53).
    """
    return np.float32 if scale * (rows + 1) <= 1 << 24 else np.float64


def _mismatch_keys(evals: np.ndarray, labels: np.ndarray, tiebreak: bool = False) -> np.ndarray:
    """Entry (h, j): s * (rows where 0/1 evals[h] differs from label column j) + h, as floats.

    s is len(evals) with tiebreak, and otherwise 1 with no h added, so the
    entries are the mismatch counts. |e - y| = e + (1 - 2e)y, so the entries are
    one product of the +-1 matrix s(1 - 2e) with the labels, plus
    s * rowsum(e) + h added into its buffer in place. The product is taken in
    the type _product_dtype picks from the shapes, in which every entry is an
    exact integer. evals is copied row-major, since a table's evaluate() is
    stored example-major and its short rows would otherwise be strided.
    """
    scale = len(evals) if tiebreak else 1
    dtype = _product_dtype(len(labels), scale)
    signs = evals.astype(dtype, order="C")
    offsets = signs.sum(axis=1)
    if tiebreak:
        offsets *= scale
        offsets += np.arange(scale, dtype=dtype)
    signs *= -2 * scale
    signs += scale
    keys = signs @ labels.astype(dtype)
    keys += offsets[:, None]
    return keys


def _check_gf2_bits(bits: int) -> None:
    """Reject a column count that does not fit one uint64 coefficient word."""
    if not 0 <= bits <= 64:
        raise ValueError(f"bits must be in [0, 64], got {bits}")


def gf2_solve_blocks(bits: int, xs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve m independent blocks of GF(2) systems <xs[t, i], x> = rhs bits, all at once.

    xs has shape (m, s): block t's rows a_i as bitmasks, every entry in
    [0, 2**bits) with bits in [0, 64] (ValueError otherwise). rhs has shape
    (m, s, W) uint64 and packs W*64 right-hand sides per row, system j in bit
    j % 64 of word j // 64. Returns (solutions, ok): solutions[t, c] (shape
    (m, bits, W) uint64) packs coordinate c of every system's solution the same
    way, with free variables at 0, and ok[t] is False when some system of
    block t is inconsistent (its solutions are then meaningless). Neither input
    is modified.

    Layout: the rows are held word-major, one (1 + W, m, 1 + s) uint64 array
    whose word 0 is the coefficients and words 1..W the right-hand sides, so
    each numpy pass runs over all blocks at once. Slot 0 of every block is an
    all-zero sentinel row after which the s rows follow.

    Pivot rule: columns are eliminated in order, fully (the pivot is XORed into
    every other row with bit c, through 0/1 uint64 masks whose entry at the
    pivot itself is cleared), so no row swaps are needed. A row that has not pivoted yet has every lower bit cleared, and a
    row that has keeps its own pivot bit, so a row may pivot column c exactly
    when coef & ((2 << c) - 1) == 1 << c; the first such row of each block
    does, and its 0/1 mask of bit c is that low part shifted down by c. A
    block with no such row gets argmax's 0, the sentinel, whose XOR changes
    nothing and whose right-hand side reads as the 0 of a free variable. A
    consistent system has exactly one solution with its free variables at 0,
    so the pivot choice does not change the answer. Pivot rows are gathered
    through the flat indices t*(1 + s) + pivot.

    After the last column a row that never pivoted has coefficient 0, so a
    right-hand bit left on such a row reads 0 = 1 and its block is inconsistent.
    """
    _check_gf2_bits(bits)
    if xs.size and not (int(xs.min()) >= 0 and int(xs.max()) < 1 << bits):
        raise ValueError(f"xs entries must be in [0, 2**bits) = [0, {1 << bits}), got min {xs.min()}, max {xs.max()}")
    m, s, words = rhs.shape
    rows = np.zeros((1 + words, m, 1 + s), dtype=np.uint64)
    rows[0, :, 1:] = xs
    rows[1:, :, 1:] = rhs.transpose(2, 0, 1)
    coef, flat = rows[0], rows.reshape(1 + words, -1)
    starts = np.arange(0, m * (1 + s), 1 + s)
    pivots = np.empty((bits, m), dtype=np.intp)
    update = np.empty_like(rows)
    for col in range(bits):
        low = coef & np.uint64((2 << col) - 1)
        pivot = pivots[col]
        np.argmax(low == np.uint64(1 << col), axis=1, out=pivot)
        pivot += starts
        hit = low >> np.uint64(col)
        hit.reshape(-1)[pivot] = 0
        np.multiply(hit, np.take(flat, pivot, axis=1)[:, :, None], out=update)
        rows ^= update
    ok = ~((rows[1:] != 0) & (coef == 0)).any(axis=(0, 2))
    return np.ascontiguousarray(flat[1:, pivots.T].transpose(1, 2, 0)), ok


def gf2_solve(bits: int, equations: Iterable[tuple[int, int]]) -> int | None:
    """Solve the systems <a_i, x_j> = bit j of b_i over GF(2) that share the rows a_i.

    Rows a_i are bitmasks (coordinate c = bit c) in [0, 2**bits), bits in
    [0, 64]; b_i >= 0 packs one right-hand side per system, bit j for system j
    (ValueError otherwise). The result packs system j's solution into bits
    [j*bits, (j+1)*bits), or is None when any system is inconsistent. With b_i
    in {0, 1} this is the single system <a_i, x> = b_i. Free variables are
    fixed to 0, so each solution is deterministic. This is gf2_solve_blocks on
    one block, with the packed ints split into 64-bit words.
    """
    _check_gf2_bits(bits)
    pairs = [(int(a), int(b)) for a, b in equations]
    for a, b in pairs:
        if not 0 <= a < 1 << bits:
            raise ValueError(f"equation rows must be in [0, 2**bits) = [0, {1 << bits}), got {a}")
        if b < 0:
            raise ValueError(f"equation right-hand sides must be non-negative, got {b}")
    if not pairs:
        return 0
    words = -(-max(b.bit_length() for _, b in pairs) // 64)
    rhs = np.frombuffer(b"".join(b.to_bytes(8 * words, "little") for _, b in pairs), dtype="<u8")
    xs = np.array([[a for a, _ in pairs]], dtype=np.uint64)
    solutions, ok = gf2_solve_blocks(bits, xs, rhs.reshape(1, len(pairs), words))
    if not ok[0]:
        return None
    # (bits, 64*W) coordinate bits, transposed so bit j*bits + c is system j's coordinate c.
    coords = _unpack_words(solutions[0], 64 * words)
    return int.from_bytes(np.packbits(coords.T, bitorder="little").tobytes(), "little")


def _stability_distance(top: int, runner_up: int) -> float:
    """Distance to instability of the two best scores (Smith and Thakurta 2013), fed to stable_argmax.

    If one changed row moves every score by at most 1, the top two move by at
    most 1 each and this by at most 1; at distance >= 1 the gap is >= 3, so on
    every neighbour the leader keeps >= top - 1 against <= runner_up + 1 and
    the argmax cannot flip, ties included. The raw gap can move by 2.
    Parity: a score is a vector's block votes, and one row moves one block's vote.
    Points: given the heavy set, each selection (one label vector per heavy
    element) scores the minimum of its (x, vector) counts. One row moves two
    counts by 1 each, so every score moves by at most 1, and so do the top two.
    """
    return float(max(0, (top - runner_up - 1) // 2))


def _check_approx_dp(epsilon: float, delta: float, beta: float) -> None:
    """Reject the (epsilon, delta, beta) that an approximate-DP bound cannot take."""
    check_epsilon(epsilon)
    check_fraction(delta, "delta")
    check_fraction(beta, "beta")


def _check_generic(alpha: float, epsilon_prime: float) -> None:
    """Reject the accuracy and per-label budget the generic learner cannot take."""
    check_fraction(alpha, "alpha")
    check_epsilon(epsilon_prime, "epsilon_prime")


def parity_charges(epsilon: float, delta: float) -> list[PrivacyParams]:
    """The parity learner's one stable vote selection."""
    return [PrivacyParams(epsilon, delta)]


def point_charges(epsilon: float, delta: float) -> list[PrivacyParams]:
    """The point learner's two halves: the frequency sanitizer, then the stable selection."""
    return [PrivacyParams(epsilon / 2, delta / 2)] * 2


def generic_charges(k: int, epsilon: float, epsilon_prime: float, delta: float) -> list[PrivacyParams]:
    """The generic learner's one sanitization, then k exponential-mechanism selections."""
    return [PrivacyParams(epsilon, delta)] + [PrivacyParams(epsilon_prime)] * k


@pinned_bound
def parity_block_plan(bits: int, epsilon: float, beta: float, delta: float) -> tuple[int, int]:
    """Pinned block schedule: m = ceil(8/eps * ln(4/(beta*delta))) blocks of s = 4*bits rows."""
    _check_approx_dp(epsilon, delta, beta)
    m = math.ceil((8.0 / epsilon) * math.log(4.0 / (beta * delta)))
    return m, 4 * bits


def _parity_tally(
    db: MultiLabeledDatabase, epsilon: float, delta: float, beta: float
) -> tuple[np.ndarray, float, bool]:
    """parity_learner's deterministic part: (best masks, distance, below bound).

    The database's packed label words are the right-hand sides, one
    gf2_solve_blocks call eliminates every block, and _tally ranks the
    blocks' solution words; ties go to the vector of the earliest block (db's
    n >= 1 rows fill at least one). best masks is the int64[k] parity masks of
    the most voted vector, and distance is _stability_distance of the top two
    vote counts.
    """
    universe = db.universe
    if universe.bit_width is None:
        raise ValueError("parity learner requires a bit-vector universe")
    bits = universe.bit_width
    m, s_target = parity_block_plan(bits, epsilon, beta, delta)
    below = db.n < m * s_target
    s = max(1, db.n // m)
    m_eff = min(m, db.n // s)

    used = m_eff * s
    rhs = db.words[:used].reshape(m_eff, s, -1)
    solutions, ok = gf2_solve_blocks(bits, db.xs[:used].reshape(m_eff, s), rhs)
    votes = solutions[ok]
    first, counts = _tally(votes.reshape(-1, solutions[0].size))
    # Unseen vectors count 0, so the all-zero vector leads an empty tally.
    best = votes[first[0]] if len(first) else np.zeros(solutions.shape[1:], dtype=np.uint64)
    top, runner_up = [*counts[:2], 0, 0][:2]
    # (bits, k) coordinate bits; label j's mask packs column j.
    masks = _pack_words(_unpack_words(best, db.k).T)[:, 0].astype(np.int64)
    return masks, _stability_distance(top, runner_up), below


def parity_learner(
    db: MultiLabeledDatabase,
    epsilon: float,
    delta: float,
    beta: float,
    rng: np.random.Generator,
) -> LearnResult:
    """Learn k parities exactly (under uniform examples) via block voting.

    The rows are split into m disjoint blocks; each block solves all k label
    columns at once, contributing one candidate vector (or an abstention when
    some column is inconsistent). A single stable-selection step releases the
    most frequent vector, so the whole run costs (epsilon, delta) regardless
    of k. The vote tally (_parity_tally) is deterministic, and it feeds the
    selection its distance to instability, not the raw vote gap, which one row
    can move by 2; parity_learner_pmf gives the exact law of the one random step.
    """
    masks, distance, below = _parity_tally(db, epsilon, delta, beta)
    ledger = PrivacyLedger(parity_charges(epsilon, delta))
    choice = stable_argmax(distance, epsilon, delta, rng)
    if choice is None:
        return LearnResult(None, ledger, below)
    return LearnResult(Hypotheses(db.universe, PARITY, masks), ledger, below)


def parity_learner_pmf(
    db: MultiLabeledDatabase, epsilon: float, delta: float, beta: float
) -> tuple[np.ndarray, float, float]:
    """Exact output law of parity_learner on db: (masks, P[release masks], P[bottom]).

    The tally is deterministic, so the released masks are fixed and the only
    randomness is stable_argmax's one Laplace draw on the tally's distance.
    """
    masks, distance, _ = _parity_tally(db, epsilon, delta, beta)
    p_release, p_bottom = stable_argmax_pmf(distance, epsilon, delta)
    return masks, p_release, p_bottom


@pinned_bound
def point_rows_bound(alpha: float, beta: float, delta: float, epsilon: float) -> int:
    """Pinned sample bound for the point learner: ceil(64/(alpha*eps) * ln(1/(alpha*beta*delta)))."""
    check_fraction(alpha, "alpha")
    _check_approx_dp(epsilon, delta, beta)
    return math.ceil((64.0 / (alpha * epsilon)) * math.log(1.0 / (alpha * beta * delta)))


def point_learner(
    db: MultiLabeledDatabase,
    alpha: float,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    beta: float = 0.1,
) -> LearnResult:
    """Learn k point functions with an (epsilon, delta) charge independent of k.

    Half the budget sanitizes the element frequencies (sanitize_points, a
    stability histogram that answers every element absent from the sample 0);
    elements whose released frequency reaches alpha/15 form the heavy set G
    (capped at floor(15/alpha) entries). The other half runs one stable
    selection over per-heavy-element label vectors, maximizing the minimal
    count of any selected (x, vector) pair. Given G the tally (_point_tally) is
    deterministic, and it feeds the selection its distance to instability. `beta` only
    informs the sample-size advisory flag; alpha, epsilon, delta and beta are
    checked (ValueError) before any randomness is drawn; db has n >= 1 rows.
    """
    universe = db.universe
    k = db.k
    below = db.n < point_rows_bound(alpha, beta, delta, epsilon)
    ledger = PrivacyLedger(point_charges(epsilon, delta))

    answers = sanitize_points(db, epsilon / 2.0, delta / 2.0, rng)
    # The floor(15/alpha) largest answers, ties to the smaller element, that reach alpha/15.
    top = np.lexsort((answers.support, -answers.answers))[: int(15.0 / alpha)]
    heavy = np.sort(answers.support[top][answers.answers[top] >= alpha / 15.0])
    if not heavy.size:
        # No heavy elements: every selected vector is vacuously all-zero.
        return LearnResult(Hypotheses(universe, POINT, np.full(k, -1)), ledger, below)

    params, distance = _point_tally(db, heavy)
    choice = stable_argmax(distance, epsilon / 2.0, delta / 2.0, rng)
    if choice is None:
        return LearnResult(None, ledger, below)
    return LearnResult(Hypotheses(universe, POINT, params), ledger, below)


def _point_tally(db: MultiLabeledDatabase, heavy: np.ndarray) -> tuple[np.ndarray, float]:
    """point_learner's deterministic part given the heavy set: (params, distance).

    heavy is a non-empty sorted int64 array of distinct elements. When every
    heavy element's rows carry one label vector, as every sample of a
    realizable target does, the tally is a count: each element's top count is
    its row count, its top vector that one vector, and every runner-up count
    0. Otherwise one _tally of the heavy rows' stored label words, grouped by
    element, sorts them to give each element's top and runner-up (x, vector)
    counts (ties go to the earliest row). Either way an absent element has the
    all-zero vector at count 0, the best selection takes every top vector, and
    only those are unpacked. Label j maps to the first heavy element whose top
    vector has bit j set, else to the constant-zero hypothesis (-1).
    """
    # heavy[i] owns slot i + 1 and slot 0 takes every other row, so mixed
    # labels outside the heavy set never force the sort. The table holds
    # slots in the narrowest unsigned dtype: one byte per element of the
    # universe while fewer than 256 elements are heavy.
    slot_of = np.zeros(db.universe.size, dtype=np.min_scalar_type(len(heavy)))
    slot_of[heavy] = np.arange(1, len(heavy) + 1)
    slot = slot_of[db.xs]
    # A slot's reference vector is whichever of its rows numpy's repeated
    # fancy-index writes leave; any row serves, since every row is compared with it.
    top_words = np.zeros((len(heavy) + 1, db.words.shape[1]), dtype=np.uint64)
    top_words[slot] = db.words
    if slot[(db.words != top_words[slot]).any(axis=1)].any():
        top_count, runner_up = _ranked_point_counts(db, slot, top_words)
    else:
        top_count, runner_up = np.bincount(slot, minlength=len(top_words))[1:], 0
    top_vec = _unpack_words(top_words[1:], db.k)
    params = np.where(top_vec.any(axis=0), heavy[top_vec.argmax(axis=0)], -1)
    return params, _stability_distance(top_count.min(), runner_up)


def _ranked_point_counts(db: MultiLabeledDatabase, slot: np.ndarray, top_words: np.ndarray) -> tuple[np.ndarray, int]:
    """_point_tally's sorted case: (each heavy element's top count, best runner-up score).

    One _tally of the rows in slots 1.. ranks each heavy element's vectors;
    each present element's row of top_words becomes its top vector.
    """
    top_count = np.zeros(len(top_words), dtype=np.int64)
    second_count = np.zeros(len(top_words), dtype=np.int64)
    rows = np.flatnonzero(slot)
    first, counts = _tally(db.words[rows], db.xs[rows])
    group = slot[rows[first]]
    # Each element's run opens with its top vector; a second entry is its runner-up.
    _, head = np.unique(group, return_index=True)
    top = group[head]
    top_count[top] = counts[head]
    top_words[top] = db.words[rows[first[head]]]
    runner = np.diff(np.r_[head, len(group)]) > 1
    second_count[top[runner]] = counts[head[runner] + 1]
    top_count, second_count = top_count[1:], second_count[1:]
    # Any other selection downgrades some element to (at best) its runner-up
    # count; downgrading one x is optimal, and the minimum of the other top
    # counts is the second smallest v1 when x holds the smallest v0, else v0.
    if len(top_count) > 1:
        v0, v1 = np.partition(top_count, 1)[:2]
        others = np.where(top_count == v0, v1, v0)
    else:
        others = top_count
    return top_count, int(np.minimum(others, second_count).max())


def generic_sanitizer(cclass: ConceptClass, delta: float, sanitizer: str = "auto") -> str:
    """The sanitizer generic_multi_learner runs: "points" or "exhaustive".

    "auto" takes the point-query sanitizer for point classes under approximate
    DP (delta > 0) and the exhaustive pure-DP one otherwise. The learner and
    its sample bound both resolve the sanitizer here.
    """
    if sanitizer == "auto":
        return "points" if (cclass.kind == POINT and delta > 0) else "exhaustive"
    if sanitizer not in ("points", "exhaustive"):
        raise ValueError(f"unknown sanitizer {sanitizer!r}")
    return sanitizer


def check_generic_budget(cclass: ConceptClass, alpha: float, delta: float, synth_size: int | None = None) -> None:
    """Refuse (EnumerationBudgetError), with no data, the exhaustive sanitization generic_multi_learner would run."""
    if generic_sanitizer(cclass, delta) == "exhaustive":
        check_budget(cclass, exhaustive_synth_size(cclass, alpha / 5.0, synth_size))


@pinned_bound
def generic_rows_bound(
    cclass: ConceptClass,
    k: int,
    alpha: float,
    beta: float,
    epsilon: float,
    epsilon_prime: float,
    delta: float,
    sanitizer: str = "auto",
) -> int:
    """Pinned (unit-constant) sample bound for the generic learner.

    Its sanitization term is that of the sanitizer generic_sanitizer resolves.
    """
    _check_generic(alpha, epsilon_prime)
    check_fraction(beta, "beta")
    vc = cclass.vc_dim
    select = (
        (vc / (alpha**3 * epsilon_prime)) * math.log(1.0 / alpha)
        + (1.0 / (alpha * epsilon_prime)) * math.log(k / beta)
        + (vc / alpha**2) * math.log(k / (alpha * beta))
    )
    if generic_sanitizer(cclass, delta, sanitizer) == "points":
        sanitizer_rows = point_sanitizer_rows(alpha / 10.0, beta / 5.0, delta, epsilon)
    else:
        sanitizer_rows = math.ceil(
            vc * math.log(cclass.universe.size) * math.log(2.0 / alpha) / (alpha**3 * epsilon)
        )
    return sanitizer_rows + math.ceil(select)


def generic_privacy_total(k: int, epsilon: float, epsilon_prime: float, delta: float) -> PrivacyParams:
    """Composed generic_charges: one sanitization plus k exponential-mechanism selections."""
    return compose_basic(generic_charges(k, epsilon, epsilon_prime, delta))


def generic_multi_learner(
    db: MultiLabeledDatabase,
    cclass: ConceptClass,
    alpha: float,
    beta: float,
    epsilon: float,
    epsilon_prime: float,
    delta: float,
    rng: np.random.Generator,
    sanitizer: str = "auto",
    synth_size: int | None = None,
) -> LearnResult:
    """Agnostically learn k concepts from one sanitization of the unlabeled data.

    The sanitized database pins down a small hypothesis set H (one witness per
    dichotomy the class realizes on the sanitized support), and each label is
    then resolved by an exponential-mechanism selection over H scored by
    negative mismatch count, all k in one row-wise call. Charges (epsilon,
    delta) once plus k times (epsilon_prime, 0).

    sanitizer: "points" routes through the point-query sanitizer (point
    classes, approximate DP), "exhaustive" through the enumerative pure-DP
    sanitizer (synth_size caps its candidate databases at desk scale), "auto"
    picks by class and delta (generic_sanitizer), and below_sample_bound uses
    the bound of the sanitizer that ran. alpha, epsilon, epsilon_prime and
    delta are checked (ValueError) before any randomness is drawn; db has n >= 1 rows.
    """
    _check_generic(alpha, epsilon_prime)
    ledger = PrivacyLedger(generic_charges(db.k, epsilon, epsilon_prime, delta))
    db.universe.require_same(cclass.universe)
    sanitizer = generic_sanitizer(cclass, delta, sanitizer)
    below = db.n < generic_rows_bound(cclass, max(db.k, 1), alpha, beta, epsilon, epsilon_prime, delta, sanitizer)
    if sanitizer == "points":
        # Point-query error alpha/10 twice (the release, at generic_rows_bound's rows, and the
        # reconstruction) bounds the pairwise-xor query error by 2*(alpha/10 + alpha/10) = 2*alpha/5.
        answers = sanitize_points(db, epsilon, delta, rng)
        synth = answers_to_synthetic(answers, alpha / 10.0)
    else:
        synth = sanitize_exhaustive(db, cclass, alpha / 5.0, epsilon, rng, synth_size=synth_size)

    support = synth.distinct_elements()
    witnesses = dichotomy_projection(cclass, support)
    mismatches = _mismatch_keys(witnesses.evaluate(db.xs), db.labels)

    chosen = exponential_mechanism(-mismatches.T.astype(np.float64, order="C"), epsilon_prime, 1.0, rng)

    details = {"support_size": int(len(support)), "hypothesis_count": len(witnesses)}
    return LearnResult(Hypotheses(db.universe, cclass.kind, witnesses.params[chosen]), ledger, below, details)


def _label_column(db: MultiLabeledDatabase, j: int) -> MultiLabeledDatabase:
    """The one-label database of db's rows and label j, whose one word is bit j % 64 of word j // 64."""
    bit = (db.words[:, j // 64 : j // 64 + 1] >> np.uint64(j % 64)) & np.uint64(1)
    return MultiLabeledDatabase(db.universe, db.xs, bit, 1)


def direct_sum_learner(base: LearnerFn, db: MultiLabeledDatabase, rng: np.random.Generator) -> LearnResult:
    """Run a single-concept learner independently on each label column.

    All runs share the same rows, and every label runs even after one has
    aborted, so the ledger is always the k base ledgers in order. The result
    is None if any label aborted, and otherwise the k one-row base tables
    joined under the base's kind.
    """
    if db.k == 0:
        raise ValueError("direct sum needs at least one label, got k=0")
    results = [base(_label_column(db, j), rng) for j in range(db.k)]
    ledger = PrivacyLedger([charge for result in results for charge in result.ledger.charges])
    below = any(result.below_sample_bound for result in results)
    if any(result.failed for result in results):
        return LearnResult(None, ledger, below)
    kind = results[0].hypotheses.kind
    if any(result.hypotheses.kind != kind for result in results):
        raise ValueError("direct sum's base released hypotheses of more than one kind")
    params = np.concatenate([result.hypotheses.params for result in results])
    return LearnResult(Hypotheses(db.universe, kind, params), ledger, below)
