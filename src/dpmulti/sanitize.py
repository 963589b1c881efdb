"""Differentially private synthetic-data release for counting queries.

Two sanitizers are provided:

* sanitize_points: a stability histogram, one noisy_threshold release of
  every nonzero point-function count, (epsilon, delta)-DP at every n, plus a
  reconstruction of the answers into a small synthetic database.
* sanitize_exhaustive: the exponential mechanism over every candidate
  synthetic database of a fixed size m, scored by worst-case error on a
  class's disagreement sets {x : f(x) != g(x)}. No query is built: each
  score is one reduction (_worst_gaps) of the class sums ConceptClass.sums,
  exact integers divided once. It runs over the C(|X|+m-1, m) histograms, not
  the |X|^m ordered tuples, with the same law on the released (sorted)
  multiset. Exact and exhaustive by design; check_budget caps the histogram
  count and the H x |X| cells of each table. Only the data's class sums and
  the worst-case errors depend on the data: the histograms, their class sums
  and log multinomials are built once per (class, m) and kept read-only in a
  small cache.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import PARITY, THRESH, ConceptClass, EmptyDatabaseError, MultiLabeledDatabase, Universe, _checked_elements
from .mechanisms import (
    check_epsilon,
    check_fraction,
    exponential_mechanism,
    exponential_mechanism_pmf,
    noisy_threshold,
    pinned_bound,
)

# Most candidate histograms the exhaustive sanitizer enumerates and scores.
ENUMERATION_BUDGET = 1 << 20

# Most cells in any table the exhaustive sanitizer builds, for every class: the H x |X| histograms and their
# |X| x H class sums, stored narrow, and the int64 gaps scored from them. At m = 1, 2^27 admits points and
# thresholds up to |X| = 11,585 and parities up to d = 13, whose learn generic runs take about 4-6 s at
# 1.3 GB peak RSS and 3-4 s at 0.7 GB on a 2-core machine.
TABLE_BUDGET = 1 << 27


class EnumerationBudgetError(RuntimeError):
    """Candidate count exceeds the exhaustive-enumeration budget."""


@dataclass(frozen=True)
class SanitizedAnswers:
    """Answers a_x in [0, 1] (float64) on an ascending int64 support; other elements answered 0."""

    universe: Universe
    support: np.ndarray
    answers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.int64))
        object.__setattr__(self, "answers", np.asarray(self.answers, dtype=np.float64))

    def as_vector(self) -> np.ndarray:
        vec = np.zeros(self.universe.size)
        vec[self.support] = self.answers
        return vec


@dataclass(frozen=True)
class SyntheticDatabase:
    """Unlabeled synthetic rows; sink_rows carry mass no real element should."""

    universe: Universe
    elements: np.ndarray  # real rows, int64
    sink_rows: int = 0

    def __post_init__(self):
        elements = _checked_elements(self.universe, self.elements)
        if self.sink_rows < 0:
            raise ValueError("sink_rows must be non-negative")
        if elements.shape[0] + self.sink_rows < 1:
            raise ValueError("synthetic database must be non-empty")
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return int(self.elements.shape[0]) + self.sink_rows

    def distinct_elements(self) -> np.ndarray:
        return np.unique(self.elements)


@pinned_bound
def point_sanitizer_rows(alpha: float, beta: float, delta: float, epsilon: float) -> int:
    """Pinned sample-size bound for the point sanitizer: ceil(8 ln(16/(a*b*d)) / (a*eps))."""
    return math.ceil(8.0 * math.log(16.0 / (alpha * beta * delta)) / (alpha * epsilon))


def sanitize_points(db: MultiLabeledDatabase, epsilon: float, delta: float, rng: np.random.Generator) -> SanitizedAnswers:
    """Answer every point-function counting query by a stability histogram.

    Every nonzero count goes, by ascending element, through one noisy_threshold
    call on its frequency at scale 2/(eps*n); the element is released when that
    reaches (1 + 2 ln(2/delta)/eps)/n, capped at 1, and every other element is
    answered 0. (epsilon, delta)-DP at every n (Korolova, Kenthapadi, Mishra and
    Ntoulas 2009; Bun, Nissim and Stemmer 2016): under substitution at most two
    counts move, each by 1. One nonzero in both databases costs eps/2 (Lap(2/eps)
    on counts); one moving from 0 to 1 is released with probability delta/4.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot sanitize an empty database")
    check_fraction(delta, "delta")
    check_epsilon(epsilon)
    scale = 2.0 / (epsilon * db.n)
    check_epsilon(scale, f"the noise scale 2/(epsilon*n) at epsilon = {epsilon}, n = {db.n}")
    counts = np.bincount(db.xs, minlength=db.universe.size)
    candidates = np.flatnonzero(counts)
    threshold = (1.0 + 2.0 * math.log(2.0 / delta) / epsilon) / db.n
    released, noisy = noisy_threshold(counts[candidates] / db.n, scale, threshold, rng)
    return SanitizedAnswers(db.universe, candidates[released], np.minimum(noisy[released], 1.0))


def answers_to_synthetic(ans: SanitizedAnswers, alpha: float) -> SyntheticDatabase:
    """Reconstruct a small database whose point counts track the answers.

    Each answer is rounded down to a multiple of 1/m with
    m = ceil(1/alpha) + |support|, and residual mass goes to sink rows, so
    max_x |freq(x) - a_x| <= alpha whenever the answers carry total mass <= 1.
    Answer maps with mass > 1 are not representable as frequencies; the
    database then grows past m and the bound degrades gracefully. An alpha
    whose real rows would number over TABLE_BUDGET is refused by name.
    """
    check_fraction(alpha, "alpha")
    if not 1.0 / alpha < 2.0**53:  # row counts are taken as float64 products, exact below 2^53
        raise ValueError(f"alpha = {alpha} puts 1/alpha, the synthetic size, at or above 2^53")
    m = math.ceil(1.0 / alpha) + len(ans.support)
    counts = (ans.answers * m).astype(np.int64)
    total = counts.sum(dtype=np.float64)  # exact up to 2^53, and no int64 wrap past it
    if total > TABLE_BUDGET:
        raise ValueError(f"alpha = {alpha} asks for {total:.0f} synthetic rows, over the budget of {TABLE_BUDGET}")
    rows = np.repeat(ans.support, counts)
    return SyntheticDatabase(ans.universe, rows, sink_rows=max(0, m - len(rows)))


def _worst_gaps(kind: str, sums: np.ndarray) -> np.ndarray:
    """Worst |d-sum| over the class's disagreement sets {x : f(x) != g(x)}, per column of sums = cclass.sums(d).

    A parity xor a parity is a parity, so for parities the family is the class
    itself. Otherwise it is the empty set and, per pair a < b, {a, b} for points,
    whose worst is the larger of the top-two sum and the negated bottom-two sum
    (at least 0), or (a, b] for thresholds, whose d-sum is sums[b] - sums[a], so
    its worst is max - min. sums may be overwritten.
    """
    if kind == THRESH:
        return sums.max(axis=0) - sums.min(axis=0)
    if kind == PARITY:
        return np.abs(sums, out=sums).max(axis=0)
    sums.sort(axis=0)
    return np.maximum(sums[-1] + sums[-2], -(sums[0] + sums[1]))


def sanitize_error(
    db: MultiLabeledDatabase,
    synth: SyntheticDatabase,
    cclass: ConceptClass,
) -> float:
    """Worst gap |q(D) - q(D_hat)| over the class's disagreement sets q, from exact integer sums."""
    db.universe.require_same(synth.universe)
    db.universe.require_same(cclass.universe)
    if db.n * synth.size >= 1 << 61:  # every sum below, the transform's included, is within 3 n |D_hat|
        raise ValueError(f"n * |D_hat| = {db.n * synth.size} does not fit the exact int64 sums")
    counts_db = np.bincount(db.xs, minlength=db.universe.size)
    counts_synth = np.bincount(synth.elements, minlength=db.universe.size)
    d = synth.size * counts_db - db.n * counts_synth
    return float(_worst_gaps(cclass.kind, cclass.sums(d)) / (db.n * synth.size))


def sanitize_exhaustive(
    db: MultiLabeledDatabase,
    cclass: ConceptClass,
    alpha: float,
    epsilon: float,
    rng: np.random.Generator,
    synth_size: int | None = None,
) -> SyntheticDatabase:
    """Pure-DP sanitizer: exponential mechanism over all size-m databases.

    A candidate is a multiset of m elements, named by its histogram h; its
    score is -n * max_q |q(D) - q(h)| over the disagreement sets q,
    sensitivity 1. Histogram h is drawn with probability proportional to
    multinomial(h) * exp(eps * score / 2): the multinomial(h) ordered tuples
    with histogram h share its score, so this is the law, on the released
    multiset, of the exponential mechanism over all |X|^m tuples. The chosen multiset is released in sorted order.
    Exact but exponential, so check_budget caps its size; m is exhaustive_synth_size's.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    synth_size = exhaustive_synth_size(cclass, alpha, synth_size)
    scores, histograms = _exhaustive_candidates(db, cclass, synth_size, epsilon)
    idx = exponential_mechanism(scores, epsilon, 1.0, rng)
    return SyntheticDatabase(db.universe, np.repeat(np.arange(db.universe.size), histograms[idx]))


def sanitize_exhaustive_pmf(
    db: MultiLabeledDatabase,
    cclass: ConceptClass,
    epsilon: float,
    synth_size: int,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Exact output law of sanitize_exhaustive: (pmf, multisets).

    multisets[i] is the sorted tuple released for outcome i, in
    lexicographic order, and pmf[i] its probability.
    """
    scores, histograms = _exhaustive_candidates(db, cclass, synth_size, epsilon)
    elements = np.arange(db.universe.size)
    multisets = [tuple(np.repeat(elements, h).tolist()) for h in histograms]
    return exponential_mechanism_pmf(scores, epsilon, 1.0), multisets


@pinned_bound
def exhaustive_synth_size(cclass: ConceptClass, alpha: float, synth_size: int | None = None) -> int:
    """The synthetic size m sanitize_exhaustive runs at: synth_size, or by default ceil(vc ln(2/alpha) / alpha^2)."""
    vc = cclass.vc_dim
    return max(1, math.ceil(vc * math.log(2.0 / min(alpha, 1.0)) / alpha**2)) if synth_size is None else synth_size


def check_budget(cclass: ConceptClass, synth_size: int) -> None:
    """Refuse (EnumerationBudgetError) m over ENUMERATION_BUDGET histograms, or a table over TABLE_BUDGET cells."""
    size = cclass.universe.size
    # count = C(m+i, i) grows with i up to C(|X|+m-1, m) at i = |X|-1; stopping
    # once it passes the budget keeps it a small integer, however big m is.
    count = 1
    for i in range(1, size):
        count = count * (synth_size + i) // i
        if count > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"C(|X|+m-1, m) histograms at |X| = {size}, m = {synth_size} exceed budget "
                f"{ENUMERATION_BUDGET}; for point queries use sanitize_points instead"
            )
    if count * size > TABLE_BUDGET:
        raise EnumerationBudgetError(f"tables at |X| = {size}, m = {synth_size} exceed {TABLE_BUDGET} cells")


def _exhaustive_candidates(db, cclass, synth_size, epsilon):
    """Check and score every candidate histogram, for the sampler and its oracle.

    Returns (scores, histograms): histograms is the read-only (H, |X|) count
    array of the H = C(|X|+m-1, m) size-m multisets, in lexicographic order
    of their sorted tuples, and scores[i] is row i's score plus the offset
    (2/eps) ln multinomial(h). The unchanged exponential mechanism then
    weights h by multinomial(h) * exp(eps * score / 2). The offset does not
    depend on the data, so between neighbouring databases the shifted score
    moves exactly as the score does, by at most 1: sensitivity 1 still
    holds, and so does eps-DP.

    Every argument is checked on every call, the budget included, before the
    data-independent part is looked up in _histogram_table; only the data's
    class sums and the worst-case errors are computed per call.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot sanitize an empty database")
    db.universe.require_same(cclass.universe)
    if synth_size < 1:
        raise ValueError(f"synth_size must be >= 1, got {synth_size}")
    check_epsilon(epsilon)
    check_budget(cclass, synth_size)
    histograms, sums, log_multinomial = _histogram_table(cclass, synth_size)
    if not math.isfinite((2.0 / epsilon) * float(log_multinomial.max())):
        raise ValueError(f"epsilon = {epsilon} overflows the offset (2/epsilon) ln multinomial(h)")
    # n m |q(D) - q(h)| is |q . d| for d = m c_D - n h, an exact integer; the sums table is widened
    # before it is scaled, since a narrow table times a Python int stays narrow.
    gaps = sums * np.int64(-db.n)
    gaps += synth_size * cclass.sums(np.bincount(db.xs, minlength=db.universe.size))[:, None]
    scores = -_worst_gaps(cclass.kind, gaps) / synth_size
    return scores + (2.0 / epsilon) * log_multinomial, histograms


@functools.lru_cache(maxsize=4)
def _histogram_table(cclass: ConceptClass, synth_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (histograms, sums, log_multinomial) of the size-m multisets.

    histograms is the (H, |X|) count array, in the order _exhaustive_candidates
    documents; sums is cclass.sums(histograms.T), the (|X|, H) table whose row p
    counts each histogram's rows among the ones of concept p, C-contiguous so that
    scoring reduces along whole rows; and log_multinomial[i] is
    ln multinomial(histograms[i]). Both count tables hold entries of at most m in
    the narrowest unsigned type that fits. None of it depends on the data, so the
    last few (class, m) pairs are cached. Callers check the budget first.
    """
    size = cclass.universe.size
    narrow = np.min_scalar_type(synth_size)
    # Stars and bars: m stars and |X|-1 bars fill m+|X|-1 slots. Whichever side is shorter is
    # enumerated (at most 11 per histogram within the enumeration budget, since C(24, 12) > 2^20).
    slots = synth_size + size - 1
    side = min(synth_size, size - 1)
    count = math.comb(slots, side)
    chosen = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), side)), dtype=np.int64, count=count * side
    ).reshape(count, side)
    if side == synth_size:
        # Star i at slot s sits after s - i bars, so it is element s - i; star sets in ascending
        # order give the sorted tuples, and so the multisets, in ascending order.
        histograms = np.zeros((count, size), dtype=narrow)
        np.add.at(histograms, (np.arange(count)[:, None], chosen - np.arange(side)), 1)
    else:
        # The gaps between bars are the counts; bar sets in descending order give the multisets in ascending order.
        padded = np.pad(chosen[::-1], ((0, 0), (1, 1)), constant_values=(-1, slots))
        histograms = (np.diff(padded, axis=1) - 1).astype(narrow)
    sums = np.ascontiguousarray(cclass.sums(histograms.T), dtype=narrow)
    log_factorial = np.array([math.lgamma(c + 1) for c in range(synth_size + 1)])
    log_multinomial = log_factorial[synth_size] - log_factorial[histograms].sum(axis=1)
    for table in (histograms, sums, log_multinomial):
        table.setflags(write=False)
    return histograms, sums, log_multinomial
