"""Differentially private synthetic-data release for counting queries.

Two sanitizers are provided:

* sanitize_points: a stability histogram, one noisy_threshold release of
  every nonzero point-function count, (epsilon, delta)-DP at every n, plus a
  reconstruction of the answers into a small synthetic database.
* sanitize_exhaustive: the exponential mechanism over every candidate
  synthetic database of a fixed size m, scored by worst-case query error.
  It runs over the C(|X|+m-1, m) histograms, not the |X|^m ordered tuples,
  with the same law on the released (sorted) multiset. Exact and exhaustive
  by design; the histogram count is capped by ENUMERATION_BUDGET. Only the
  target answers and the worst-case errors depend on the data: the
  histograms, their query answers and log multinomials are built once per
  (query class, m) and kept read-only in a small cache (_histogram_table),
  as the query matrix is per query class (_query_matrix).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import ConceptClass, EmptyDatabaseError, MultiLabeledDatabase, Universe, _checked_elements, xor_eval_matrix
from .mechanisms import check_epsilon, check_fraction, exponential_mechanism, exponential_mechanism_pmf, noisy_threshold

# Most candidate histograms the exhaustive sanitizer enumerates and scores.
ENUMERATION_BUDGET = 1 << 20


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

    def answer(self, x: int) -> float:
        self.universe.check_element(x)
        return float(self.answers[self.support == int(x)].sum())

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

    def frequency(self, x: int) -> float:
        self.universe.check_element(x)
        return float(np.count_nonzero(self.elements == x)) / self.size

    def distinct_elements(self) -> np.ndarray:
        return np.unique(self.elements)


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
    counts = np.bincount(db.xs, minlength=db.universe.size)
    candidates = np.flatnonzero(counts)
    threshold = (1.0 + 2.0 * math.log(2.0 / delta) / epsilon) / db.n
    released, noisy = noisy_threshold(counts[candidates] / db.n, 2.0 / (epsilon * db.n), threshold, rng)
    return SanitizedAnswers(db.universe, candidates[released], np.minimum(noisy[released], 1.0))


def answers_to_synthetic(ans: SanitizedAnswers, alpha: float) -> SyntheticDatabase:
    """Reconstruct a small database whose point counts track the answers.

    Each answer is rounded down to a multiple of 1/m with
    m = ceil(1/alpha) + |support|, and residual mass goes to sink rows, so
    max_x |freq(x) - a_x| <= alpha whenever the answers carry total mass <= 1.
    Answer maps with mass > 1 are not representable as frequencies; the
    database then grows past m and the bound degrades gracefully.
    """
    check_fraction(alpha, "alpha")
    m = math.ceil(1.0 / alpha) + len(ans.support)
    rows = np.repeat(ans.support, (ans.answers * m).astype(np.int64))
    return SyntheticDatabase(ans.universe, rows, sink_rows=max(0, m - len(rows)))


def _base_class(query_class: ConceptClass | tuple[ConceptClass, str]) -> ConceptClass:
    return query_class[0] if isinstance(query_class, tuple) else query_class


@functools.lru_cache(maxsize=4)
def _query_matrix(query_class: ConceptClass | tuple[ConceptClass, str]) -> np.ndarray:
    """Read-only evaluation matrix, over the class's universe, of a class or its
    pairwise-xor closure ("xor" tag). It depends on nothing else, so the last
    few are cached; an entry holds at most |X|^2 rows of |X| bytes.
    """
    if isinstance(query_class, tuple):
        cclass, tag = query_class
        if tag != "xor":
            raise ValueError(f"unknown query-class tag {tag!r}")
        full = xor_eval_matrix(cclass)
    else:
        full = query_class.eval_matrix()
    full.setflags(write=False)
    return full


def _query_answers(query_matrix_full: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    return (query_matrix_full @ counts.astype(np.float64)) / total


def sanitize_error(
    db: MultiLabeledDatabase,
    synth: SyntheticDatabase,
    query_class: ConceptClass | tuple[ConceptClass, str],
) -> float:
    """Worst query-answer gap max_c |c(D) - c(D_hat)|, by enumeration."""
    db.universe.require_same(synth.universe)
    db.universe.require_same(_base_class(query_class).universe)
    full = _query_matrix(query_class)
    counts_db = np.bincount(db.xs, minlength=db.universe.size)
    counts_synth = np.bincount(synth.elements, minlength=db.universe.size)
    a = _query_answers(full, counts_db, db.n)
    b = _query_answers(full, counts_synth, synth.size)
    return float(np.abs(a - b).max())


def sanitize_exhaustive(
    db: MultiLabeledDatabase,
    query_class: ConceptClass | tuple[ConceptClass, str],
    alpha: float,
    epsilon: float,
    rng: np.random.Generator,
    synth_size: int | None = None,
) -> SyntheticDatabase:
    """Pure-DP sanitizer: exponential mechanism over all size-m databases.

    A candidate is a multiset of m elements, named by its histogram h; its
    score is -n * max_c |c(D) - c(h)|, sensitivity 1. Histogram h is drawn
    with probability proportional to multinomial(h) * exp(eps * score / 2):
    the multinomial(h) ordered tuples with histogram h share its score, so
    this is the law, on the released multiset, of the exponential mechanism
    over all |X|^m tuples. The chosen multiset is released in sorted order.
    Exact but exponential, so the C(|X|+m-1, m) histograms are capped by
    ENUMERATION_BUDGET.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if synth_size is None:
        cclass = _base_class(query_class)
        synth_size = max(1, math.ceil(cclass.vc_dim * math.log(2.0 / min(alpha, 1.0)) / alpha**2))
    scores, histograms = _exhaustive_candidates(db, query_class, synth_size, epsilon)
    idx = exponential_mechanism(scores, epsilon, 1.0, rng)
    return SyntheticDatabase(db.universe, np.repeat(np.arange(db.universe.size), histograms[idx]))


def sanitize_exhaustive_pmf(
    db: MultiLabeledDatabase,
    query_class: ConceptClass | tuple[ConceptClass, str],
    epsilon: float,
    synth_size: int,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Exact output law of sanitize_exhaustive: (pmf, multisets).

    multisets[i] is the sorted tuple released for outcome i, in
    lexicographic order, and pmf[i] its probability.
    """
    scores, histograms = _exhaustive_candidates(db, query_class, synth_size, epsilon)
    elements = np.arange(db.universe.size)
    multisets = [tuple(np.repeat(elements, h).tolist()) for h in histograms]
    return exponential_mechanism_pmf(scores, epsilon, 1.0), multisets


def _exhaustive_candidates(db, query_class, synth_size, epsilon):
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
    data-independent part is looked up in _histogram_table; only the target
    answers and the worst-case error are computed per call.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot sanitize an empty database")
    db.universe.require_same(_base_class(query_class).universe)
    if synth_size < 1:
        raise ValueError(f"synth_size must be >= 1, got {synth_size}")
    check_epsilon(epsilon)
    size = db.universe.size
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
    histograms, answers, log_multinomial = _histogram_table(query_class, synth_size)
    target = _query_answers(_query_matrix(query_class), np.bincount(db.xs, minlength=size), db.n)
    scores = -db.n * np.abs(answers - target[:, None]).max(axis=0)
    return scores + (2.0 / epsilon) * log_multinomial, histograms


@functools.lru_cache(maxsize=4)
def _histogram_table(
    query_class: ConceptClass | tuple[ConceptClass, str], synth_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (histograms, answers, log_multinomial) of the size-m multisets.

    histograms is the (H, |X|) count array, in the order _exhaustive_candidates
    documents; answers[q, i] is query q's answer on histogram i; and
    log_multinomial[i] is ln multinomial(histograms[i]). None of it depends on
    the data, so the last few (query class, m) pairs are cached. An entry holds
    H * (|X| + Q + 1) * 8 bytes for Q queries, less than one call's scoring
    allocates anyway. Callers check the enumeration budget first.
    """
    size = _base_class(query_class).universe.size
    # Stars and bars: |X|-1 bars among m+|X|-1 slots cut the m stars into a
    # histogram. Bar sets in descending order give the multisets in ascending order.
    slots = synth_size + size - 1
    count = math.comb(slots, size - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), size - 1)),
        dtype=np.int64,
        count=count * (size - 1),
    ).reshape(count, size - 1)[::-1]
    histograms = np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots)), axis=1) - 1
    answers = _query_answers(_query_matrix(query_class), histograms.T, synth_size)  # (queries, histograms)
    log_factorial = np.array([math.lgamma(c + 1) for c in range(synth_size + 1)])
    log_multinomial = log_factorial[synth_size] - log_factorial[histograms].sum(axis=1)
    for table in (histograms, answers, log_multinomial):
        table.setflags(write=False)
    return histograms, answers, log_multinomial
