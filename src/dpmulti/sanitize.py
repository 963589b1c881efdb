"""Differentially private synthetic-data release for counting queries.

Two sanitizers are provided:

* sanitize_points: noisy thresholded release of every point-function count,
  plus a reconstruction of the answers into a small synthetic database.
* sanitize_exhaustive: the exponential mechanism over every candidate
  synthetic database of a fixed size, scored by worst-case query error.
  Each distinct histogram is scored once and the sample is drawn over
  ordered tuples. Exact and exhaustive by design; guarded by an
  enumeration budget. The candidate enumeration depends only on (|X|, m),
  not on the data, so it is built once per pair and cached; at the default
  budget the cache holds under 88 MiB (see _candidate_enumeration).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import ConceptClass, EmptyDatabaseError, MultiLabeledDatabase, Universe, xor_eval_matrix
from .mechanisms import exponential_mechanism, exponential_mechanism_pmf, laplace_sample

# Rows of a synthetic database holding residual mass; outside the universe,
# so every counting query evaluates to 0 on them.
SINK = -1


class EnumerationBudgetError(RuntimeError):
    """Candidate count exceeds the configured exhaustive-enumeration budget."""


@dataclass(frozen=True)
class SanitizedAnswers:
    """Sparse map x -> a_x in [0, 1]; absent elements answered 0."""

    universe: Universe
    answers: dict[int, float]

    def answer(self, x: int) -> float:
        self.universe.check_element(x)
        return self.answers.get(int(x), 0.0)

    @property
    def support(self) -> list[int]:
        return sorted(self.answers)

    def as_vector(self) -> np.ndarray:
        vec = np.zeros(self.universe.size)
        for x, a in self.answers.items():
            vec[x] = a
        return vec


@dataclass(frozen=True)
class SyntheticDatabase:
    """Unlabeled synthetic rows; sink_rows carry mass no real element should."""

    universe: Universe
    elements: np.ndarray  # real rows, int64
    sink_rows: int = 0

    def __post_init__(self):
        elements = np.asarray(self.elements, dtype=np.int64)
        if self.sink_rows < 0:
            raise ValueError("sink_rows must be non-negative")
        if elements.shape[0] + self.sink_rows < 1:
            raise ValueError("synthetic database must be non-empty")
        if elements.size and (elements.min() < 0 or elements.max() >= self.universe.size):
            raise ValueError("synthetic element outside universe")
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return int(self.elements.shape[0]) + self.sink_rows

    def frequency(self, x: int) -> float:
        self.universe.check_element(x)
        return float(np.count_nonzero(self.elements == x)) / self.size

    def distinct_elements(self) -> np.ndarray:
        return np.unique(self.elements)


def point_sanitizer_min_rows(alpha: float, epsilon: float, delta: float) -> int:
    """Rows needed for the release-0 tail in the crossing case to sit within delta/2.

    Solving exp(-eps*n*alpha/8 + eps/2) <= delta gives
    n >= 4/alpha + (8 / (eps*alpha)) ln(1/delta).
    """
    return math.ceil(4.0 / alpha + (8.0 / (epsilon * alpha)) * math.log(1.0 / delta))


def point_sanitizer_rows(alpha: float, beta: float, delta: float, epsilon: float) -> int:
    """Pinned sample-size bound for the point sanitizer: ceil(8 ln(16/(a*b*d)) / (a*eps))."""
    return math.ceil(8.0 * math.log(16.0 / (alpha * beta * delta)) / (alpha * epsilon))


def sanitize_points(
    db: MultiLabeledDatabase,
    alpha: float,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> SanitizedAnswers:
    """Release an approximate answer for every point-function counting query.

    For each x: counts at or below alpha/4 release 0 outright; otherwise the
    count gets Lap(2/(eps*n)) noise and is released only if the noisy value
    exceeds alpha/2 (else 0). Released answers are clamped to [0, 1], which is
    post-processing and privacy-neutral. Costs (epsilon, delta); delta is the
    accounting share of the deterministic release-0 branch, not a noise knob.
    Callers are responsible for supplying enough rows (see
    point_sanitizer_rows); the bound is deliberately not enforced here.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot sanitize an empty database")
    for name, value in (("alpha", alpha), ("delta", delta)):
        if not 0 < value < 1:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = db.n
    counts = np.bincount(db.xs, minlength=db.universe.size)
    answers: dict[int, float] = {}
    for x in np.flatnonzero(counts):
        frac = counts[x] / n
        if frac <= alpha / 4.0:
            continue
        noisy = frac + float(laplace_sample(2.0 / (epsilon * n), rng))
        if noisy <= alpha / 2.0:
            continue
        answers[int(x)] = min(max(noisy, 0.0), 1.0)
    return SanitizedAnswers(db.universe, answers)


def answers_to_synthetic(ans: SanitizedAnswers, alpha: float) -> SyntheticDatabase:
    """Reconstruct a small database whose point counts track the answers.

    Each answer is rounded down to a multiple of 1/m with
    m = ceil(1/alpha) + |support|, and residual mass goes to sink rows, so
    max_x |freq(x) - a_x| <= alpha whenever the answers carry total mass <= 1.
    Answer maps with mass > 1 are not representable as frequencies; the
    database then grows past m and the bound degrades gracefully.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    support = ans.support
    m = math.ceil(1.0 / alpha) + len(support)
    rows: list[int] = []
    for x in support:
        rows.extend([x] * int(ans.answers[x] * m))
    sink = max(0, m - len(rows))
    return SyntheticDatabase(ans.universe, np.array(rows, dtype=np.int64), sink_rows=sink)


def _query_matrix(query_class: ConceptClass | tuple[ConceptClass, str], xs: np.ndarray) -> np.ndarray:
    """Evaluation matrix for a class or its pairwise-xor closure ("xor" tag)."""
    if isinstance(query_class, tuple):
        cclass, tag = query_class
        if tag != "xor":
            raise ValueError(f"unknown query-class tag {tag!r}")
        return xor_eval_matrix(cclass, xs)
    return query_class.eval_matrix(xs)


def _query_answers(query_matrix_full: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    return (query_matrix_full @ counts.astype(np.float64)) / total


def sanitize_error(
    db: MultiLabeledDatabase,
    synth: SyntheticDatabase,
    query_class: ConceptClass | tuple[ConceptClass, str],
) -> float:
    """Worst query-answer gap max_c |c(D) - c(D_hat)|, by enumeration."""
    db.universe.require_same(synth.universe)
    full = _query_matrix(query_class, db.universe.elements())
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
    budget: int = 1 << 20,
) -> SyntheticDatabase:
    """Pure-DP sanitizer: exponential mechanism over all size-m databases.

    Candidates are the |X|^m ordered element tuples; the score of a candidate
    is -n * max_c |c(D) - c(candidate)|, sensitivity 1. A score depends only
    on the tuple's histogram, so each histogram is scored once, but the
    sample is drawn over ordered tuples. Exact but exponential, so the
    candidate count is capped by `budget`.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot sanitize an empty database")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    size = db.universe.size
    if synth_size is None:
        cclass = query_class[0] if isinstance(query_class, tuple) else query_class
        synth_size = max(1, math.ceil(cclass.vc_dim * math.log(2.0 / min(alpha, 1.0)) / alpha**2))
    if synth_size < 1:
        raise ValueError(f"synth_size must be >= 1, got {synth_size}")
    # 2^m > budget already settles it, without computing a huge |X|^m.
    if size > 1 and (synth_size >= budget.bit_length() or size**synth_size > budget):
        raise EnumerationBudgetError(
            f"|X|^m = {size}^{synth_size} exceeds budget {budget}; "
            "for point queries use sanitize_points instead"
        )
    scores, tuples = _exhaustive_candidates(db, query_class, synth_size)
    idx = exponential_mechanism(scores, epsilon, 1.0, rng)
    return SyntheticDatabase(db.universe, tuples[idx])


def _exhaustive_candidates(db, query_class, synth_size):
    """Score every candidate tuple; shared by the sampler and its exact oracle.

    Returns (scores, tuples): tuples is the read-only (|X|^m, m) array of
    candidate tuples in itertools.product order, and scores[i] is the score
    of row i. Each distinct histogram is scored once and every tuple then
    takes its histogram's score. The enumeration is data-independent and
    comes from the per-(|X|, m) cache of _candidate_enumeration; only the
    target answers and the histogram scores are computed per call.
    """
    size = db.universe.size
    tuples, inverse, count_cells = _candidate_enumeration(size, synth_size)
    full = _query_matrix(query_class, db.universe.elements())
    target = _query_answers(full, np.bincount(db.xs, minlength=size), db.n)
    counts = np.bincount(count_cells, minlength=size * (len(count_cells) // synth_size)).reshape(size, -1)
    answers = _query_answers(full, counts, synth_size)  # (queries, histograms)
    scores = -db.n * np.abs(answers - target[:, None]).max(axis=0)
    return scores.take(inverse), tuples


@functools.lru_cache(maxsize=4)
def _candidate_enumeration(size: int, synth_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data-independent part of the exhaustive sanitizer, cached per (|X|, m).

    Returns read-only (tuples, inverse, count_cells) for the H distinct
    histograms of the candidates: tuples is the (|X|^m, m) array of candidate
    tuples in itertools.product order; inverse[i] is the histogram index of
    tuple i, in the smallest unsigned dtype that holds it; count_cells is
    the (|X|, H) histogram-count matrix in sparse form, the flat index of
    each of its m unit increments per column, so that np.bincount over it
    rebuilds the matrix. A tuple's histogram is named by its sorted copy,
    read as a base-|X| code (below |X|^m, so it fits int64 and indexes the
    tuples themselves).

    Memory: under the default budget |X|^m <= 2^20, an entry holds under
    22 MiB (the most is at |X| = 2, m = 20: 20 MiB of tuples, 1 MiB of
    inverse), so the four cached entries hold under 88 MiB. The dense count
    matrix is not cached: at m = 1 and |X| = 2^20 it would take 8 TiB.
    """
    digits = np.indices((size,) * synth_size, dtype=np.min_scalar_type(size - 1)).reshape(synth_size, -1)
    # Odd-even transposition sort of every tuple's digits at once: m passes.
    ordered = list(digits)
    for step in range(synth_size):
        for j in range(step % 2, synth_size - 1, 2):
            lo, hi = ordered[j], ordered[j + 1]
            ordered[j], ordered[j + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    keys = np.zeros(digits.shape[1], dtype=np.int64)
    for column in ordered:
        keys = keys * size + column
    is_key = np.zeros(digits.shape[1], dtype=bool)
    is_key[keys] = True
    hist_codes = np.flatnonzero(is_key)  # one sorted tuple per histogram
    inverse = (np.cumsum(is_key)[keys] - 1).astype(np.min_scalar_type(len(hist_codes) - 1))
    count_cells = (digits[:, hist_codes].astype(np.int64) * len(hist_codes) + np.arange(len(hist_codes))).ravel()
    tuples = digits.T
    for array in (tuples, inverse, count_cells):
        array.setflags(write=False)
    return tuples, inverse, count_cells


def sanitize_exhaustive_pmf(
    db: MultiLabeledDatabase,
    query_class: ConceptClass | tuple[ConceptClass, str],
    epsilon: float,
    synth_size: int,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Exact output distribution of sanitize_exhaustive over candidate tuples."""
    scores, tuples = _exhaustive_candidates(db, query_class, synth_size)
    return exponential_mechanism_pmf(scores, epsilon, 1.0), [tuple(t) for t in tuples.tolist()]
