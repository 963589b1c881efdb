"""Multi-concept learners.

erm_multi             exact per-label empirical risk minimization (non-private)
direct_sum_learner    k independent runs of a single-concept base learner
generic_multi_learner one-time sanitization + per-label exponential mechanism
parity_learner        block-wise GF(2) solving + stable vote selection
point_learner         heavy-hitter discovery + stable label-vector selection
subsampled_learner    with-replacement subsampling wrapper

Learners do not enforce their sample-size bounds as hard errors; results carry
a below_sample_bound flag instead, so deliberately under-sampled experiments
(for scaling studies and lower-bound demos) still run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .domain import (
    PARITY,
    POINT,
    Concept,
    ConceptClass,
    EmptyDatabaseError,
    Hypotheses,
    MultiLabeledDatabase,
    dichotomy_projection,
)
from .mechanisms import (
    PrivacyLedger,
    PrivacyParams,
    ScoredCandidate,
    compose_advanced,
    compose_basic,
    exponential_mechanism,
    stable_argmax,
)
from .sanitize import answers_to_synthetic, point_sanitizer_rows, sanitize_exhaustive, sanitize_points

LearnerFn = Callable[[MultiLabeledDatabase, np.random.Generator], "LearnResult"]


@dataclass(frozen=True)
class LearnResult:
    """The released multi-hypothesis (None when selection aborted) plus the
    privacy charge schedule.

    hypotheses is always a Hypotheses table; a non-empty Concept sequence
    passed in is turned into one here, so a learner may release either.
    details carries learner-specific diagnostics (e.g. hypothesis-set sizes)
    for experiment reporting; it is not part of the privacy surface.
    """

    hypotheses: Hypotheses | None
    ledger: PrivacyLedger = field(default_factory=PrivacyLedger)
    below_sample_bound: bool = False
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.hypotheses is not None and not isinstance(self.hypotheses, Hypotheses):
            object.__setattr__(self, "hypotheses", Hypotheses.from_concepts(self.hypotheses))

    @property
    def failed(self) -> bool:
        return self.hypotheses is None


def erm_multi(db: MultiLabeledDatabase, cclass: ConceptClass) -> LearnResult:
    """Per-label empirical-error minimizer over a finite class, charging nothing.

    The objective separates per label, so each column is solved independently;
    ties break to the lowest concept parameter. The released table holds the
    argmin parameters as they are.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot minimize empirical error on an empty database")
    db.universe.require_same(cclass.universe)
    best = np.argmin(erm_mismatch_counts(db, cclass), axis=0)
    return LearnResult(Hypotheses(db.universe, cclass.kind, best))


def erm_mismatch_counts(db: MultiLabeledDatabase, cclass: ConceptClass) -> np.ndarray:
    """Mismatch-count matrix (|C|, k) underlying erm_multi; exposed for oracles."""
    evals = cclass.eval_matrix(db.xs).astype(np.int64)
    labels = db.labels.astype(np.int64)
    return evals @ (1 - labels) + (1 - evals) @ labels


def gf2_solve(bits: int, equations: Iterable[tuple[int, int]]) -> int | None:
    """Solve the systems <a_i, x_j> = bit j of b_i over GF(2) that share the rows a_i.

    Rows a_i are bitmasks (coordinate c = bit c); b_i packs one right-hand side
    per system, bit j for system j. The result packs system j's solution into
    bits [j*bits, (j+1)*bits), or is None when any system is inconsistent. With
    b_i in {0, 1} this is the single system <a_i, x> = b_i. One elimination
    serves every system: pivots and row operations depend only on the a_i.
    Free variables are fixed to 0, so each solution is deterministic.
    """
    rows = [int(a) | int(b) << bits for a, b in equations]
    pivot_cols: list[int] = []
    pos = 0
    for col in range(bits):
        bit = 1 << col
        pivot = next((r for r in range(pos, len(rows)) if rows[r] & bit), None)
        if pivot is None:
            continue
        prow = rows[pivot]
        rows[pivot] = rows[pos]
        rows = [r ^ prow if r & bit else r for r in rows]
        rows[pos] = prow
        pivot_cols.append(col)
        pos += 1
    # Rows past the pivots have no coefficients left; a right-hand bit set there reads 0 = 1.
    if any(rows[pos:]):
        return None
    solution = 0
    for row_idx, col in enumerate(pivot_cols):
        solution |= _spread(rows[row_idx] >> bits, bits) << col
    return solution


def _spread(x: int, stride: int) -> int:
    """Move bit j of x to bit j*stride."""
    return int(("0" * (stride - 1)).join(format(x, "b")), 2)


def _check_approx_dp(epsilon: float, delta: float, beta: float) -> None:
    """Reject the (epsilon, delta, beta) that an approximate-DP bound cannot take."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")


def parity_block_plan(bits: int, epsilon: float, beta: float, delta: float) -> tuple[int, int]:
    """Pinned block schedule: m = ceil(8/eps * ln(4/(beta*delta))) blocks of s = 4*bits rows."""
    _check_approx_dp(epsilon, delta, beta)
    m = math.ceil((8.0 / epsilon) * math.log(4.0 / (beta * delta)))
    return m, 4 * bits


def parity_learner(
    db: MultiLabeledDatabase,
    epsilon: float,
    delta: float,
    beta: float,
    rng: np.random.Generator,
) -> LearnResult:
    """Learn k parities exactly (under uniform examples) via block voting.

    The rows are split into m disjoint blocks; each block solves all k label
    columns with one GF(2) elimination carrying all k right-hand sides,
    contributing one candidate vector (or an abstention when some column is
    inconsistent). A single stable-selection step releases the most frequent
    vector, so the whole run costs (epsilon, delta) regardless of k.
    """
    universe = db.universe
    if universe.bit_width is None:
        raise ValueError("parity learner requires a bit-vector universe")
    if db.n == 0:
        raise EmptyDatabaseError("cannot learn from an empty database")
    bits = universe.bit_width
    k = db.k
    m, s_target = parity_block_plan(bits, epsilon, beta, delta)
    below = db.n < m * s_target
    s = max(1, db.n // m)
    m_eff = min(m, db.n // s)

    # Row i's k labels as one int, bit j = label j; a block's solution packs
    # its k masks the same way, so it is the vote key as it stands.
    used = m_eff * s
    xs = db.xs[:used].tolist()
    packed = np.packbits(db.labels[:used], axis=1, bitorder="little").tolist()
    rhs = [int.from_bytes(row, "little") for row in packed]
    votes: Counter[int] = Counter()
    first_seen: dict[int, int] = {}
    for t in range(m_eff):
        lo, hi = t * s, (t + 1) * s
        sol = gf2_solve(bits, zip(xs[lo:hi], rhs[lo:hi]))
        if sol is not None:
            votes[sol] += 1
            first_seen.setdefault(sol, t)

    best, best_count, second_count = _top_two_votes(votes, first_seen)
    choice = stable_argmax(
        ScoredCandidate(best, float(best_count)),
        ScoredCandidate("runner-up", float(second_count)),
        epsilon,
        delta,
        rng,
    )
    ledger = PrivacyLedger([PrivacyParams(epsilon, delta)])
    if choice is None:
        return LearnResult(None, ledger, below)
    full = (1 << bits) - 1
    masks = np.array([(best >> (j * bits)) & full for j in range(k)], dtype=np.int64)
    return LearnResult(Hypotheses(universe, PARITY, masks), ledger, below)


def _top_two_votes(votes: Counter, first_seen: dict) -> tuple[int, int, int]:
    """Top-2 multiplicities over the (implicit) full candidate space.

    Unseen vectors count 0, so an empty or single-entry tally still yields a
    well-defined runner-up score (and the all-zero vector, key 0, as leader).
    Ties break to the earliest-observed vector, which is deterministic and
    commutes with label-column permutations.
    """
    if not votes:
        return 0, 0, 0
    ordered = sorted(votes.items(), key=lambda item: (-item[1], first_seen[item[0]]))
    best, best_count = ordered[0]
    second_count = ordered[1][1] if len(ordered) > 1 else 0
    return best, best_count, second_count


def point_rows_bound(alpha: float, beta: float, delta: float, epsilon: float) -> int:
    """Pinned sample bound for the point learner: ceil(64/(alpha*eps) * ln(1/(alpha*beta*delta)))."""
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

    Half the budget sanitizes the element frequencies; elements whose released
    frequency reaches alpha/15 form the heavy set G (capped at floor(15/alpha)
    entries). The other half runs stable selection over per-heavy-element
    label vectors, maximizing the minimal count of any selected (x, vector)
    pair. Label j maps to the heavy element whose selected vector has bit j
    set (the lowest such element), else to the constant-zero hypothesis.
    The (x, vector) counts come from one array tally (_per_element_top_vectors)
    and the runner-up objective from the two smallest top counts, so there is
    no per-row Python work and the runner-up scan is O(|G|).
    `beta` only informs the sample-size advisory flag; epsilon, delta and beta
    are checked (ValueError) before any randomness is drawn.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot learn from an empty database")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    universe = db.universe
    k = db.k
    below = db.n < point_rows_bound(alpha, beta, delta, epsilon)
    ledger = PrivacyLedger([PrivacyParams(epsilon / 2, delta / 2), PrivacyParams(epsilon / 2, delta / 2)])

    answers = sanitize_points(db, alpha / 30.0, epsilon / 2.0, delta / 2.0, rng)
    heavy = [x for x in answers.support if answers.answers[x] >= alpha / 15.0]
    cap = int(15.0 / alpha)
    if len(heavy) > cap:
        heavy = sorted(heavy, key=lambda x: (-answers.answers[x], x))[:cap]
        heavy.sort()
    if not heavy:
        # No heavy elements: every selected vector is vacuously all-zero.
        return LearnResult(Hypotheses(universe, POINT, np.full(k, -1)), ledger, below)

    heavy = np.array(heavy, dtype=np.int64)
    top_count, top_vec, second_count = _per_element_top_vectors(db, heavy)
    best_q = int(top_count.min())
    # Runner-up objective value: any alternative selection downgrades at least
    # one element to (at best) its second-place vector count, and downgrading
    # exactly one element is optimal. Leaving x out of the minimum over top
    # counts gives the second smallest v1 when x holds the smallest v0, else v0.
    if len(heavy) > 1:
        v0, v1 = np.partition(top_count, 1)[:2]
        others = np.where(top_count == v0, v1, v0)
    else:
        others = top_count
    second_q = int(np.minimum(others, second_count).max())
    choice = stable_argmax(
        ScoredCandidate("selected", float(best_q)),
        ScoredCandidate("runner-up", float(second_q)),
        epsilon / 2.0,
        delta / 2.0,
        rng,
    )
    if choice is None:
        return LearnResult(None, ledger, below)
    # Label j goes to the first heavy element carrying bit j, else to zero (-1).
    params = np.where(top_vec.any(axis=0), heavy[top_vec.argmax(axis=0)], -1)
    return LearnResult(Hypotheses(universe, POINT, params), ledger, below)


def _per_element_top_vectors(
    db: MultiLabeledDatabase, heavy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per heavy element: top count, top label vector and runner-up count.

    heavy is a sorted int64 array of distinct elements; the results are
    int64[|G|], bool[|G|, k] and int64[|G|], aligned with it.
    Elements absent from the database get the all-zero vector with count 0.
    Top-vector ties break to the earliest row carrying the vector, which is
    deterministic and commutes with label-column permutations.

    Each row of a heavy element is keyed by its big-endian 8-byte x followed by
    its labels packed little-endian into bytes, so one np.unique tallies every
    (x, vector) pair and returns the first row carrying it.
    """
    top_count = np.zeros(len(heavy), dtype=np.int64)
    top_vec = np.zeros((len(heavy), db.k), dtype=bool)
    second_count = np.zeros(len(heavy), dtype=np.int64)
    rows = np.flatnonzero(np.isin(db.xs, heavy))
    if rows.size == 0:
        return top_count, top_vec, second_count
    packed = np.packbits(db.labels[rows], axis=1, bitorder="little")
    keys = np.concatenate([db.xs[rows].astype(">i8").view(np.uint8).reshape(-1, 8), packed], axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    group_x = db.xs[rows[first]]
    # Within each x run: descending count, then earliest first row.
    order = np.lexsort((first, -counts, group_x))
    first, counts, group_x = first[order], counts[order], group_x[order]
    same = group_x[1:] == group_x[:-1]
    head = np.flatnonzero(np.r_[True, ~same])
    slot = np.searchsorted(heavy, group_x[head])
    top_count[slot] = counts[head]
    top_vec[slot] = db.labels[rows[first[head]]].astype(bool)
    runner = np.r_[same, False][head]
    second_count[slot[runner]] = counts[head[runner] + 1]
    return top_count, top_vec, second_count


def generic_rows_bound(
    cclass: ConceptClass,
    k: int,
    alpha: float,
    beta: float,
    epsilon: float,
    epsilon_prime: float,
    delta: float,
) -> int:
    """Pinned (unit-constant) sample bound for the generic learner."""
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    vc = cclass.vc_dim
    select = (
        (vc / (alpha**3 * epsilon_prime)) * math.log(1.0 / alpha)
        + (1.0 / (alpha * epsilon_prime)) * math.log(k / beta)
        + (vc / alpha**2) * math.log(k / (alpha * beta))
    )
    if delta > 0:
        sanitizer = point_sanitizer_rows(alpha / 10.0, beta / 5.0, delta, epsilon)
    else:
        sanitizer = math.ceil(
            vc * math.log(cclass.universe.size) * math.log(2.0 / alpha) / (alpha**3 * epsilon)
        )
    return sanitizer + math.ceil(select)


def generic_privacy_total(
    k: int,
    epsilon: float,
    epsilon_prime: float,
    delta: float,
    mode: str = "basic",
) -> PrivacyParams:
    """Composed charge of one sanitization plus k exponential-mechanism selections."""
    sanitizer = PrivacyParams(epsilon, delta)
    selections = [PrivacyParams(epsilon_prime)] * k
    if mode == "basic":
        return compose_basic([sanitizer] + selections)
    if mode == "advanced":
        return compose_basic([sanitizer, compose_advanced(selections, delta)])
    raise ValueError(f"unknown composition mode {mode!r}")


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
    negative mismatch count. Charges (epsilon, delta) once plus k times
    (epsilon_prime, 0).

    sanitizer: "points" routes through the point-query sanitizer (point
    classes, approximate DP), "exhaustive" through the enumerative pure-DP
    sanitizer (synth_size caps its candidate databases at desk scale), "auto"
    picks by class.
    """
    if db.n == 0:
        raise EmptyDatabaseError("cannot learn from an empty database")
    db.universe.require_same(cclass.universe)
    if sanitizer == "auto":
        sanitizer = "points" if (cclass.kind == POINT and delta > 0) else "exhaustive"
    if sanitizer == "points":
        # Point-query error alpha/10 twice (release + reconstruction) bounds the
        # pairwise-xor query error by 2*(alpha/10 + alpha/10) = 2*alpha/5.
        answers = sanitize_points(db, alpha / 10.0, epsilon, delta, rng)
        synth = answers_to_synthetic(answers, alpha / 10.0)
    elif sanitizer == "exhaustive":
        synth = sanitize_exhaustive(db, (cclass, "xor"), alpha / 5.0, epsilon, rng, synth_size=synth_size)
    else:
        raise ValueError(f"unknown sanitizer {sanitizer!r}")

    support = synth.distinct_elements()
    witnesses = np.array([h.param for h in dichotomy_projection(cclass, support).values()], dtype=np.int64)
    labels = db.labels.astype(np.int64)
    evals = Hypotheses(db.universe, cclass.kind, witnesses).evaluate(db.xs).astype(np.int64)
    mismatches = evals @ (1 - labels) + (1 - evals) @ labels  # (|H|, k)

    chosen = [
        exponential_mechanism(-mismatches[:, j].astype(np.float64), epsilon_prime, 1.0, rng)
        for j in range(db.k)
    ]

    ledger = PrivacyLedger([PrivacyParams(epsilon, delta)])
    ledger.extend([PrivacyParams(epsilon_prime)] * db.k)
    below = db.n < generic_rows_bound(cclass, max(db.k, 1), alpha, beta, epsilon, epsilon_prime, delta)
    details = {"support_size": int(len(support)), "hypothesis_count": len(witnesses)}
    return LearnResult(Hypotheses(db.universe, cclass.kind, witnesses[chosen]), ledger, below, details)


def direct_sum_learner(
    base: LearnerFn,
    db: MultiLabeledDatabase,
    mode: str,
    rng: np.random.Generator,
    delta_prime: float | None = None,
) -> LearnResult:
    """Run a single-concept learner independently on each label column.

    All runs share the same rows. The result ledger concatenates the base
    charges; compose with basic_total() or advanced_total(delta_prime) to
    match the chosen accounting mode.
    """
    if mode not in ("basic", "advanced"):
        raise ValueError(f"unknown composition mode {mode!r}")
    if mode == "advanced" and delta_prime is None:
        raise ValueError("advanced mode requires delta_prime")
    hyps: list[Concept] = []
    ledger = PrivacyLedger()
    below = False
    for j in range(db.k):
        single = MultiLabeledDatabase(db.universe, db.xs, db.labels[:, j : j + 1])
        result = base(single, rng)
        ledger.extend(result.ledger.charges)
        below = below or result.below_sample_bound
        if result.failed:
            return LearnResult(None, ledger, below)
        hyps.append(result.hypotheses[0])
    return LearnResult(Hypotheses.from_concepts(hyps, db.universe), ledger, below)


def secrecy_amplification(
    epsilon: float,
    delta: float,
    total_rows: int,
    subsample_rows: int,
) -> tuple[float, float]:
    """Privacy charge of running an n-row mechanism on a with-replacement
    subsample of an m-row database, as stated: (6*eps*m/n, 4*exp(6*eps*m/n)*(m/n)*delta)."""
    if total_rows < 2 * subsample_rows:
        raise ValueError("amplification statement requires m >= 2n")
    ratio = total_rows / subsample_rows
    eps = 6.0 * epsilon * ratio
    return eps, 4.0 * math.exp(eps) * ratio * delta


def subsampled_learner(
    base: LearnerFn,
    subsample_rows: int,
    db: MultiLabeledDatabase,
    rng: np.random.Generator,
) -> LearnResult:
    """Run `base` on a uniform with-replacement subsample of the rows.

    Requires at least 9x the base sample size, turning a distributional
    learner into one accurate on the fixed input database. The returned ledger
    carries the base charges; see secrecy_amplification for the subsampling
    privacy arithmetic.
    """
    if db.n < 9 * subsample_rows:
        raise ValueError(f"need at least 9*{subsample_rows} rows, got {db.n}")
    idx = rng.integers(0, db.n, size=subsample_rows)
    sub = MultiLabeledDatabase(db.universe, db.xs[idx], db.labels[idx])
    return base(sub, rng)
