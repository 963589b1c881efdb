"""Fingerprinting codes and learner-driven tracing attacks.

The codebook is the classic stairstep construction (Boneh-Shaw style): for
each type t in 1..n-1, a column gives users 0..t-1 bit 1 and the rest 0; each
type is repeated k/(n-1) times and the columns are secretly permuted. Tracing
compares adjacent type blocks: only a coalition holding user u's codeword can
tell type-u columns from type-(u+1) columns, so a large statistic between
those blocks implicates user u.

The pirate adversary turns any multi-learner into a coalition strategy: a
coalition's codewords become the label columns of a database, the learner's
hypotheses are averaged over the example set, and the averages are rounded
back into a pirate word. An accurate learner therefore produces feasible,
traceable words, which is exactly what rules out its differential privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import PARITY, THRESH, ConceptClass, Hypotheses, MultiLabeledDatabase, Universe
from .learners import LearnerFn, erm_mismatch_counts
from .mechanisms import check_fraction, pinned_bound
from .rng import stream

# Each attack variant's concept class kind: the learners and the accuracy contract use it.
VARIANTS = {"pac": THRESH, "padded": THRESH, "parity": PARITY}

# Attack experiments are desk-scale: at most this many users.
MAX_USERS = 8


@dataclass(frozen=True)
class Codebook:
    """n x k bit matrix plus the secret column-type assignment shared with trace."""

    words: np.ndarray         # (n, k) uint8, row i = user i's codeword
    column_types: np.ndarray  # (k,) int64 in 1..n-1, secret
    security: float

    @property
    def n_users(self) -> int:
        return int(self.words.shape[0])

    @property
    def length(self) -> int:
        return int(self.words.shape[1])

    @property
    def block_size(self) -> int:
        return self.length // (self.n_users - 1)


@pinned_bound
def code_length(n_users: int, security: float) -> int:
    """Secure length ceil(2 n^3 ln(2n/security)), rounded up to a multiple of n-1."""
    raw = math.ceil(2 * n_users**3 * math.log(2 * n_users / security))
    blocks = n_users - 1
    return math.ceil(raw / blocks) * blocks


def gen_codebook(
    n_users: int,
    length: int,
    security: float,
    rng: np.random.Generator,
) -> Codebook:
    """Generate a codebook of `length` secretly permuted stairstep columns.

    Codes shorter than the secure bound of code_length are allowed, for
    structural tests and under-length attack experiments.
    """
    if n_users < 2:
        raise ValueError("need at least 2 users")
    check_fraction(security, "security")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if length % (n_users - 1) != 0:
        raise ValueError(f"length {length} not divisible by n-1 = {n_users - 1}")
    per_type = length // (n_users - 1)
    types = np.repeat(np.arange(1, n_users, dtype=np.int64), per_type)
    types = rng.permutation(types)
    users = np.arange(n_users, dtype=np.int64)
    words = (users[:, None] < types[None, :]).astype(np.uint8)
    return Codebook(words, types, security)


def feasible(word: np.ndarray, codebook: Codebook, coalition: Sequence[int]) -> bool:
    """Marking assumption: every position agrees with some coalition codeword."""
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (codebook.length,):
        raise ValueError(f"word length {word.shape} does not match code length {codebook.length}")
    members = np.asarray(sorted(set(int(i) for i in coalition)), dtype=np.int64)
    if members.size == 0:
        raise ValueError("coalition must be non-empty")
    rows = codebook.words[members]
    return bool((rows == word[None, :]).any(axis=0).all())


def accusation_threshold(codebook: Codebook) -> float:
    """Adjacent-block accusation cutoff sqrt(2 d ln(2n/security))."""
    d = codebook.block_size
    return math.sqrt(2.0 * d * math.log(2.0 * codebook.n_users / codebook.security))


def block_one_counts(word: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Ones the word places in each type block, with virtual blocks 0 and n.

    Index t holds the count for type-t columns; entry 0 is pinned to 0 and
    entry n to the block size d, the counts a word consistent with the
    (non-existent) all-zero and all-one column types would have.
    """
    word = np.asarray(word, dtype=np.int64)
    n = codebook.n_users
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[1:n] = np.bincount(codebook.column_types, weights=word, minlength=n)[1:n]
    counts[n] = codebook.block_size
    return counts


def trace_word(word: np.ndarray, codebook: Codebook) -> int | None:
    """Accuse the lowest user u whose adjacent blocks u and u+1 differ sharply.

    Returns the 0-based accused user, or None when no adjacent-block gap
    exceeds the accusation threshold.
    """
    counts = block_one_counts(word, codebook)
    gaps = np.abs(np.diff(counts))
    over = np.flatnonzero(gaps > accusation_threshold(codebook))
    return int(over[0]) if over.size else None


@dataclass(frozen=True)
class PirateResult:
    """A pirate word plus the artifacts needed to audit the trial.

    evals is the (k, rows) bit matrix of the hypotheses on the database's
    examples that the word was rounded from; it and hypotheses are None for a
    failed learner.
    """

    word: np.ndarray
    flagged: bool
    hypotheses: Hypotheses | None
    database: MultiLabeledDatabase
    evals: np.ndarray | None


def _attack_universe(variant: str, n_users: int) -> Universe:
    if VARIANTS[variant] == PARITY:
        return Universe.bitvectors(max(1, math.ceil(math.log2(n_users))))
    return Universe.indexed(n_users)


def pirate_word(
    learner: LearnerFn,
    codebook: Codebook,
    coalition: Sequence[int],
    variant: str,
    alpha: float,
    rng: np.random.Generator,
) -> PirateResult:
    """Run the learner on the coalition's codewords and round its hypotheses.

    Database rows are (x_i, w_i1..w_ik) for coalition members, with absent
    users replaced by all-zero-labeled nonce rows. Examples are x_i = i for
    threshold variants (the padded variant adds junk copies of the maximal
    element, where every realizable column concept evaluates 0) and the i-th
    bit string for the parity variant.

    All k hypotheses are evaluated on the database's examples as one (k, rows)
    bit matrix, and each row's average is rounded:
      pac     1 iff avg >= 1/2
      padded  1 iff avg >= 3*alpha/2 (midpoint of the accurate 0/1 gap)
      parity  0 if avg <= alpha, 1 if avg >= 1/2 - alpha, else 0 and flagged

    A failed learner yields a uniformly random feasible word, flagged.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n, k = codebook.n_users, codebook.length
    universe = _attack_universe(variant, n)
    members = sorted(set(int(i) for i in coalition))
    labels = np.zeros((n, k), dtype=np.uint8)
    labels[members] = codebook.words[members]
    xs = np.arange(n, dtype=np.int64)
    if variant == "padded":
        pad = max(0, math.ceil(n / (3.0 * alpha)) - n)
        junk = universe.size - 1
        xs = np.concatenate([xs, np.full(pad, junk, dtype=np.int64)])
        labels = np.concatenate([labels, np.zeros((pad, k), dtype=np.uint8)])
    db = MultiLabeledDatabase.from_labels(universe, xs, labels)

    result = learner(db, rng)
    if result.failed:
        picks = rng.integers(0, len(members), size=k)
        fallback = codebook.words[np.array(members)[picks], np.arange(k)]
        return PirateResult(fallback.astype(np.uint8), True, None, db, None)

    evals = result.hypotheses.evaluate(db.xs)
    averages = evals.mean(axis=1)
    flagged = False
    if variant == "pac":
        word = (averages >= 0.5).astype(np.uint8)
    elif variant == "padded":
        word = (averages >= 1.5 * alpha).astype(np.uint8)
    else:
        word = (averages >= 0.5 - alpha).astype(np.uint8)
        mid = (averages > alpha) & (averages < 0.5 - alpha)
        flagged = bool(mid.any())
    return PirateResult(word, flagged, result.hypotheses, db, evals)


@dataclass(frozen=True)
class AttackReport:
    """Per-trial completeness and soundness rows, and the rates drawn from them."""

    length: int
    rows: list[dict]
    soundness_rows: list[dict]

    @property
    def completeness_rate(self) -> float:
        """Accurate, feasible, traced plays among the unflagged completeness trials."""
        unflagged = [r for r in self.rows if not r["flagged"]]
        traced = sum(1 for r in unflagged if r["accurate"] and r["feasible"] and r["accused"] >= 0)
        return traced / len(unflagged) if unflagged else 0.0

    @property
    def soundness_violation_rate(self) -> float:
        return sum(r["violation"] for r in self.soundness_rows) / len(self.soundness_rows)

    @property
    def accuracy_rate(self) -> float:
        return sum(r["accurate"] for r in self.rows) / len(self.rows)

    @property
    def flagged_rate(self) -> float:
        return sum(r["flagged"] for r in self.rows) / len(self.rows)


def _contract_met(result: PirateResult, cclass: ConceptClass, alpha: float) -> bool:
    """Did the learner meet the agnostic alpha contract on the attack database?

    Each label's errors are counted from the play's own evaluation. The class
    minimum is never below 0 and dividing by n is monotone, so when every
    label has errors / n <= alpha the contract holds without computing it.
    """
    if result.evals is None:
        return False
    db = result.database
    errors = np.count_nonzero(result.evals != db.labels.T, axis=1)
    if (errors / db.n <= alpha).all():
        return True
    best = erm_mismatch_counts(db, cclass).min(axis=0)
    return bool(((errors - best) / db.n <= alpha).all())


def _play(
    learner: LearnerFn, n_users: int, length: int, security: float, coalition: Sequence[int], variant: str,
    alpha: float, rng: np.random.Generator,
) -> tuple[Codebook, PirateResult, int]:
    """One pirate game: a fresh codebook, the coalition's pirate word, and the accused user (-1 for no one)."""
    codebook = gen_codebook(n_users, length, security, rng)
    pirate = pirate_word(learner, codebook, coalition, variant, alpha, rng)
    accused = trace_word(pirate.word, codebook)
    return codebook, pirate, -1 if accused is None else accused


def attack_experiment(
    learner: LearnerFn,
    n_users: int,
    security: float,
    trials: int,
    variant: str,
    alpha: float,
    seed: int,
    length: int | None = None,
) -> AttackReport:
    """Seeded completeness and soundness trials of the tracing attack.

    Completeness runs use the full coalition; soundness runs remove user
    (trial mod n) and count accusations of the missing user. Flagged trials
    (fallback words or undefined-band roundings) are excluded from the
    completeness denominator and reported separately.
    """
    if n_users > MAX_USERS:
        raise ValueError(f"attack experiments are desk-scale: n_users <= {MAX_USERS}")
    if n_users < 2:
        raise ValueError(f"n_users must be >= 2, got {n_users}")
    check_fraction(security, "security (xi)")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    cclass = ConceptClass(VARIANTS[variant], _attack_universe(variant, n_users))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if length is None:
        length = code_length(n_users, security)
    full = list(range(n_users))
    rows: list[dict] = []
    soundness_rows: list[dict] = []
    for trial in range(trials):
        codebook, pirate, accused = _play(
            learner, n_users, length, security, full, variant, alpha, stream(seed, 0, trial)
        )
        rows.append(
            {
                "trial": trial,
                "feasible": int(feasible(pirate.word, codebook, full)),
                "accused": accused,
                "accurate": int(_contract_met(pirate, cclass, alpha)),
                "flagged": int(pirate.flagged),
            }
        )

        missing = trial % n_users
        coalition = [u for u in full if u != missing]
        _, _, accused = _play(learner, n_users, length, security, coalition, variant, alpha, stream(seed, 1, trial))
        soundness_rows.append(
            {"trial": trial, "missing": missing, "accused": accused, "violation": int(accused == missing)}
        )
    return AttackReport(length, rows, soundness_rows)
