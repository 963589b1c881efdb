"""Finite universes, concept classes, multi-hypothesis tables, multi-labeled
databases, and error functionals.

Everything here is desk-scale by design: universes are explicitly indexed
finite sets (|X| <= 2^20, bit-vector domains up to 20 bits), distributions are
exact pmf vectors, and errors are exact integer counts or exactly summed
masses. This keeps every downstream privacy and accuracy check exactly
computable. A set of k hypotheses is always a Hypotheses table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

from .mechanisms import pinned_bound

MAX_UNIVERSE_SIZE = 1 << 20
MAX_PARITY_BITS = 20
PMF_TOL = 1e-12

POINT = "point"
THRESH = "thresh"
PARITY = "parity"
ZERO = "zero"

CLASS_KINDS = (POINT, THRESH, PARITY)


class UniverseMismatchError(ValueError):
    """Operands were constructed over different universes."""


class EmptyDatabaseError(ValueError):
    """A database was given no rows; MultiLabeledDatabase refuses it."""


def _check_bit_width(bits: int) -> None:
    if not 1 <= bits <= MAX_PARITY_BITS:
        raise ValueError(f"bit_width must be in [1, {MAX_PARITY_BITS}], got {bits}")


@dataclass(frozen=True)
class Universe:
    """Finite domain {0, ..., size-1}; bit_width is set for bit-vector domains."""

    size: int
    bit_width: int | None = None

    def __post_init__(self):
        if self.bit_width is not None:
            _check_bit_width(self.bit_width)
        if not 2 <= self.size <= MAX_UNIVERSE_SIZE:
            raise ValueError(f"universe size must be in [2, {MAX_UNIVERSE_SIZE}], got {self.size}")
        if self.bit_width is not None and (1 << self.bit_width) != self.size:
            raise ValueError(f"size {self.size} does not match bit_width {self.bit_width}")

    @staticmethod
    def indexed(size: int) -> "Universe":
        return Universe(size)

    @staticmethod
    def bitvectors(bits: int) -> "Universe":
        _check_bit_width(bits)  # before 1 << bits, which a negative or huge width breaks
        return Universe(1 << bits, bit_width=bits)

    def elements(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)

    def require_same(self, other: "Universe"):
        if self != other:
            raise UniverseMismatchError(f"universe mismatch: {self} vs {other}")


def _parity_bits(values: np.ndarray) -> np.ndarray:
    """The parity (popcount mod 2) of each non-negative integer value, as uint8."""
    return (np.bitwise_count(values) & 1).astype(np.uint8)


def _word_count(k: int) -> int:
    """Words per row of k packed labels: max(1, ceil(k/64)), at least one so that a parity vote key is never empty."""
    return max(1, -(-k // 64))


def _pack_words(bits01: np.ndarray) -> np.ndarray:
    """0/1 array (..., k) -> uint64 words (..., _word_count(k)), bit j in bit j % 64 of word j // 64."""
    packed = np.packbits(bits01, axis=-1, bitorder="little")
    words = _word_count(bits01.shape[-1])
    padded = np.zeros(packed.shape[:-1] + (8 * words,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8")


def _unpack_words(words: np.ndarray, k: int) -> np.ndarray:
    """uint64 words (..., W) -> their first k bits as a C-ordered 0/1 uint8 array (..., k), k <= 64*W.

    The inverse of _pack_words on a (..., k) array.
    """
    return np.unpackbits(np.ascontiguousarray(words, dtype="<u8").view(np.uint8), axis=-1, count=k, bitorder="little")


def _tally(keys: np.ndarray, group: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of the (n, W) uint64 keys: each group's earliest row and its count.

    Groups rank by descending count, ties to the earliest row; with the int64
    group column they are (group, key row) pairs ranked within ascending group.
    One stable np.lexsort makes equal rows adjacent runs that open at their
    earliest row. group is compared apart from the keys, never stacked: numpy
    would promote int64 beside uint64 to float64, which merges words >= 2**53.
    """
    sort = np.lexsort([*keys.T] if group is None else [*keys.T, group])
    runs = keys[sort]
    change = (runs[1:] != runs[:-1]).any(axis=1)
    if group is not None:
        change |= np.diff(group[sort]) != 0
    # Run bounds, then the end; an empty input opens no run.
    bounds = np.flatnonzero(np.concatenate(([len(sort) > 0], change, [True])))
    first, counts = sort[bounds[:-1]], np.diff(bounds)
    order = np.lexsort((first, -counts) if group is None else (first, -counts, group[first]))
    return first[order], counts[order]


def _check_class(kind: str, universe: Universe) -> None:
    """Refuse a kind that is not a class kind, and parity over a universe that is not bit vectors."""
    if kind not in CLASS_KINDS:
        raise ValueError(f"unknown concept class {kind!r}")
    if kind == PARITY and universe.bit_width is None:
        raise ValueError("parity concepts require a bit-vector universe")


@dataclass(frozen=True)
class Concept:
    """One hypothesis: point (x == param), thresh (x <= param), parity (popcount(param & x) mod 2) or zero.

    Kept only for bench/tracer.py, which patches __post_init__; ROADMAP item 5 removes it with the bench change.
    """

    kind: str
    universe: Universe
    param: int | None = None

    def __post_init__(self):
        if self.kind == ZERO:
            if self.param is not None:
                raise ValueError("zero concept takes no parameter")
            return
        _check_class(self.kind, self.universe)
        if self.param is None:
            raise ValueError(f"{self.kind} concept requires a parameter")
        _checked_elements(self.universe, [self.param])


def _evaluate_params(kind: str, params: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The uint8 bits of one class's concepts with parameters params on elements
    xs, broadcast together (params[:, None] against 1-D xs gives the
    (len(params), len(xs)) table); param -1 is zero."""
    if kind == POINT:
        return (xs == params).astype(np.uint8)
    if kind == THRESH:
        return (xs <= params).astype(np.uint8)
    return _parity_bits(params & xs)


def _integer_array(values, what: str) -> np.ndarray:
    """values as a 1-D int64 array, not copied if it is one, from any integer dtype or a list; else ValueError."""
    raw = np.asarray(values)
    if raw.ndim != 1:
        raise ValueError(f"{what} must be a 1-D array, got shape {raw.shape}")
    if raw.size and raw.dtype.kind not in "iu":  # an empty list reads as float64
        raise ValueError(f"{what} must be integers, got dtype {raw.dtype}")
    return raw.astype(np.int64, copy=False)


def _checked_elements(universe: Universe, xs) -> np.ndarray:
    """The one check on arrays of elements: _integer_array(xs), every entry in [0, |X|) (a negative fails as uint64)."""
    xs = _integer_array(xs, "elements")
    if xs.size and np.maximum.reduce(xs.view(np.uint64)) >= universe.size:
        raise ValueError(f"element outside universe of size {universe.size}: got [{xs.min()}, {xs.max()}]")
    return xs


# Cells per block when a table is evaluated, so that a kernel's int64
# temporaries (512 KiB at most) stay the same size whatever k and n are.
EVAL_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, columns: int) -> Iterator[slice]:
    step = max(1, EVAL_BLOCK_CELLS // max(1, columns))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


# Hypotheses.label_words labels points through a table over the whole universe
# only while that table has at most this many uint64 cells (|X| * words, 512 KiB);
# above it, through rows of the sorted distinct parameters, which do not grow
# with |X|. Timed at n = 480 and 2726, k = 32, 256 and 2048, the universe table
# was the faster route up to 2^16 cells and lost from about 2^17.
LABEL_TABLE_CELLS = 1 << 16


@lru_cache(maxsize=13)
def _gray_walk(b: int) -> tuple[np.ndarray, np.ndarray]:
    """For i = 1..2^b - 1: the bit ctz(i) that Gray code i flips, and Gray code i = i ^ (i >> 1).

    label_words builds tables of b <= 12 bits, so every walk it uses stays cached (at most 64 KiB).
    """
    i = np.arange(1, 1 << b)
    flips, codes = np.frexp(i & -i)[1] - 1, i ^ (i >> 1)  # i & -i is 2^ctz(i)
    flips.setflags(write=False)
    codes.setflags(write=False)
    return flips, codes


def _xor_table(planes: np.ndarray) -> np.ndarray:
    """The (2^b, W) uint64 table whose row y XORs planes[i] over the set bits i of y, for b = len(planes).

    It is built in Gray-code order: Gray code i differs from Gray code i - 1 in
    bit ctz(i) alone, so the running XOR of planes[ctz(1..i)] is row Gray code i.
    """
    flips, codes = _gray_walk(len(planes))
    table = np.zeros((1 << len(planes), planes.shape[1]), dtype=np.uint64)
    table[codes] = np.bitwise_xor.accumulate(planes[flips], axis=0)
    return table


# Kept only for bench/tracer.py, which wraps it by name; ROADMAP item 5 removes it with the bench change.
def evaluate_many(concept: Concept, xs: np.ndarray) -> np.ndarray:
    """One Concept's uint8 bits on an int array of elements."""
    xs = _checked_elements(concept.universe, xs)
    kind, param = (POINT, -1) if concept.kind == ZERO else (concept.kind, concept.param)
    return _evaluate_params(kind, np.int64(param), xs)


@dataclass(frozen=True, eq=False)
class Hypotheses:
    """A multi-hypothesis (h_1, ..., h_k) from one concept class, as a parameter table.

    params[j] is h_j's parameter in the class `kind`; -1 is the constant-zero
    hypothesis, allowed for point and threshold kinds (x == -1 and x <= -1 hold
    nowhere). The constructor checks every parameter at once. evaluate(xs) is
    the (k, len(xs)) bit matrix of all k hypotheses, and label_words(xs) the
    same labels packed per example (label j in bit j % 64 of word j // 64),
    filled by a labeller per class without that matrix. It is the one form
    in which a set of hypotheses is passed around: learners release it,
    sample_database labels through its label_words, and dichotomy_projection
    returns its witnesses as one. A table has no indexing and compares by
    identity.
    """

    universe: Universe
    kind: str
    params: np.ndarray  # shape (k,), int64

    def __post_init__(self):
        _check_class(self.kind, self.universe)
        params = np.array(_integer_array(self.params, "hypothesis parameters"))  # a copy, made read-only below
        low = 0 if self.kind == PARITY else -1
        if params.size and (params.min() < low or params.max() >= self.universe.size):
            raise ValueError(
                f"{self.kind} parameters must be in [{low}, {self.universe.size}), "
                f"got [{params.min()}, {params.max()}]"
            )
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """The (k, len(xs)) uint8 matrix whose row j is h_j on the elements xs, as _checked_elements reads them.

        It is stored example-major (the transpose of a C-ordered (len(xs), k)
        array), so a reduction over the examples, such as .mean(axis=1),
        walks contiguous runs of k hypotheses instead of one short row each.
        It is filled a block of examples at a time (EVAL_BLOCK_CELLS cells),
        so the kernel's temporaries stay bounded whatever k and len(xs) are.
        It is the reference for label_words.
        """
        xs = _checked_elements(self.universe, xs)
        if len(xs) * len(self) <= EVAL_BLOCK_CELLS:  # one block: no buffer to copy through
            return _evaluate_params(self.kind, self.params, xs[:, None]).T
        out = np.empty((len(xs), len(self)), dtype=np.uint8)
        for block in _row_blocks(len(xs), len(self)):
            out[block] = _evaluate_params(self.kind, self.params, xs[block, None])
        return out.T

    def label_words(self, xs: np.ndarray) -> np.ndarray:
        """The labels of the elements xs, packed: _pack_words(self.evaluate(xs).T), bit for bit.

        Row i has shape max(1, ceil(k/64)) and dtype uint64, with h_j(xs[i]) in
        bit j % 64 of word j // 64. No (len(xs), k) matrix is built; each class
        has its own labeller:
          point   bit j is ORed into the row of params[j], and each x reads its
                  row. While |X| * words <= LABEL_TABLE_CELLS the rows span the
                  universe, plus a spare last row that param -1 lands in and no
                  x reads. Above it they are the sorted distinct params, and x
                  reads the row found by searchsorted only when it is that param.
          thresh  the rows of the sorted distinct params, suffix-ORed, so the
                  row of params[u] holds every h_j with params[j] >= params[u];
                  x reads the row at searchsorted(params, x) (an all-zero
                  spare row past the last param).
          parity  with M_b the packed bit b of every mask, x's word is the XOR
                  of M_b over the set bits b of x. One table per 12 bits of x
                  is built as a running XOR in Gray-code order (at most 4096
                  rows), and x's word XORs ceil(d/12) reads; for d <= 12
                  that is one table over the universe.
        """
        xs = _checked_elements(self.universe, xs)
        k = len(self)
        if self.kind == PARITY:
            planes = _pack_words(((self.params >> np.arange(self.universe.bit_width)[:, None]) & 1).astype(np.uint8))
            reads = (_xor_table(planes[lo : lo + 12])[(xs >> lo) & 0xFFF] for lo in range(0, len(planes), 12))
            return reduce(np.bitwise_xor, reads)
        j = np.arange(k)
        word, bit = j // 64, np.left_shift(np.uint64(1), (j % 64).astype(np.uint64))
        if self.kind == POINT and self.universe.size * _word_count(k) <= LABEL_TABLE_CELLS:
            table = np.zeros((self.universe.size + 1, _word_count(k)), dtype=np.uint64)
            np.bitwise_or.at(table, (self.params, word), bit)
            return table[xs]
        distinct, inverse = np.unique(self.params, return_inverse=True)
        rows = np.zeros((len(distinct) + 1, _word_count(k)), dtype=np.uint64)
        np.bitwise_or.at(rows, (inverse, word), bit)
        at = np.searchsorted(distinct, xs)
        if self.kind == THRESH:
            rows[:-1] = np.bitwise_or.accumulate(rows[-2::-1], axis=0)[::-1]
            return rows[at]
        words = rows[at]
        words[np.append(distinct, -1)[at] != xs] = 0
        return words

    def __len__(self) -> int:
        return self.params.shape[0]

    def __iter__(self) -> Iterator[Concept]:
        # Kept only for bench/workloads.py, which reads h.param; ROADMAP item 5 removes it with the bench change.
        return (
            Concept(ZERO, self.universe) if p < 0 else Concept(self.kind, self.universe, p)
            for p in self.params.tolist()
        )


@dataclass(frozen=True)
class ConceptClass:
    """One of the finite concept classes over a universe, in canonical order.

    Canonical order is ascending parameter; ties in downstream argmin/witness
    selection therefore resolve to the lowest parameter.
    """

    kind: str
    universe: Universe

    def __post_init__(self):
        _check_class(self.kind, self.universe)

    def __len__(self) -> int:
        return self.universe.size

    @property
    def vc_dim(self) -> int:
        if self.kind == PARITY:
            return self.universe.bit_width
        return 1

    def eval_matrix(self, xs: np.ndarray) -> np.ndarray:
        """The (|C|, len(xs)) uint8 matrix of every concept, in canonical order, on the elements xs."""
        return _evaluate_params(self.kind, self.universe.elements()[:, None], _checked_elements(self.universe, xs))

    def sums(self, v: np.ndarray) -> np.ndarray:
        """eval_matrix(universe.elements()) @ v in exact int64 for v of shape (|X|, ...), without the matrix.

        Row p sums v over the ones of concept p: for points v[p] itself, for
        thresholds the prefix sum up to p, and for parities (sum(v) - W(v)[p]) / 2,
        where the Walsh-Hadamard transform W(v)[a] = sum_x (-1)^popcount(a & x) v[x]
        is taken by in-place butterflies and W(v)[0] is sum(v).
        """
        v = np.asarray(v)
        if v.shape[:1] != (self.universe.size,):
            raise ValueError(f"expected {self.universe.size} rows, got shape {v.shape}")
        w = np.array(v, dtype=np.int64, order="C")  # a copy, worked in place
        if self.kind == THRESH:
            return np.cumsum(w, axis=0, out=w)
        if self.kind == POINT:
            return w
        h = 1
        while h < len(w):  # butterflies on bit h: (a, b) -> (a + b, a - b), as b = (a + b) - 2b
            pairs = w.reshape(len(w) // (2 * h), 2, h, *w.shape[1:])
            a, b = pairs[:, 0], pairs[:, 1]
            a += b
            b *= -2
            b += a
            h *= 2
        np.subtract(w[0].copy(), w, out=w)
        w //= 2
        return w


@dataclass(frozen=True, eq=False)
class MultiLabeledDatabase:
    """Rows (x, y_1..y_k) over a finite universe, the labels stored packed; k = 0 gives an unlabeled database.

    words is the one stored form of the labels: shape (n, max(1, ceil(k/64))),
    dtype uint64, label j of row i in bit j % 64 of words[i, j // 64] (the
    _pack_words layout), and no bit set at or above k; the database keeps a
    read-only copy of it. labels is the (n, k) uint8 view derived from words,
    unpacked on first access, cached and read-only, for callers that need 0/1
    columns. from_labels packs 0/1 labels once, and keeps a read-only copy of
    them as that view, since they are what words unpack to. A database has
    n >= 1 rows (EmptyDatabaseError otherwise) and compares by identity.
    """

    universe: Universe
    xs: np.ndarray     # shape (n,), int64
    words: np.ndarray  # shape (n, max(1, ceil(k/64))), uint64
    k: int

    def __post_init__(self):
        xs = _checked_elements(self.universe, self.xs)
        if not len(xs):
            raise EmptyDatabaseError("a database needs at least one row")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        words = np.array(self.words)  # a private copy, made read-only below
        shape = (xs.shape[0], _word_count(self.k))
        if words.dtype != np.uint64 or words.shape != shape:
            raise ValueError(f"words must be uint64 of shape {shape}, got {words.dtype} {words.shape}")
        used = self.k - 64 * (shape[1] - 1)  # labels held by the last word
        if used < 64 and int(words[:, -1].max()) >> used:
            raise ValueError(f"words set a label bit at or above k={self.k}")
        words.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "words", words)

    @staticmethod
    def from_labels(universe: Universe, xs: np.ndarray, labels: np.ndarray) -> "MultiLabeledDatabase":
        """The database of 0/1 labels (n, k), packed once into words; a copy of labels is its labels view."""
        labels = np.array(labels, dtype=np.uint8)
        if labels.ndim != 2 or labels.shape[:1] != np.shape(xs)[:1]:
            raise ValueError("labels must have shape (n, k)")
        if labels.size and labels.max() > 1:
            raise ValueError("labels must be bits")
        db = MultiLabeledDatabase(universe, xs, _pack_words(labels), labels.shape[1])
        labels.flags.writeable = False
        db.__dict__["labels"] = labels  # the cached_property's slot: what unpacking words would give
        return db

    @staticmethod
    def unlabeled(universe: Universe, xs: np.ndarray) -> "MultiLabeledDatabase":
        return MultiLabeledDatabase(universe, xs, np.zeros(np.shape(xs)[:1] + (1,), dtype=np.uint64), 0)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @cached_property
    def labels(self) -> np.ndarray:
        """The (n, k) uint8 labels, unpacked from words on first access; read-only."""
        labels = _unpack_words(self.words, self.k)
        labels.flags.writeable = False
        return labels


def _frozen_pmf(pmf, shape: tuple[int, ...], expected: str) -> np.ndarray:
    """A read-only float64 copy of pmf. It must have the given shape (named by expected), and its entries
    must be finite (NaN passes the next two tests), non-negative, and sum to 1."""
    pmf = np.array(pmf, dtype=np.float64)
    if pmf.shape != shape:
        raise ValueError(f"pmf shape {pmf.shape} does not match {expected}")
    if not np.isfinite(pmf).all():
        raise ValueError("pmf entries must be finite")
    if pmf.min() < 0:
        raise ValueError("pmf entries must be non-negative")
    if not _sums_to_one(pmf.ravel()):
        raise ValueError("pmf must sum to 1 within 1e-12")
    pmf.flags.writeable = False
    return pmf


_PMF_BLOCK = 4096
# gamma_(b-1) = (b-1)u / (1 - (b-1)u), u = 2^-53: a float sum of b non-negative entries, in any order,
# differs from their exact sum by at most gamma_(b-1) times it (Higham 2002, section 4.2).
_PMF_BLOCK_GAMMA = (_PMF_BLOCK - 1) * 2.0**-53 / (1 - (_PMF_BLOCK - 1) * 2.0**-53)


def _sums_to_one(flat: np.ndarray) -> bool:
    """Whether abs(math.fsum(flat) - 1) <= PMF_TOL, for finite non-negative entries, decided without that
    fsum unless the sum lies near the edge of the tolerance.

    Float sums of blocks of at most _PMF_BLOCK entries, added by fsum, give a
    total T with |T - S| <= (gamma + 2u) S for the exact sum S, and S <= 2T.
    fsum(flat) is S rounded, within u S of S, and near 1 its distance to 1 is
    exact (Sterbenz). So when |T - 1| is farther from PMF_TOL than
    slack = 2 (gamma + 3u) T, plus an absolute term for the rounding of slack
    itself, T decides as fsum would; otherwise fsum decides. A block sum past
    the largest float makes T and slack inf, so fsum decides there too.
    """
    with np.errstate(over="ignore"):
        blocks = np.add.reduceat(flat, np.arange(0, flat.size, _PMF_BLOCK))
    total = math.fsum(blocks.tolist())
    slack = 2 * (_PMF_BLOCK_GAMMA + 3 * 2.0**-53) * total + 2.0**-50
    miss = abs(total - 1.0)
    if miss + slack <= PMF_TOL:
        return True
    if miss - slack > PMF_TOL:
        return False
    return abs(math.fsum(flat.tolist()) - 1.0) <= PMF_TOL


def _guide_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """(cdf, lo, whether any bucket is mixed): the table that _table_sample describes, for probabilities p.

    cdf[j] * G is exact, so cdf[j] <= b/G exactly when ceil(cdf[j] * G) <= b, and
    one bincount of those ceilings counts lo[b] for every bucket b at once.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (p.size - 1).bit_length()
    scaled = cdf * buckets
    ceil = np.ceil(scaled).astype(np.intp)
    lo = np.bincount(ceil, minlength=buckets + 1)[:buckets].cumsum()
    mixed = ceil[ceil != scaled] - 1  # the bucket whose inside holds each non-integer scaled cdf value
    lo[mixed] = -1
    return cdf, lo, mixed.size > 0


def _table_sample(table: tuple[np.ndarray, np.ndarray, bool], n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. indices as an int64 array: the same draws, and the same RNG use, as
    `rng.choice(len(p), size=n, p=p)` for the p that _guide_table built the table from.

    `choice` takes u = rng.random(n) and returns cdf.searchsorted(u, side="right")
    with cdf = p.cumsum() / its last entry. The table splits [0, 1) into
    G = 2^ceil(log2 len(p)) equal buckets and stores lo[b] = #{j : cdf[j] <= b/G}
    for each bucket b, or -1 when some cdf value lies strictly inside
    (b/G, (b+1)/G) (a mixed bucket). G is a power of two, so u*G and every bucket
    edge are exact, and for u in a bucket with no cdf value inside,
    #{j : cdf[j] <= u} = lo[b]. A draw therefore reads lo[floor(u*G)], and only
    draws that land in mixed buckets fall back to choice's own search
    (Chen and Asau 1974; Devroye 1986, III.2.4).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cdf, lo, any_mixed = table
    u = rng.random(n)
    idx = lo[(u * lo.size).astype(np.intp)]
    if any_mixed:
        mixed = np.flatnonzero(idx < 0)
        idx[mixed] = cdf.searchsorted(u[mixed], side="right")
    return idx


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exact pmf over a finite universe; pmf is a read-only copy of the input. It compares by identity."""

    universe: Universe
    pmf: np.ndarray

    def __post_init__(self):
        size = self.universe.size
        object.__setattr__(self, "pmf", _frozen_pmf(self.pmf, (size,), f"universe size {size}"))

    @staticmethod
    def uniform(universe: Universe) -> "Distribution":
        return Distribution(universe, np.full(universe.size, 1.0 / universe.size))

    @staticmethod
    def point_mass(universe: Universe, x: int) -> "Distribution":
        pmf = np.zeros(universe.size)
        pmf[_checked_elements(universe, [x])] = 1.0
        return Distribution(universe, pmf)

    @staticmethod
    def from_weights(universe: Universe, weights: Sequence[float]) -> "Distribution":
        w = np.asarray(weights, dtype=np.float64)
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive total")
        if not math.isfinite(total):
            raise ValueError("weights must have a total below the largest float")
        return Distribution(universe, w / total)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, bool]:
        return _guide_table(self.pmf)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws as an int64 array: the same draws, and the same RNG use, as
        `rng.choice(|X|, size=n, p=pmf)`, through a guide table built on the first
        call and cached on the instance (see _table_sample)."""
        return _table_sample(self._table, n, rng)


# Kept only for bench/tracer.py, which wraps it by name; ROADMAP item 5 removes it with the bench change.
def generalization_error(dist: Distribution, c: Concept, h: Concept) -> float:
    """Mass of the disagreement set of c and h under dist, summed exactly."""
    dist.universe.require_same(c.universe)
    c.universe.require_same(h.universe)
    xs = dist.universe.elements()
    diff = evaluate_many(c, xs) != evaluate_many(h, xs)
    return math.fsum(dist.pmf[diff].tolist())


def generalization_errors(dist: Distribution, targets: Hypotheses, hyps: Hypotheses) -> list[float]:
    """The mass under dist of each (targets[j], hyps[j]) pair's disagreement set, summed exactly.

    A pair of one kind with equal parameters disagrees nowhere, so its error
    is 0.0 without evaluation. The other pairs are evaluated on dist's support
    only, a block of pairs at a time, with one fsum of disagreement mass per
    pair; zero-mass elements add nothing to an exact sum.
    """
    dist.universe.require_same(targets.universe)
    targets.universe.require_same(hyps.universe)
    if len(targets) != len(hyps):
        raise ValueError(f"{len(targets)} targets but {len(hyps)} hypotheses")
    support = np.flatnonzero(dist.pmf)
    mass = dist.pmf[support]
    pairs = np.arange(len(targets))
    if targets.kind == hyps.kind:
        pairs = pairs[targets.params != hyps.params]
    errors = [0.0] * len(targets)
    for block in _row_blocks(len(pairs), support.size):
        js = pairs[block]
        diff = _evaluate_params(targets.kind, targets.params[js, None], support) != _evaluate_params(
            hyps.kind, hyps.params[js, None], support
        )
        for j, row in zip(js.tolist(), diff):
            errors[j] = math.fsum(mass[row].tolist())
    return errors


@dataclass(frozen=True, eq=False)
class LabeledDistribution:
    """Joint pmf over (element, k-bit label vector); labels packed little-endian.

    pmf is a read-only copy of the input. It compares by identity.
    """

    universe: Universe
    k: int
    pmf: np.ndarray  # shape (|X|, 2^k)

    def __post_init__(self):
        object.__setattr__(self, "pmf", _frozen_pmf(self.pmf, (self.universe.size, 1 << self.k), "(|X|, 2^k)"))

    @staticmethod
    def from_label_probs(dist: Distribution, label_probs: np.ndarray) -> "LabeledDistribution":
        """Labels drawn independently per coordinate: label_probs[x, j] = P(y_j = 1 | x).

        At label_probs = targets.evaluate(dist.universe.elements()).T it is the realizable law of targets.
        """
        probs = np.asarray(label_probs, dtype=np.float64)
        k = probs.shape[1]
        # Doubling: after step j, cond[:, y] for y < 2^(j+1) is the product over labels i <= j of
        # P(y_i | x), multiplied left to right as a product over the k axis would be, so in the same bits.
        cond = np.ones((probs.shape[0], 1 << k))
        complement = 1.0 - probs
        for j in range(k):
            half = 1 << j
            np.multiply(cond[:, :half], probs[:, j : j + 1], out=cond[:, half : 2 * half])
            cond[:, :half] *= complement[:, j : j + 1]
        return LabeledDistribution(dist.universe, k, dist.pmf[:, None] * cond)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, bool]:
        return _guide_table(self.pmf.ravel() / self.pmf.sum())

    def sample(self, n: int, rng: np.random.Generator) -> MultiLabeledDatabase:
        """n i.i.d. rows: the same draws, and the same RNG use, as
        `rng.choice(pmf.size, size=n, p=pmf.ravel() / pmf.sum())` (see _table_sample)."""
        flat = _table_sample(self._table, n, rng)
        xs = (flat // self.pmf.shape[1]).astype(np.int64)
        words = (flat % self.pmf.shape[1]).astype(np.uint64)[:, None]  # the packed label vector itself
        return MultiLabeledDatabase(self.universe, xs, words, self.k)


def sample_database(
    dist: Distribution,
    targets: Hypotheses,
    n: int,
    rng: np.random.Generator,
) -> MultiLabeledDatabase:
    """Draw n >= 1 elements i.i.d. from dist; label j of each row is targets[j] on it, packed by targets.label_words."""
    dist.universe.require_same(targets.universe)
    xs = dist.sample(n, rng)
    return MultiLabeledDatabase(dist.universe, xs, targets.label_words(xs), len(targets))


def dichotomy_projection(cclass: ConceptClass, points: Sequence[int]) -> Hypotheses:
    """One witness per labeling of `points` that the class realizes, as a table.

    Each witness is the first concept in canonical (ascending-parameter) order
    realizing its labeling, and the witnesses are listed in ascending order,
    so the projection is reproducible; table.evaluate(points) gives their
    labelings. One _tally of the packed evaluation rows finds them.
    """
    first, _ = _tally(_pack_words(cclass.eval_matrix(points)))
    return Hypotheses(cclass.universe, cclass.kind, np.sort(first))


@pinned_bound
def vc_sample_size(vc: int, alpha: float, beta: float) -> int:
    """Realizable sample size from the standard VC bound: ceil((64/alpha) * (vc*ln(64/alpha) + ln(8/beta)))."""
    if vc < 1:
        raise ValueError("vc must be >= 1")
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha and beta must be in (0, 1)")
    return math.ceil((64.0 / alpha) * (vc * math.log(64.0 / alpha) + math.log(8.0 / beta)))


def save_database(db: MultiLabeledDatabase, path) -> None:
    """Write the fixture format: header `# universe=<size> k=<k>`, rows `x y1 .. yk`."""
    with open(path, "w") as fh:
        header = f"# universe={db.universe.size} k={db.k}"
        if db.universe.bit_width is not None:
            header += f" bits={db.universe.bit_width}"
        fh.write(header + "\n")
        for x, row in zip(db.xs, db.labels):
            fields = [str(int(x))] + [str(int(b)) for b in row]
            fh.write(" ".join(fields) + "\n")


def _file_field(path, lineno: int, name: str, text: str, high: int | None = None) -> int:
    """One integer field of a database file: at least 0, and below high if given."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {name}: cannot parse {text!r}") from None
    if value < 0 or (high is not None and value >= high):
        bound = ">= 0" if high is None else f"in [0, {high})"
        raise ValueError(f"{path}:{lineno}: {name}: must be {bound}, got {value}")
    return value


def load_database(path) -> MultiLabeledDatabase:
    """Parse the fixture format written by save_database.

    A value it cannot read raises ValueError naming `<path>:<line>` and the
    field: a header key, `x`, or label `y<j>` (from 1). A file with no rows
    raises ValueError naming `<path>`.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing header line")
        fields = {}
        for token in header[1:].split():
            key, eq, text = token.partition("=")
            if not eq:
                raise ValueError(f"{path}:1: expected key=value, got {token!r}")
            fields[key] = text
        for key in ("universe", "k"):
            if key not in fields:
                raise ValueError(f"{path}: header lacks {key}=<value>")
        size, k = (_file_field(path, 1, key, fields[key]) for key in ("universe", "k"))
        bits = _file_field(path, 1, "bits", fields["bits"]) if "bits" in fields else None
        try:
            universe = Universe(size, bit_width=bits)
        except ValueError as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        xs, labels = [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1 + k:
                raise ValueError(f"{path}:{lineno}: expected 1+{k} fields, got {len(parts)}")
            xs.append(_file_field(path, lineno, "x", parts[0], universe.size))
            labels.append([_file_field(path, lineno, f"y{j}", b, 2) for j, b in enumerate(parts[1:], start=1)])
    try:
        return MultiLabeledDatabase.from_labels(universe, xs, np.reshape(labels, (len(xs), k)))
    except EmptyDatabaseError as exc:
        raise ValueError(f"{path}: {exc}") from None
