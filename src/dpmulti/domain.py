"""Finite universes, concept classes, multi-hypothesis tables, multi-labeled
databases, and error functionals.

Everything here is desk-scale by design: universes are explicitly indexed
finite sets (|X| <= 2^20, bit-vector domains up to 20 bits), distributions are
exact pmf vectors, and counting errors are exact rationals. This keeps every
downstream privacy and accuracy check exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

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
    """Operation requires at least one database row."""


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

    def check_element(self, x: int):
        if not 0 <= int(x) < self.size:
            raise ValueError(f"element {x} outside universe of size {self.size}")

    def require_same(self, other: "Universe"):
        if self != other:
            raise UniverseMismatchError(f"universe mismatch: {self} vs {other}")


def _parity_bits(values: np.ndarray) -> np.ndarray:
    """The parity (popcount mod 2) of each non-negative integer value, as uint8."""
    return (np.bitwise_count(values) & 1).astype(np.uint8)


@dataclass(frozen=True)
class Concept:
    """A predicate over a universe: point, threshold, parity, or constant zero.

    point(p):  x == p
    thresh(p): x <= p
    parity(m): <m, x> mod 2 over the bit-vector reading of x
    zero:      identically 0 (improper hypothesis used by the point learner)
    """

    kind: str
    universe: Universe
    param: int | None = None

    def __post_init__(self):
        if self.kind in (POINT, THRESH):
            if self.param is None:
                raise ValueError(f"{self.kind} concept requires a parameter")
            self.universe.check_element(self.param)
        elif self.kind == PARITY:
            if self.universe.bit_width is None:
                raise ValueError("parity concepts require a bit-vector universe")
            if self.param is None or not 0 <= self.param < self.universe.size:
                raise ValueError(f"parity mask {self.param} outside {self.universe.size} masks")
        elif self.kind == ZERO:
            if self.param is not None:
                raise ValueError("zero concept takes no parameter")
        else:
            raise ValueError(f"unknown concept kind {self.kind!r}")

    def __call__(self, x: int) -> int:
        return evaluate(self, x)


def point(universe: Universe, p: int) -> Concept:
    return Concept(POINT, universe, p)


def thresh(universe: Universe, p: int) -> Concept:
    return Concept(THRESH, universe, p)


def parity(universe: Universe, mask: int) -> Concept:
    return Concept(PARITY, universe, mask)


def zero(universe: Universe) -> Concept:
    return Concept(ZERO, universe)


def evaluate(concept: Concept, x: int) -> int:
    """Evaluate a concept on one element, returning a 0/1 int."""
    concept.universe.check_element(x)
    x = int(x)
    if concept.kind == POINT:
        return int(x == concept.param)
    if concept.kind == THRESH:
        return int(x <= concept.param)
    if concept.kind == PARITY:
        return (concept.param & x).bit_count() & 1
    return 0


def _evaluate_params(kind: str, params: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The uint8 bits of one class's concepts with parameters params on elements
    xs, broadcast together (params[:, None] against 1-D xs gives the
    (len(params), len(xs)) table); param -1 is zero."""
    if kind == POINT:
        return (xs == params).astype(np.uint8)
    if kind == THRESH:
        return (xs <= params).astype(np.uint8)
    return _parity_bits(params & xs)


def _checked_elements(universe: Universe, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 0 or xs.max() >= universe.size):
        raise ValueError("element outside universe")
    return xs


def evaluate_many(concept: Concept, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over an int array; returns uint8 bits."""
    xs = _checked_elements(concept.universe, xs)
    kind, param = (POINT, -1) if concept.kind == ZERO else (concept.kind, concept.param)
    return _evaluate_params(kind, np.int64(param), xs)


@dataclass(frozen=True, eq=False)
class Hypotheses:
    """A multi-hypothesis (h_1, ..., h_k) from one concept class, as a parameter table.

    params[j] is h_j's parameter in the class `kind`; -1 is the constant-zero
    hypothesis, allowed for point and threshold kinds (x == -1 and x <= -1 hold
    nowhere). The constructor checks every parameter at once. evaluate(xs) is
    the (k, len(xs)) bit matrix of all k hypotheses. It is the one form in
    which k hypotheses or k labelling targets are passed around: learners
    release it, and sample_database and LabeledDistribution.realizable label
    with it. As a sequence the table yields Concepts, built on access, and it
    equals any table or Concept sequence holding the same Concepts.
    """

    universe: Universe
    kind: str
    params: np.ndarray  # shape (k,), int64

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown hypothesis kind {self.kind!r}")
        if self.kind == PARITY and self.universe.bit_width is None:
            raise ValueError("parity hypotheses require a bit-vector universe")
        raw = np.asarray(self.params)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise ValueError("hypothesis parameters must be a 1-D integer array")
        params = raw.astype(np.int64)
        low = 0 if self.kind == PARITY else -1
        if params.size and (params.min() < low or params.max() >= self.universe.size):
            raise ValueError(
                f"{self.kind} parameters must be in [{low}, {self.universe.size}), "
                f"got [{params.min()}, {params.max()}]"
            )
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """The (k, len(xs)) uint8 matrix whose row j is h_j on the 1-D element array xs.

        It is stored example-major (the transpose of a C-ordered (len(xs), k)
        array), so a reduction over the examples, such as .mean(axis=1),
        walks contiguous runs of k hypotheses instead of one short row each.
        """
        xs = _checked_elements(self.universe, xs)
        if xs.ndim != 1:
            raise ValueError(f"elements must be a 1-D array, got shape {xs.shape}")
        return _evaluate_params(self.kind, self.params, xs[:, None]).T

    def _concept(self, param: int) -> Concept:
        return Concept(ZERO, self.universe) if param < 0 else Concept(self.kind, self.universe, param)

    def __len__(self) -> int:
        return self.params.shape[0]

    def __getitem__(self, j: int) -> Concept:
        return self._concept(int(self.params[j]))

    def __iter__(self) -> Iterator[Concept]:
        return (self._concept(p) for p in self.params.tolist())

    def __eq__(self, other) -> bool:
        try:
            return tuple(self) == tuple(other)
        except TypeError:
            return NotImplemented


@dataclass(frozen=True)
class ConceptClass:
    """One of the finite concept classes over a universe, in canonical order.

    Canonical order is ascending parameter; ties in downstream argmin/witness
    selection therefore resolve to the lowest parameter.
    """

    kind: str
    universe: Universe

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown concept class {self.kind!r}")
        if self.kind == PARITY and self.universe.bit_width is None:
            raise ValueError("parity class requires a bit-vector universe")

    def __len__(self) -> int:
        return self.universe.size

    @property
    def vc_dim(self) -> int:
        if self.kind == PARITY:
            return self.universe.bit_width
        return 1

    def concept(self, param: int) -> Concept:
        return Concept(self.kind, self.universe, param)

    def concepts(self) -> Iterator[Concept]:
        for p in range(self.universe.size):
            yield Concept(self.kind, self.universe, p)

    def eval_matrix(self, xs: np.ndarray | None = None) -> np.ndarray:
        """Return the (|C| x len(xs)) 0/1 evaluation matrix in canonical order."""
        if xs is None:
            xs = self.universe.elements()
        return _evaluate_params(self.kind, self.universe.elements()[:, None], np.asarray(xs, dtype=np.int64))


def xor_eval_matrix(cclass: ConceptClass, xs: np.ndarray) -> np.ndarray:
    """Evaluation matrix of the pairwise-xor closure {f xor g}, deduplicated."""
    base = cclass.eval_matrix(xs)
    pairs = base[:, None, :] ^ base[None, :, :]
    flat = pairs.reshape(-1, pairs.shape[-1])
    return np.unique(flat, axis=0)


@dataclass(frozen=True)
class MultiLabeledDatabase:
    """Rows (x, y_1..y_k) over a finite universe; k = 0 gives an unlabeled database."""

    universe: Universe
    xs: np.ndarray      # shape (n,), int64
    labels: np.ndarray  # shape (n, k), uint8

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.uint8)
        if labels.ndim != 2 or labels.shape[0] != xs.shape[0]:
            raise ValueError("labels must have shape (n, k)")
        if xs.size and (xs.min() < 0 or xs.max() >= self.universe.size):
            raise ValueError("row element outside universe")
        if labels.size and labels.max() > 1:
            raise ValueError("labels must be bits")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def from_rows(universe: Universe, rows: Sequence[tuple[int, Sequence[int]]]) -> "MultiLabeledDatabase":
        xs = np.array([r[0] for r in rows], dtype=np.int64)
        labels = np.array([list(r[1]) for r in rows], dtype=np.uint8).reshape(len(rows), -1)
        return MultiLabeledDatabase(universe, xs, labels)

    @staticmethod
    def unlabeled(universe: Universe, xs: np.ndarray) -> "MultiLabeledDatabase":
        xs = np.asarray(xs, dtype=np.int64)
        return MultiLabeledDatabase(universe, xs, np.zeros((xs.shape[0], 0), dtype=np.uint8))

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def k(self) -> int:
        return self.labels.shape[1]


def empirical_error(db: MultiLabeledDatabase, j: int, h: Concept) -> Fraction:
    """Exact fraction of db's rows where h disagrees with label j."""
    if not 0 <= j < db.k:
        raise ValueError(f"label index {j} outside k={db.k}")
    if db.n == 0:
        raise EmptyDatabaseError("empirical error of an empty database")
    db.universe.require_same(h.universe)
    mismatches = int(np.count_nonzero(evaluate_many(h, db.xs) != db.labels[:, j]))
    return Fraction(mismatches, db.n)


def _check_pmf_entries(pmf: np.ndarray) -> None:
    """Reject entries that are not finite (NaN passes the next two tests), negative, or do not sum to 1."""
    if not np.isfinite(pmf).all():
        raise ValueError("pmf entries must be finite")
    if pmf.min() < 0:
        raise ValueError("pmf entries must be non-negative")
    if abs(math.fsum(pmf.ravel().tolist()) - 1.0) > PMF_TOL:
        raise ValueError("pmf must sum to 1 within 1e-12")


@dataclass(frozen=True)
class Distribution:
    """Exact pmf over a finite universe."""

    universe: Universe
    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != (self.universe.size,):
            raise ValueError(f"pmf shape {pmf.shape} does not match universe size {self.universe.size}")
        _check_pmf_entries(pmf)
        object.__setattr__(self, "pmf", pmf)

    @staticmethod
    def uniform(universe: Universe) -> "Distribution":
        return Distribution(universe, np.full(universe.size, 1.0 / universe.size))

    @staticmethod
    def point_mass(universe: Universe, x: int) -> "Distribution":
        universe.check_element(x)
        pmf = np.zeros(universe.size)
        pmf[x] = 1.0
        return Distribution(universe, pmf)

    @staticmethod
    def from_weights(universe: Universe, weights: Sequence[float]) -> "Distribution":
        w = np.asarray(weights, dtype=np.float64)
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive total")
        return Distribution(universe, w / total)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.universe.size, size=n, p=self.pmf).astype(np.int64)


def generalization_error(dist: Distribution, c: Concept, h: Concept) -> float:
    """Mass of the disagreement set of c and h under dist, summed exactly."""
    dist.universe.require_same(c.universe)
    c.universe.require_same(h.universe)
    xs = dist.universe.elements()
    diff = evaluate_many(c, xs) != evaluate_many(h, xs)
    return math.fsum(dist.pmf[diff].tolist())


# Cells per block when a table is evaluated, so that a kernel's int64
# temporaries (512 KiB at most) stay the same size whatever k and n are.
EVAL_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, columns: int) -> Iterator[slice]:
    step = max(1, EVAL_BLOCK_CELLS // max(1, columns))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def generalization_errors(dist: Distribution, targets: Hypotheses, hyps: Hypotheses) -> list[float]:
    """generalization_error of each (targets[j], hyps[j]) pair, bit for bit.

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


def _unpack_bits(values: np.ndarray, k: int) -> np.ndarray:
    """Decode ints into (n, k) bit arrays, bit j of value = label j."""
    return ((values[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)


def _label_rows(targets: Hypotheses, xs: np.ndarray) -> np.ndarray:
    """The (len(xs), k) uint8 labels of the elements xs under the k targets, a block of elements at a time."""
    xs = _checked_elements(targets.universe, xs)
    labels = np.empty((len(xs), len(targets)), dtype=np.uint8)
    for block in _row_blocks(len(xs), len(targets)):
        labels[block] = _evaluate_params(targets.kind, targets.params, xs[block, None])
    return labels


@dataclass(frozen=True)
class LabeledDistribution:
    """Joint pmf over (element, k-bit label vector); labels packed little-endian."""

    universe: Universe
    k: int
    pmf: np.ndarray  # shape (|X|, 2^k)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != (self.universe.size, 1 << self.k):
            raise ValueError(f"pmf shape {pmf.shape} does not match (|X|, 2^k)")
        _check_pmf_entries(pmf)
        object.__setattr__(self, "pmf", pmf)

    @staticmethod
    def realizable(dist: Distribution, targets: Hypotheses) -> "LabeledDistribution":
        """Every element labelled by the k targets, with dist's mass."""
        dist.universe.require_same(targets.universe)
        k = len(targets)
        xs = dist.universe.elements()
        codes = (_label_rows(targets, xs).astype(np.int64) << np.arange(k)).sum(axis=1)
        pmf = np.zeros((dist.universe.size, 1 << k))
        pmf[xs, codes] = dist.pmf
        return LabeledDistribution(dist.universe, k, pmf)

    @staticmethod
    def from_label_probs(dist: Distribution, label_probs: np.ndarray) -> "LabeledDistribution":
        """Labels drawn independently per coordinate: label_probs[x, j] = P(y_j = 1 | x)."""
        probs = np.asarray(label_probs, dtype=np.float64)
        k = probs.shape[1]
        codes = np.arange(1 << k)
        bits = _unpack_bits(codes, k)  # (2^k, k)
        cond = np.prod(np.where(bits[None, :, :] == 1, probs[:, None, :], 1.0 - probs[:, None, :]), axis=2)
        return LabeledDistribution(dist.universe, k, dist.pmf[:, None] * cond)

    def sample(self, n: int, rng: np.random.Generator) -> MultiLabeledDatabase:
        flat = rng.choice(self.pmf.size, size=n, p=self.pmf.ravel() / self.pmf.sum())
        xs = (flat // self.pmf.shape[1]).astype(np.int64)
        labels = _unpack_bits(flat % self.pmf.shape[1], self.k)
        return MultiLabeledDatabase(self.universe, xs, labels)

    def marginal_error(self, j: int, h: Concept) -> float:
        """P[h(x) != y_j] under the joint pmf."""
        if not 0 <= j < self.k:
            raise ValueError(f"label index {j} outside k={self.k}")
        self.universe.require_same(h.universe)
        codes = np.arange(1 << self.k)
        bit_j = ((codes >> j) & 1).astype(np.uint8)
        hx = evaluate_many(h, self.universe.elements())
        mism = hx[:, None] != bit_j[None, :]
        return math.fsum(self.pmf[mism].tolist())


def sample_database(
    dist: Distribution,
    targets: Hypotheses,
    n: int,
    rng: np.random.Generator,
) -> MultiLabeledDatabase:
    """Draw n elements i.i.d. from dist; label j of each row is targets[j] on it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dist.universe.require_same(targets.universe)
    xs = dist.sample(n, rng)
    return MultiLabeledDatabase(dist.universe, xs, _label_rows(targets, xs))


def dichotomy_projection(
    cclass: ConceptClass,
    points: Sequence[int],
) -> dict[tuple[int, ...], Concept]:
    """All labelings of `points` realized by the class, with one witness each.

    Witnesses are the first concept in canonical (ascending-parameter) order
    realizing each labeling, so the projection is reproducible.
    """
    xs = np.asarray(list(points), dtype=np.int64)
    if xs.size == 0:
        return {(): next(cclass.concepts())}
    matrix = cclass.eval_matrix(xs)
    out: dict[tuple[int, ...], Concept] = {}
    for p in range(matrix.shape[0]):
        key = tuple(int(b) for b in matrix[p])
        if key not in out:
            out[key] = cclass.concept(p)
    return out


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
    field: a header key, `x`, or label `y<j>` (from 1).
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
    return MultiLabeledDatabase(
        universe,
        np.array(xs, dtype=np.int64),
        np.array(labels, dtype=np.uint8).reshape(len(xs), k),
    )
