"""Core randomized primitives: Laplace noise, the noisy threshold, the
exponential mechanism, stable selection of a maximizer (a one-value noisy
threshold), and (epsilon, delta) composition accounting.

Every mechanism has an exact-distribution companion so privacy and utility
claims can be checked against closed forms rather than sampled twice.
Logarithms in mechanism thresholds are natural logs throughout.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


def check_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Reject a privacy budget, or a noise scale, that is not a positive finite number, naming it.

    An infinite epsilon would make every noise scale 0 and every mechanism
    weight overflow, and it bounds nothing.
    """
    if not epsilon > 0:
        raise ValueError(f"{name} must be positive, got {epsilon}")
    if not math.isfinite(epsilon):
        raise ValueError(f"{name} must be finite, got {epsilon}")


def check_fraction(value: float, name: str) -> None:
    """Reject an accuracy, confidence or delta outside the open interval (0, 1), naming it."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def check_delta(delta: float, name: str = "delta") -> None:
    """Reject a delta outside [0, 1), naming it; 0 is pure differential privacy."""
    if not 0 <= delta < 1:
        raise ValueError(f"{name} must be in [0, 1), got {delta}")


def pinned_bound(bound: Callable[..., int]) -> Callable[..., int]:
    """Decorate a pinned bound so that arguments at which its float arithmetic leaves the finite floats
    (a power that overflows, a divisor that underflows to 0, a ceil of inf) are refused with a ValueError
    that names them, as invalid input rather than a runtime failure."""
    signature = inspect.signature(bound)

    @functools.wraps(bound)
    def guarded(*args, **kwargs):
        try:
            return bound(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            values = signature.bind(*args, **kwargs).arguments.items()
            named = ", ".join(f"{key} = {v}" for key, v in values if isinstance(v, (int, float)))
            raise ValueError(f"{bound.__name__} is not a finite number at {named}") from None

    return guarded


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential privacy guarantee."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        check_epsilon(self.epsilon)
        check_delta(self.delta)


@dataclass
class PrivacyLedger:
    """Accumulates (epsilon, delta) charges for later composition."""

    charges: list[PrivacyParams] = field(default_factory=list)

    def basic_total(self) -> PrivacyParams:
        return compose_basic(self.charges)


def compose_basic(charges: Sequence[PrivacyParams]) -> PrivacyParams:
    """Coordinate-wise sum: m runs of (eps_i, delta_i) cost (sum eps, sum delta).

    A sum epsilon past the largest float, or a sum delta that reaches 1, is
    refused by _composed.
    """
    return _composed(len(charges), lambda: math.fsum(c.epsilon for c in charges),
                     lambda: math.fsum(c.delta for c in charges))


def compose_basic_copies(charge: PrivacyParams, m: int) -> PrivacyParams:
    """compose_basic of m copies of charge, in closed form: (m eps, m delta).

    Each product is correctly rounded, as fsum's total of the m copies is, so
    the two agree at every count below 2^53; no list of charges is built.
    """
    return _composed(m, lambda: m * charge.epsilon, lambda: m * charge.delta)


def compose_advanced(charge: PrivacyParams, m: int, delta_prime: float) -> PrivacyParams:
    """Advanced composition of m copies of charge.

    eps' = sqrt(2 m ln(1/delta')) * eps + 2 m eps^2, delta' extra slack:
    total (eps', m delta + delta').
    """
    check_fraction(delta_prime, "delta_prime")
    return _composed(
        m,
        lambda: math.sqrt(2 * m * math.log(1 / delta_prime)) * charge.epsilon + 2 * m * charge.epsilon**2,
        lambda: m * charge.delta + delta_prime,
    )


def _composed(m: int, epsilon: Callable[[], float], delta: Callable[[], float]) -> PrivacyParams:
    """The total (epsilon(), delta()) of m >= 1 composed charges. An epsilon that overflows or passes the
    largest float, or a delta that reaches 1, is refused as the composed epsilon or delta of the m charges.
    delta() runs only once epsilon() is finite: a count too large for a float overflows epsilon's product
    first, so delta's (m * 0.0 included) never meets it."""
    if m < 1:
        raise ValueError(f"cannot compose {m} charges")
    try:
        eps = epsilon()
    except OverflowError:
        eps = math.inf
    check_epsilon(eps, f"the composed epsilon of {m} charges")
    total_delta = delta()
    check_delta(total_delta, f"the composed delta of {m} charges")
    return PrivacyParams(eps, total_delta)


def laplace_sample(scale: float, rng: np.random.Generator, size: int | None = None):
    """Draw Lap(scale) by inverting the CDF of a single uniform per sample.

    One RNG consumption per draw keeps replay deterministic under seeding.
    """
    check_epsilon(scale, "scale")
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def noisy_threshold(values: np.ndarray, scale: float, threshold: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Release each value whose noisy copy reaches the threshold: (released, noisy).

    noisy = values + Lap(scale), one uniform per value taken in order, and
    released = noisy >= threshold. If each value moves by at most Delta between
    neighbouring databases, each release decision is (Delta/scale, 0)-DP.
    """
    values = np.asarray(values, dtype=np.float64)
    noisy = values + laplace_sample(scale, rng, size=values.shape)
    return noisy >= threshold, noisy


def noisy_threshold_pmf(values: np.ndarray, scale: float, threshold: float) -> np.ndarray:
    """Exact P[release] of noisy_threshold per value: P[Lap(scale) >= threshold - v]."""
    check_epsilon(scale, "scale")
    t = (threshold - np.asarray(values, dtype=np.float64)) / scale
    half_tail = 0.5 * np.exp(-np.abs(t))
    return np.where(t >= 0, half_tail, 1.0 - half_tail)


def exponential_mechanism_pmf(scores: np.ndarray, epsilon: float, sensitivity: float) -> np.ndarray:
    """Exact output pmf: P[i] proportional to exp(epsilon * scores[i] / (2 sensitivity)).

    scores has shape (H,), or (k, H) for k selections over H candidates each,
    and the pmf has the same shape, one law per row along the last axis. Each
    row is held C-contiguous, so numpy runs the same exp and pairwise-sum
    kernels on it as on a 1-D array, and a row's pmf is bit for bit the 1-D
    pmf of that row. Scores are max-shifted per row before exponentiation;
    the shift cancels in the normalization, so the pmf is unchanged and
    overflow-free. Scores must be finite, and an epsilon at which a logit
    overflows is refused.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2) or scores.shape[-1] == 0:
        raise ValueError(f"scores must be a 1-D or 2-D array with a non-empty last axis, got shape {scores.shape}")
    scores = np.ascontiguousarray(scores)
    peak = float(np.abs(scores).max(initial=0.0))  # nan or inf when some score is not finite
    if not math.isfinite(peak):
        raise ValueError(f"candidate score must be finite, got {scores[~np.isfinite(scores)][0]}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    # The largest |logit|, in the logits' own float operations: when it is finite, no logit overflows.
    if not math.isfinite(epsilon * peak / (2.0 * sensitivity)):
        raise ValueError(f"epsilon = {epsilon} overflows a logit epsilon * score / (2 sensitivity)")
    logits = epsilon * scores / (2.0 * sensitivity)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def exponential_mechanism(
    scores: np.ndarray, epsilon: float, sensitivity: float, rng: np.random.Generator
) -> int | np.ndarray:
    """Sample an index i with probability proportional to exp(eps*scores[i]/2s).

    Scores of shape (H,) draw one uniform from rng and return an int. Scores
    of shape (k, H) make k independent selections, one per row: they draw
    rng.random(k), the same uniforms in the same order as k calls on the
    rows, and return the k indices as an int array. Each index is the count
    of the row's cdf entries <= its uniform, capped at H - 1: that is
    searchsorted(side="right") on the non-decreasing cumsum of the pmf, and
    counting over the first H - 1 cdf entries alone applies the cap.
    """
    pmf = exponential_mechanism_pmf(scores, epsilon, sensitivity)
    cdf = np.cumsum(pmf[..., :-1], axis=-1)
    u = rng.random(pmf.shape[:-1])
    picks = (cdf <= u[..., None]).sum(axis=-1)
    return int(picks) if pmf.ndim == 1 else picks


def _check_stable(gap: float, epsilon: float, delta: float) -> None:
    """The arguments stable_argmax and its oracle share, each named when bad."""
    if not (gap >= 0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and non-negative, got {gap}")
    check_epsilon(epsilon)
    check_fraction(delta, "delta")


def stable_argmax(gap: float, epsilon: float, delta: float, rng: np.random.Generator) -> int | None:
    """Release the argmax only when its lead `gap` over the runner-up is noisily large.

    One noisy_threshold of the gap: 0, the leader's index, when gap +
    Lap(1/epsilon) >= ln(1/delta)/epsilon, else None (bottom); the runner-up is
    never released. Satisfies (epsilon, delta)-DP for sensitivity-1 scores.
    """
    _check_stable(gap, epsilon, delta)
    released, _ = noisy_threshold([gap], 1.0 / epsilon, math.log(1.0 / delta) / epsilon, rng)
    return 0 if released[0] else None


def stable_argmax_pmf(gap: float, epsilon: float, delta: float) -> tuple[float, float]:
    """Exact (P[release argmax], P[bottom]) of stable_argmax at the given gap."""
    _check_stable(gap, epsilon, delta)
    p_top = float(noisy_threshold_pmf([gap], 1.0 / epsilon, math.log(1.0 / delta) / epsilon)[0])
    return p_top, 1.0 - p_top


def dp_bound_holds(
    pmf_p: np.ndarray,
    pmf_q: np.ndarray,
    epsilon: float,
    delta: float,
    tol: float = 1e-9,
) -> bool:
    """Check P[T] <= e^eps Q[T] + delta for every outcome set T.

    It suffices to check the maximizing set T* = {o : p(o) > e^eps q(o)};
    tol absorbs float rounding in the exactly computed pmfs.
    """
    p = np.asarray(pmf_p, dtype=np.float64)
    q = np.asarray(pmf_q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"outcome sets differ: {p.shape} vs {q.shape}")
    excess = p - math.exp(epsilon) * q
    worst = excess[excess > 0].sum()
    return bool(worst <= delta + tol)
