"""Core randomized primitives: Laplace noise, the exponential mechanism,
stable selection of a maximizer, and (epsilon, delta) composition accounting.

Every mechanism has an exact-distribution companion so privacy and utility
claims can be checked against closed forms rather than sampled twice.
Logarithms in mechanism thresholds are natural logs throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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
    """Coordinate-wise sum: m runs of (eps_i, delta_i) cost (sum eps, sum delta)."""
    if not charges:
        raise ValueError("cannot compose an empty ledger")
    eps = math.fsum(c.epsilon for c in charges)
    delta = math.fsum(c.delta for c in charges)
    return PrivacyParams(eps, delta)


def compose_advanced(charges: Sequence[PrivacyParams], delta_prime: float) -> PrivacyParams:
    """Advanced composition of m identical (eps, delta) charges.

    eps' = sqrt(2 m ln(1/delta')) * eps + 2 m eps^2, delta' extra slack:
    total (eps', m delta + delta'). Requires homogeneous charges.
    """
    if not charges:
        raise ValueError("cannot compose an empty ledger")
    check_fraction(delta_prime, "delta_prime")
    first = charges[0]
    if any(c != first for c in charges[1:]):
        raise ValueError("advanced composition requires identical charges")
    m = len(charges)
    eps = math.sqrt(2 * m * math.log(1 / delta_prime)) * first.epsilon + 2 * m * first.epsilon**2
    return PrivacyParams(eps, m * first.delta + delta_prime)


def laplace_sample(scale: float, rng: np.random.Generator, size: int | None = None):
    """Draw Lap(scale) by inverting the CDF of a single uniform per sample.

    One RNG consumption per draw keeps replay deterministic under seeding.
    """
    check_epsilon(scale, "scale")
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_sf(t: float, scale: float) -> float:
    """P[Lap(scale) >= t], exact."""
    if t >= 0:
        return 0.5 * math.exp(-t / scale)
    return 1.0 - 0.5 * math.exp(t / scale)


def _score_array(scores: np.ndarray) -> np.ndarray:
    """Scores as a 1-D float64 array, checked non-empty and finite."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    bad = scores[~np.isfinite(scores)]
    if bad.size:
        raise ValueError(f"candidate score must be finite, got {bad[0]}")
    return scores


def exponential_mechanism_pmf(scores: np.ndarray, epsilon: float, sensitivity: float) -> np.ndarray:
    """Exact output pmf: P[i] proportional to exp(epsilon * scores[i] / (2 sensitivity)).

    Scores are max-shifted before exponentiation; the shift cancels in the
    normalization, so the pmf is unchanged and overflow-free.
    """
    scores = _score_array(scores)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    logits = epsilon * scores / (2.0 * sensitivity)
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def exponential_mechanism(
    scores: np.ndarray, epsilon: float, sensitivity: float, rng: np.random.Generator
) -> int:
    """Sample an index i with probability proportional to exp(eps*scores[i]/2s).

    Draws one uniform from rng.
    """
    pmf = exponential_mechanism_pmf(scores, epsilon, sensitivity)
    idx = int(np.searchsorted(np.cumsum(pmf), rng.random(), side="right"))
    return min(idx, len(pmf) - 1)


def _check_stable(gap: float, epsilon: float, delta: float) -> None:
    """The arguments stable_argmax and its oracle share, each named when bad."""
    if not (gap >= 0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and non-negative, got {gap}")
    check_epsilon(epsilon)
    check_fraction(delta, "delta")


def stable_argmax(gap: float, epsilon: float, delta: float, rng: np.random.Generator) -> int | None:
    """Release the argmax only when its lead `gap` over the runner-up is noisily large.

    gap_hat = gap + Lap(1/epsilon); return 0, the leader's index, when
    gap_hat >= (1/epsilon) ln(1/delta), else None (bottom). The runner-up is
    never released. Satisfies (epsilon, delta)-DP for sensitivity-1 scores.
    """
    _check_stable(gap, epsilon, delta)
    gap_hat = gap + float(laplace_sample(1.0 / epsilon, rng))
    if gap_hat < math.log(1.0 / delta) / epsilon:
        return None
    return 0


def stable_argmax_pmf(gap: float, epsilon: float, delta: float) -> tuple[float, float]:
    """Exact (P[release argmax], P[bottom]) of stable_argmax at the given gap."""
    _check_stable(gap, epsilon, delta)
    threshold = math.log(1.0 / delta) / epsilon
    p_top = laplace_sf(threshold - gap, 1.0 / epsilon)
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
