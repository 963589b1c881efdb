"""The concept classes by their definitions, one concept on one element at a time.

This brute-force reference is what the tests check dpmulti's vectorised
evaluators, labellers and laws against. A concept is a (kind, param) pair:
point is x == p, threshold x <= p, parity popcount(p & x) mod 2, and the
zero hypothesis (param -1 of a point or threshold, or kind "zero") is 0.
"""

import math

import numpy as np

from dpmulti.domain import PARITY, POINT, THRESH, ZERO


def bit(kind, param, x):
    """The 0/1 value of the concept (kind, param) on element x."""
    if kind == ZERO or param < 0:
        return 0
    if kind == POINT:
        return int(x == param)
    if kind == THRESH:
        return int(x <= param)
    if kind == PARITY:
        return (param & x).bit_count() & 1
    raise ValueError(f"unknown concept kind {kind!r}")


def table_bits(table, xs):
    """The (k, len(xs)) nested list of table's hypotheses on xs, one bit() call per cell."""
    return [[bit(table.kind, p, x) for x in xs] for p in table.params.tolist()]


def joint_pmf(dist, targets):
    """The realizable law: element x carries dist's mass at the label vector that the k targets give it."""
    pmf = np.zeros((dist.universe.size, 1 << len(targets)))
    for x in range(dist.universe.size):
        code = sum(bit(targets.kind, p, x) << j for j, p in enumerate(targets.params.tolist()))
        pmf[x, code] = dist.pmf[x]
    return pmf


def disagreement_masses(dist, targets, hyps):
    """Per pair j, one math.fsum of dist's mass over the elements where targets[j] and hyps[j] differ."""
    pmf = dist.pmf.tolist()
    return [
        math.fsum(m for x, m in enumerate(pmf) if bit(targets.kind, t, x) != bit(hyps.kind, h, x))
        for t, h in zip(targets.params.tolist(), hyps.params.tolist())
    ]
