"""The four benchmark workloads, each driven through dpmulti's public entry points.

A workload runs in *units*. One unit is the smallest call that exercises the
workload's whole path: one `harness.run_experiment` call for the three config
shapes, and a short loop of library trials for `generic-exhaustive`, which the
harness cannot express (its exhaustive path plans m ~ 2,445 synthetic rows and
exceeds the enumeration budget). Every unit is keyed by an integer seed, so
the same seed always gives the same inputs and the same report bytes.

Library functions are looked up on their modules at call time, never bound at
import, so that a traced run can wrap the module attributes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import dpmulti.domain as domain
import dpmulti.harness as harness
import dpmulti.learners as learners
import dpmulti.rng as rng_mod


@dataclass
class UnitResult:
    """Outcome of one unit: trials run, successes, report digest, and failed checks.

    failed counts the trials that a failed check invalidates: one trial for a
    per-trial check, every trial of the unit for a check on the whole report.
    """

    trials: int
    successes: float
    report_sha256: str
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def __post_init__(self):
        if self.problems and not self.failed:
            self.failed = self.trials


def unit_seed(seed: int, index: int) -> int:
    """Config seed of unit `index` of a run keyed by `seed` (index 0 is the warm-up)."""
    digest = hashlib.sha256(f"dpmulti-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PARITY_SWEEP_CONFIG = """\
[experiment]
kind = learn
trials = {trials}
seed = {seed}
sweep = n
values = 480 1920

[learn]
algorithm = parities
d = 10
k = 32
epsilon = 1
delta = 0.1
beta = 0.1
"""

# Four equally likely elements out of 16; n = 2726 is the planned sample size
# at alpha=0.2, beta=0.1, delta=0.01, eps=1.
POINT_LEARN_CONFIG = """\
[experiment]
kind = learn
trials = {trials}
seed = {seed}

[learn]
algorithm = points
universe = 16
dist = weights:1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0
k = 32
n = 2726
alpha = 0.2
beta = 0.1
delta = 0.01
epsilon = 1
"""

# n_users=6, xi=0.05 gives the secure code length k = 2370 of acceptance
# criterion 8.
ATTACK_ERM_CONFIG = """\
[experiment]
kind = attack
trials = {trials}
seed = {seed}

[attack]
n_users = 6
xi = 0.05
learner = erm
variant = pac
"""

ATTACK_CODE_LENGTH = 2370


def _check_learn_report(report, points: int, trials: int, eps: float, delta: float) -> list[str]:
    problems = []
    if report.kind != "learn" or len(report.rows) != points:
        problems.append(f"expected {points} learn rows, got {report.kind} x {len(report.rows)}")
    for row in report.rows:
        n, row_trials, success, err, eps_total, delta_total = row
        if row_trials != trials or not 0.0 <= success <= 1.0 or not 0.0 <= err <= 1.0:
            problems.append(f"malformed row {row}")
        if not (math.isclose(eps_total, eps) and math.isclose(delta_total, delta)):
            problems.append(f"n={n}: ledger ({eps_total}, {delta_total}) != ({eps}, {delta})")
    return problems


def _learn_unit(template: str, trials: int, threads: int, points: int, eps: float, delta: float) -> Callable:
    def run(seed: int) -> UnitResult:
        config = harness.parse_config(template.format(seed=seed, trials=trials))
        report = harness.run_experiment(config, threads=threads)
        successes = sum(row[2] * row[1] for row in report.rows)
        return UnitResult(
            trials * points,
            successes,
            _sha256(harness.to_json(report).encode()),
            _check_learn_report(report, points, trials, eps, delta),
        )

    return run


def _attack_unit(seed: int, trials: int) -> UnitResult:
    config = harness.parse_config(ATTACK_ERM_CONFIG.format(seed=seed, trials=trials))
    report = harness.run_experiment(config)
    problems = []
    (row,) = report.rows
    if row[1] != trials or len(report.per_trial_rows) != trials:
        problems.append(f"expected {trials} attack trials, got {row[1]}")
    if report.meta.get("length") != ATTACK_CODE_LENGTH:
        problems.append(f"code length {report.meta.get('length')} != {ATTACK_CODE_LENGTH}")
    if any(r[1] not in (0, 1) for r in report.per_trial_rows):
        problems.append("feasible column is not 0/1")
    return UnitResult(trials, row[2] * trials, _sha256(harness.to_json(report).encode()), problems)


GENERIC_UNIVERSE = 8
GENERIC_K = 8
GENERIC_N = 400
GENERIC_ALPHA, GENERIC_BETA, GENERIC_EPS, GENERIC_EPS_PRIME = 0.2, 0.1, 1.0, 5.0
GENERIC_SYNTH_SIZE = 5


def run_generic_trial(seed: int, trial: int) -> tuple[list[int], bool, bool]:
    """One pure-DP generic-learner trial: (released parameters, contract met, ledger ok).

    The agnostic contract is acceptance criterion 7's: every label's empirical
    error is within alpha of the class minimum. The ledger must equal
    generic_privacy_total(k, eps, eps', 0), that is (41, 0) here.
    """
    universe = domain.Universe.indexed(GENERIC_UNIVERSE)
    cclass = domain.ConceptClass(domain.THRESH, universe)
    rng = rng_mod.stream(seed, trial)
    probs = rng.random((GENERIC_UNIVERSE, GENERIC_K)) * 0.9 + 0.05
    labeled = domain.LabeledDistribution.from_label_probs(domain.Distribution.uniform(universe), probs)
    db = labeled.sample(GENERIC_N, rng)
    result = learners.generic_multi_learner(
        db, cclass, GENERIC_ALPHA, GENERIC_BETA, GENERIC_EPS, GENERIC_EPS_PRIME, 0.0, rng,
        sanitizer="exhaustive", synth_size=GENERIC_SYNTH_SIZE,
    )
    total = result.ledger.basic_total()
    expected = learners.generic_privacy_total(GENERIC_K, GENERIC_EPS, GENERIC_EPS_PRIME, 0.0)
    ledger_ok = math.isclose(total.epsilon, expected.epsilon) and total.delta == expected.delta
    params = [h.param for h in result.hypotheses]
    mismatches = learners.erm_mismatch_counts(db, cclass)  # (|C|, k)
    excess = mismatches[params, np.arange(GENERIC_K)] - mismatches.min(axis=0)
    return params, bool((excess <= GENERIC_ALPHA * db.n).all()), ledger_ok


def _generic_unit(seed: int, trials: int) -> UnitResult:
    rows, problems, successes = [], [], 0
    for trial in range(trials):
        params, contract_ok, ledger_ok = run_generic_trial(seed, trial)
        rows.append([trial, params, int(contract_ok)])
        successes += contract_ok
        if not ledger_ok:
            problems.append(f"trial {trial}: ledger differs from generic_privacy_total")
    body = json.dumps({"seed": seed, "columns": ["trial", "params", "contract_ok"], "rows": rows})
    return UnitResult(trials, successes, _sha256(body.encode()), problems, failed=len(problems))


@dataclass(frozen=True)
class Workload:
    """A named workload: its unit runner, the trials one unit runs, the threads
    they run on, and its traced trial span.

    trial_span names the traced span that is one trial. It is None for the
    attack, whose trials have no function boundary of their own; there each
    trial starts with the completeness stream (seed, 0, trial).
    """

    name: str
    unit_trials: int
    threads: int
    run_unit: Callable[[int], UnitResult]
    trial_span: str | None


WORKLOADS = {
    w.name: w
    for w in (
        # 2 trials at each of 2 sweep points; each point's 2-worker pool gets one trial per worker.
        Workload("parity-sweep", 4, 2, _learn_unit(PARITY_SWEEP_CONFIG, 2, 2, 2, 1.0, 0.1), "harness.run_learn_trial"),
        Workload("point-learn", 10, 1, _learn_unit(POINT_LEARN_CONFIG, 10, 1, 1, 1.0, 0.01), "harness.run_learn_trial"),
        Workload("attack-erm", 8, 1, lambda seed: _attack_unit(seed, 8), None),
        Workload("generic-exhaustive", 2, 1, lambda seed: _generic_unit(seed, 2), "bench.generic_trial"),
    )
}
