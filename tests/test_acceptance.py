"""Acceptance suite: one test per acceptance criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run `pytest -s` to see them all).
Monte Carlo thresholds below carry their pre-registered statistical slack;
seeds are fixed, so reruns are bit-for-bit repeatable.
"""

import math
import time

import numpy as np
import scipy.stats

from dpmulti.domain import (
    PARITY,
    POINT,
    THRESH,
    ConceptClass,
    Distribution,
    Hypotheses,
    LabeledDistribution,
    MultiLabeledDatabase,
    Universe,
    dichotomy_projection,
    generalization_errors,
    sample_database,
)
from dpmulti.fingerprint import attack_experiment, code_length
from dpmulti.harness import parse_config, run_experiment, to_csv, to_json
from dpmulti.learners import (
    erm_mismatch_counts,
    erm_multi,
    generic_multi_learner,
    gf2_solve,
    parity_block_plan,
    parity_learner,
    point_learner,
    point_rows_bound,
)
from dpmulti.mechanisms import (
    PrivacyParams,
    compose_advanced,
    compose_basic,
    dp_bound_holds,
    exponential_mechanism,
    exponential_mechanism_pmf,
    stable_argmax,
)
from dpmulti.rng import stream

from scalar_reference import bit
from test_mechanisms import ADVANCED_GOLDEN, BASIC_GOLDEN


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{status} criterion {number} ({name}): {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_exponential_mechanism_exactness():
    t0 = time.perf_counter()
    scores = np.array([3.0, 2.0, 1.0, 0.0])
    pmf = exponential_mechanism_pmf(scores, 1.0, 1.0)
    rng = stream(1001, 0)
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[exponential_mechanism(scores, 1.0, 1.0, rng)] += 1
    stat = float(((counts - draws * pmf) ** 2 / (draws * pmf)).sum())
    cutoff = scipy.stats.chi2.ppf(1 - 1e-3, df=3)
    elapsed = time.perf_counter() - t0
    report(1, "exponential mechanism sampling matches exact pmf",
           stat < cutoff, f"chi-square {stat:.2f} < {cutoff:.2f} over {draws} draws", elapsed, 5.0)


def test_criterion_02_exact_dp_verification():
    t0 = time.perf_counter()
    eps, sens = 1.0, 1.0
    rng = stream(1002, 0)
    checked = 0
    ok = True
    for pair in range(100):
        k = int(rng.integers(2, 65))
        base = rng.integers(0, 40, size=k).astype(float)
        neighbor = base + rng.uniform(-sens, sens, size=k)
        p = exponential_mechanism_pmf(base, eps, sens)
        q = exponential_mechanism_pmf(neighbor, eps, sens)
        ok &= dp_bound_holds(p, q, eps, 0.0) and dp_bound_holds(q, p, eps, 0.0)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(2, "exponential mechanism is (eps,0)-DP on neighbors",
           ok and checked == 100, f"{checked} neighboring score vectors, sizes <= 64", elapsed, 10.0)


def test_criterion_03_stable_selection_contract():
    t0 = time.perf_counter()
    eps, delta, beta = 1.0, 0.01, 0.1
    gap = math.log(1 / (delta * beta)) / eps + 1e-6
    rng = stream(1003, 0)
    top = sum(stable_argmax(gap, eps, delta, rng) == 0 for _ in range(1000))
    rng = stream(1003, 1)
    released_at_zero = sum(stable_argmax(0.0, eps, delta, rng) is not None for _ in range(1000))
    # delta/2 = 0.005 plus pre-registered slack 0.010 (99% binomial half-width ~ 0.006)
    ok = top >= 880 and released_at_zero / 1000 <= 0.015
    elapsed = time.perf_counter() - t0
    report(3, "stable selection releases argmax above the gap bound",
           ok, f"top rate {top/1000:.3f} >= 0.88, zero-gap release {released_at_zero/1000:.3f} <= 0.015",
           elapsed, 5.0)


def test_criterion_04_point_sanitizer_accuracy():
    t0 = time.perf_counter()
    alpha, eps, delta, beta = 0.2, 1.0, 0.01, 0.1
    n_san = math.ceil(8 * math.log(16 / (alpha * beta * delta)) / (alpha * eps))
    u = Universe.indexed(32)
    weights = np.zeros(32)
    weights[[0, 1, 2]] = [0.3, 0.25, 0.1]
    weights[3:8] = 0.06
    weights[8:13] = 0.01
    dist = Distribution.from_weights(u, weights)
    from dpmulti.sanitize import sanitize_points

    good = 0
    sub_exact = True
    for trial in range(500):
        rng = stream(1004, trial)
        db = MultiLabeledDatabase.unlabeled(u, dist.sample(n_san, rng))
        ans = sanitize_points(db, eps, delta, rng)
        truth = np.bincount(db.xs, minlength=32) / db.n
        good += bool(np.abs(ans.as_vector() - truth).max() <= alpha)
        sub_exact &= not ans.as_vector()[truth == 0].any()
    elapsed = time.perf_counter() - t0
    report(4, "point sanitizer all-queries-within-alpha",
           good >= 425 and sub_exact,
           f"{good}/500 trials within alpha at n={n_san}, absent elements exact zeros: {sub_exact}",
           elapsed, 30.0)


def test_criterion_05_parity_learner_exact_recovery():
    t0 = time.perf_counter()
    eps, delta, beta, d, k = 1.0, 0.1, 0.1, 6, 3
    u = Universe.bitvectors(d)
    n = math.prod(parity_block_plan(d, eps, beta, delta))
    dist = Distribution.uniform(u)

    def recovery_rate(rows, salt):
        wins = 0
        for trial in range(200):
            rng = stream(1005, salt, trial)
            targets = Hypotheses(u, PARITY, rng.integers(0, u.size, size=k))
            db = sample_database(dist, targets, rows, rng)
            res = parity_learner(db, eps, delta, beta, rng)
            wins += (not res.failed) and all(
                h.param == c.param for h, c in zip(res.hypotheses, targets)
            )
        return wins / 200

    at_bound = recovery_rate(n, 0)
    below = recovery_rate(n // 8, 1)
    elapsed = time.perf_counter() - t0
    report(5, "parity learner exact recovery",
           at_bound >= 0.85 and below <= 0.50,
           f"n={n}: rate {at_bound:.2f} >= 0.85; n/8={n//8}: rate {below:.2f} <= 0.50", elapsed, 60.0)


def test_criterion_06_point_learner_accuracy():
    t0 = time.perf_counter()
    alpha, eps, delta, beta, k = 0.2, 1.0, 0.01, 0.1, 4
    u = Universe.indexed(16)
    n = point_rows_bound(alpha, beta, delta, eps)
    dist = Distribution.from_weights(u, [1, 1, 1, 1] + [0] * 12)
    good = 0
    shape_ok = True
    for trial in range(200):
        rng = stream(1006, trial)
        params = [int(p) for p in rng.integers(0, 4, size=k - 1)] + [11]
        targets = Hypotheses(u, POINT, np.array(params))
        db = sample_database(dist, targets, n, rng)
        res = point_learner(db, alpha, eps, delta, rng, beta=beta)
        if res.failed:
            shape_ok &= True
            continue
        shape_ok &= all(h.kind in ("point", "zero") for h in res.hypotheses)
        good += max(generalization_errors(dist, targets, res.hypotheses)) <= alpha
    elapsed = time.perf_counter() - t0
    report(6, "point learner accuracy",
           good >= 170 and shape_ok,
           f"{good}/200 trials with max error <= {alpha} at n={n}; point-or-zero: {shape_ok}",
           elapsed, 60.0)


def test_criterion_07_generic_learner_agnostic_contract():
    t0 = time.perf_counter()
    alpha, beta, eps, eps_prime, delta, k, n = 0.2, 0.1, 1.0, 50.0, 0.01, 2, 4000
    u = Universe.indexed(8)
    cc = ConceptClass(POINT, u)
    good = 0
    structure_ok = True
    for trial in range(200):
        rng = stream(1007, trial)
        probs = rng.random((8, k)) * 0.9 + 0.05
        ld = LabeledDistribution.from_label_probs(Distribution.uniform(u), probs)
        db = ld.sample(n, rng)
        res = generic_multi_learner(db, cc, alpha, beta, eps, eps_prime, delta, rng)
        structure_ok &= res.details["hypothesis_count"] <= 2 ** res.details["support_size"]
        best = erm_mismatch_counts(db, cc).min(axis=0) / db.n
        errors = np.count_nonzero(res.hypotheses.evaluate(db.xs) != db.labels.T, axis=1) / db.n
        good += bool((errors <= best + alpha).all())
    elapsed = time.perf_counter() - t0
    report(7, "generic learner agnostic contract",
           good >= 170 and structure_ok,
           f"{good}/200 trials within class-min + alpha; |H| <= 2^|B| always: {structure_ok}",
           elapsed, 120.0)


def test_criterion_08_fingerprinting_attack():
    t0 = time.perf_counter()
    n_users, xi, trials = 6, 0.05, 400
    length = code_length(n_users, xi)

    def erm_learner(db, rng):
        return erm_multi(db, ConceptClass(THRESH, db.universe))

    rep = attack_experiment(erm_learner, n_users, xi, trials, "pac", 0.2, seed=1008, length=length)
    per_user = {u: [r["violation"] for r in rep.soundness_rows if r["missing"] == u] for u in range(n_users)}
    per_user_ok = all(sum(v) / len(v) <= 0.10 for v in per_user.values())
    traced = sum(1 for r in rep.rows if r["accused"] >= 0) / trials
    ok = (
        rep.completeness_rate >= 0.85
        and rep.soundness_violation_rate <= 0.10
        and per_user_ok
        and traced >= 0.85
    )
    elapsed = time.perf_counter() - t0
    report(8, "fingerprinting attack traces the non-private learner",
           ok,
           f"completeness {rep.completeness_rate:.2f} >= 0.85, soundness violation "
           f"{rep.soundness_violation_rate:.2f} <= 0.10 (per-user ok: {per_user_ok}), "
           f"k={length}, traced {traced:.2f}", elapsed, 120.0)


def test_criterion_09_composition_arithmetic():
    t0 = time.perf_counter()
    ok = True
    for charges, eps, delta in BASIC_GOLDEN:
        total = compose_basic([PrivacyParams(e, d) for e, d in charges])
        ok &= math.isclose(total.epsilon, eps, rel_tol=1e-13) and math.isclose(
            total.delta, delta, rel_tol=1e-13, abs_tol=1e-300
        )
    for (m, e, d, dp), eps, delta in ADVANCED_GOLDEN:
        total = compose_advanced(PrivacyParams(e, d), m, dp)
        ok &= math.isclose(total.epsilon, eps, rel_tol=1e-13) and math.isclose(
            total.delta, delta, rel_tol=1e-13
        )
    elapsed = time.perf_counter() - t0
    report(9, "composition reproduces high-precision golden fixtures",
           ok, "20 fixtures at 1e-13 relative tolerance", elapsed, 1.0)


def test_criterion_10_brute_force_oracle_equivalence():
    t0 = time.perf_counter()
    rng = stream(1010, 0)
    gf2_ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        rows = int(rng.integers(0, 2 * d + 1))
        eqs = [
            (int(m), int(b))
            for m, b in zip(rng.integers(0, 1 << d, size=rows), rng.integers(0, 2, size=rows))
        ]
        brute = [x for x in range(1 << d) if all(((m & x).bit_count() & 1) == b for m, b in eqs)]
        got = gf2_solve(d, eqs)
        gf2_ok &= (got in brute) if brute else (got is None)

    proj_ok = True
    for kind in (POINT, THRESH):
        for size in (4, 9, 16):
            cclass = ConceptClass(kind, Universe.indexed(size))
            for salt in range(5):
                pts = [int(p) for p in stream(1010, 1, size, salt).integers(0, size, size=5)]
                # Every realized labeling, one witness each, each the lowest parameter realizing it.
                brute = {}
                for param in range(size):
                    brute.setdefault(tuple(bit(kind, param, p) for p in pts), param)
                got = dichotomy_projection(cclass, pts)
                proj_ok &= got.kind == kind and got.params.tolist() == sorted(brute.values())
                proj_ok &= all(brute[tuple(bit(kind, w, p) for p in pts)] == w for w in got.params.tolist())
    elapsed = time.perf_counter() - t0
    report(10, "solvers agree with exhaustive oracles",
           gf2_ok and proj_ok,
           f"gf2 over 1000 systems (d<=8): {gf2_ok}; dichotomies vs enumeration: {proj_ok}",
           elapsed, 30.0)


DETERMINISM_CONFIGS = [
    """
[experiment]
kind = learn
trials = 40
seed = 1011
sweep = n
values = 100 1152

[learn]
algorithm = parities
k = 3
d = 6
epsilon = 1.0
delta = 0.1
beta = 0.1
""",
    """
[experiment]
kind = sanitize
trials = 60
seed = 1011

[sanitize]
universe = 32
n = 452
alpha = 0.2
epsilon = 1.0
delta = 0.01
dist = weights:6,5,2,1,1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
""",
    """
[experiment]
kind = attack
trials = 30
seed = 1011

[attack]
n_users = 6
xi = 0.05
learner = erm
""",
]


def test_criterion_11_determinism_across_thread_counts():
    t0 = time.perf_counter()
    ok = True
    for text in DETERMINISM_CONFIGS:
        cfg = parse_config(text)
        outputs = {
            (to_csv(run_experiment(cfg, threads=t)), to_json(run_experiment(cfg, threads=t)))
            for t in (1, 2, 4)
        }
        ok &= len(outputs) == 1
    elapsed = time.perf_counter() - t0
    report(11, "byte-identical reports across reruns and thread counts",
           ok, "learn, sanitize, and attack reports at threads 1/2/4", elapsed, 120.0)
