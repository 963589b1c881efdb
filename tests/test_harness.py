"""Experiment harness: config parsing, planning, reports, determinism."""

import csv
import hashlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dpmulti import harness
from dpmulti.domain import POINT, THRESH, ConceptClass, Universe, vc_sample_size
from dpmulti.harness import (
    LEARNERS,
    ConfigError,
    TrialReport,
    emit,
    format_float,
    parse_config,
    parse_distribution,
    read_learn,
    run_experiment,
    sample_and_learn,
    to_csv,
    to_json,
)
from dpmulti.learners import generic_rows_bound, parity_block_plan, point_rows_bound
from dpmulti.mechanisms import PrivacyLedger, PrivacyParams
from dpmulti.sanitize import EnumerationBudgetError

PARITY_SWEEP = """
[experiment]
kind = learn
trials = 25
seed = 7
sweep = n
values = 100 400 1600

[learn]
algorithm = parities
k = 3
d = 6
epsilon = 1.0
delta = 0.1
beta = 0.1
"""

ATTACK_CFG = """
[experiment]
kind = attack
trials = 10
seed = 3

[attack]
n_users = 4
xi = 0.1
variant = pac
learner = erm
length = 30
"""

# d=10, k=32 parity sweep; the digest of its JSON report pins the parity
# learner's output byte for byte.
PARITY_GOLDEN_CFG = """
[experiment]
kind = learn
trials = 2
seed = 1861917694
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
PARITY_GOLDEN_SHA256 = "e23a02546abc2382b392e24520f64048402a1d63a12059ea181a44c403a04ca6"

# The point-learn workload's k=32 config, swept across the n where stable
# selection starts to release; the digest pins the point learner's output.
# No trial succeeds at n = 50 or 60: the sanitizer's heavy set is empty in
# eleven of the twelve, which release all-zero hypotheses, and one aborts.
POINT_GOLDEN_CFG = """
[experiment]
kind = learn
trials = 6
seed = 1861917694
sweep = n
values = 50 60 2726

[learn]
algorithm = points
universe = 16
dist = weights:1,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0
k = 32
alpha = 0.2
beta = 0.1
delta = 0.01
epsilon = 1
"""
POINT_GOLDEN_SHA256 = "4d9b36d3e0a9ac415471e09dd581ab4d315bb82993103e27c68c0267d80f9f23"

# Universes that are not a power of two, with weights whose cdf values fall
# inside the sampling table's buckets, so Distribution.sample takes its
# mixed-bucket search. The samples are the draws of rng.choice; the digests
# were re-captured when the point sanitizer became a stability histogram.
NONDYADIC_WEIGHTS = "weights:0,5,3,1,0,2,7,1,1,4,3,0"
SANITIZE_NONDYADIC_GOLDEN_CFG = f"""
[experiment]
kind = sanitize
trials = 6
seed = 1861917694
sweep = n
values = 300 1200

[sanitize]
universe = 12
alpha = 0.2
epsilon = 1
delta = 0.01
dist = {NONDYADIC_WEIGHTS}
"""
SANITIZE_NONDYADIC_GOLDEN_SHA256 = "60534c2a54189754b40bf0678538a7021054e408594e56ce572219310cbd91b7"

POINT_NONDYADIC_GOLDEN_CFG = f"""
[experiment]
kind = learn
trials = 6
seed = 1861917694
sweep = n
values = 60 2000

[learn]
algorithm = points
universe = 12
dist = {NONDYADIC_WEIGHTS}
k = 8
alpha = 0.2
beta = 0.1
delta = 0.01
epsilon = 1
"""
POINT_NONDYADIC_GOLDEN_SHA256 = "2af2c3d84f61d38b24fc14449caed0117ec1c25b813c76a3aecf42eef23c2ad1"

SANITIZE_CFG = """
[experiment]
kind = sanitize
trials = 15
seed = 5

[sanitize]
universe = 16
n = 452
alpha = 0.2
epsilon = 1.0
delta = 0.01
dist = weights:4,3,2,1,1,1,0,0,0,0,0,0,0,0,0,0
"""


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(PARITY_SWEEP)
        assert cfg.kind == "learn" and cfg.trials == 25 and cfg.seed == 7
        assert cfg.sweep_axis == "n" and cfg.sweep_values == (100, 400, 1600)

    @pytest.mark.parametrize(
        "mutation,path",
        [
            ("kind = frobnicate", "experiment.kind"),
            ("trials = 0", "experiment.trials"),
            ("trials = many", "experiment.trials"),
            ("values = 100 100 400", "experiment.values"),
            ("seed = -3", "experiment.seed: must be >= 0, got -3"),
        ],
    )
    def test_field_path_in_errors(self, mutation, path):
        key = mutation.split(" =")[0]
        mutated = "\n".join(
            mutation if line.strip().startswith(key + " ") or line.strip().startswith(key + "=") else line
            for line in PARITY_SWEEP.splitlines()
        )
        with pytest.raises(ConfigError, match=path):
            parse_config(mutated)

    def test_missing_seed(self):
        text = PARITY_SWEEP.replace("seed = 7\n", "")
        with pytest.raises(ConfigError, match="experiment.seed"):
            parse_config(text)

    def test_missing_kind_section(self):
        text = PARITY_SWEEP.replace("[learn]", "[other]")
        with pytest.raises(ConfigError, match="learn: section missing"):
            parse_config(text)

    def test_sweep_requires_values(self):
        text = PARITY_SWEEP.replace("values = 100 400 1600\n", "")
        with pytest.raises(ConfigError, match="experiment.values"):
            parse_config(text)


class TestPlanSampleSize:
    """Each learner's pinned sample bound, read from its one bound function."""

    def test_parity_example(self):
        assert math.prod(parity_block_plan(6, 1.0, 0.1, 0.1)) == 1152

    def test_points_example(self):
        n = point_rows_bound(0.2, 0.1, 0.01, 1.0)
        assert n == math.ceil(64 * (1 / 0.2) * math.log(1 / (0.2 * 0.1 * 0.01)))
        assert n == 2726

    def test_erm_delegates_to_vc_bound(self):
        assert vc_sample_size(ConceptClass(POINT, Universe.indexed(8)).vc_dim, 0.1, 0.1) == 6940

    def test_generic_positive(self):
        assert generic_rows_bound(ConceptClass(POINT, Universe.indexed(8)), 2, 0.2, 0.1, 1.0, 1.0, 0.01) > 0

    @pytest.mark.parametrize("algorithm,alpha", [("points", 0), ("points", 1.5), ("generic", 0), ("generic", 1.5)])
    def test_alpha_outside_unit_interval_rejected(self, algorithm, alpha):
        cc = ConceptClass(POINT, Universe.indexed(8))
        with pytest.raises(ValueError, match=rf"alpha must be in \(0, 1\), got {alpha}"):
            if algorithm == "points":
                point_rows_bound(alpha, 0.1, 0.01, 1.0)
            else:
                generic_rows_bound(cc, 2, alpha, 0.1, 1.0, 1.0, 0.01)


class TestRunExperiment:
    def test_parity_sweep_monotone(self):
        report = run_experiment(parse_config(PARITY_SWEEP))
        rates = [row[2] for row in report.rows]
        assert rates[0] <= rates[1] + 0.15 and rates[1] <= rates[2] + 0.15
        assert rates[2] >= 0.9
        assert report.columns[0] == "n"

    def test_parity_sweep_report_golden(self):
        report = run_experiment(parse_config(PARITY_GOLDEN_CFG))
        assert hashlib.sha256(to_json(report).encode()).hexdigest() == PARITY_GOLDEN_SHA256

    def test_point_learn_report_golden(self):
        report = run_experiment(parse_config(POINT_GOLDEN_CFG))
        assert [row[2] for row in report.rows] == [0.0, 0.0, 1.0]
        assert hashlib.sha256(to_json(report).encode()).hexdigest() == POINT_GOLDEN_SHA256

    @pytest.mark.parametrize(
        "cfg,sha256",
        [(SANITIZE_NONDYADIC_GOLDEN_CFG, SANITIZE_NONDYADIC_GOLDEN_SHA256),
         (POINT_NONDYADIC_GOLDEN_CFG, POINT_NONDYADIC_GOLDEN_SHA256)],
        ids=["sanitize", "points"],
    )
    def test_nondyadic_weights_report_golden(self, cfg, sha256):
        report = run_experiment(parse_config(cfg))
        assert hashlib.sha256(to_json(report).encode()).hexdigest() == sha256

    def test_thread_count_invariance(self):
        cfg = parse_config(ATTACK_CFG)
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=4)
        assert to_csv(a) == to_csv(b)
        assert to_json(a) == to_json(b)
        cfg2 = parse_config(SANITIZE_CFG)
        assert to_csv(run_experiment(cfg2, threads=1)) == to_csv(run_experiment(cfg2, threads=3))

    def test_rerun_byte_identical(self):
        cfg = parse_config(SANITIZE_CFG)
        assert to_json(run_experiment(cfg)) == to_json(run_experiment(cfg))

    def test_single_point_without_sweep(self):
        cfg = parse_config(SANITIZE_CFG)
        report = run_experiment(cfg)
        assert len(report.rows) == 1
        assert report.rows[0][1] == 15

    def test_ledger_columns_are_static_charges(self):
        report = run_experiment(parse_config(PARITY_SWEEP))
        for row in report.rows:
            assert row[4] == 1.0 and row[5] == 0.1

    def test_attack_per_trial_rows(self):
        report = run_experiment(parse_config(ATTACK_CFG))
        assert report.per_trial_columns == ["trial", "feasible", "accused", "accurate", "flagged"]
        assert len(report.per_trial_rows) == 10

    @pytest.mark.parametrize(
        "algorithm,extra,eps_total,delta_total",
        [
            ("points", "", 1.0, 0.01),
            ("direct-sum", "", 2.0, 0.02),
            ("erm", "", 0.0, 0.0),
            ("generic", "epsilon_prime = 25.0", 51.0, 0.01),
        ],
    )
    def test_learn_algorithms_and_ledgers(self, algorithm, extra, eps_total, delta_total):
        text = f"""
[experiment]
kind = learn
trials = 8
seed = 13

[learn]
algorithm = {algorithm}
k = 2
universe = 8
n = 3000
alpha = 0.2
beta = 0.1
epsilon = 1.0
delta = 0.01
dist = weights:1,1,1,1,0,0,0,0
{extra}
"""
        report = run_experiment(parse_config(text))
        row = report.rows[0]
        assert row[4] == pytest.approx(eps_total) and row[5] == pytest.approx(delta_total)
        assert row[2] >= 0.75  # realizable point targets at n=3000 succeed


# case -> (experiment kind, section body without the swept key, sweep axis, two sweep values)
SWEEP_SECTIONS = {
    "learn-k": ("learn", "algorithm = generic\nclass = point\nn = 300\nuniverse = 8\nepsilon_prime = 2\ndelta = 0.01", "k", (1, 4)),
    "learn-n": ("learn", "algorithm = erm\nclass = thresh\nk = 3\nuniverse = 8", "n", (20, 80)),
    "learn-universe": ("learn", "algorithm = erm\nclass = thresh\nk = 3\nn = 40", "universe", (4, 16)),
    "learn-d": ("learn", "algorithm = erm\nclass = parity\nk = 3\nn = 40", "d", (3, 5)),
    "sanitize-n": ("sanitize", "universe = 8\nalpha = 0.2\nepsilon = 1\ndelta = 0.01", "n", (100, 400)),
    "sanitize-universe": ("sanitize", "n = 300\nalpha = 0.2\nepsilon = 1\ndelta = 0.01", "universe", (4, 16)),
}


def _sweep_config(kind, body, axis=None, values=()):
    sweep = f"sweep = {axis}\nvalues = {' '.join(map(str, values))}\n" if axis else ""
    return parse_config(f"[experiment]\nkind = {kind}\ntrials = 3\nseed = 5\n{sweep}\n[{kind}]\n{body}\n")


@pytest.mark.parametrize("case", ["learn-n", "sanitize-n"])
def test_each_sweep_point_reads_its_distribution_once(monkeypatch, case):
    reads = []
    parse = harness.parse_distribution
    monkeypatch.setattr(harness, "parse_distribution", lambda *args: reads.append(args) or parse(*args))
    kind, body, axis, values = SWEEP_SECTIONS[case]
    report = run_experiment(_sweep_config(kind, body, axis, values))
    assert [row[1] for row in report.rows] == [3, 3]
    assert len(reads) == 2


class TestSweepAxis:
    @pytest.mark.parametrize("case", sorted(SWEEP_SECTIONS))
    def test_first_point_equals_unswept_config(self, case):
        # The first sweep point and an unswept run both draw from the streams (seed, 0, trial).
        kind, body, axis, values = SWEEP_SECTIONS[case]
        swept = run_experiment(_sweep_config(kind, body, axis, values))
        assert swept.columns[0] == axis
        assert [row[0] for row in swept.rows] == list(values)
        single = run_experiment(_sweep_config(kind, f"{body}\n{axis} = {values[0]}"))
        assert swept.rows[0][1:] == single.rows[0][1:]

    def test_k_sweep_sets_k(self):
        kind, body, axis, values = SWEEP_SECTIONS["learn-k"]
        report = run_experiment(_sweep_config(kind, body, axis, values))
        # One sanitization at epsilon 1 plus k selections at epsilon' 2.
        assert [row[4] for row in report.rows] == [1.0 + 2.0 * k for k in values]

    @pytest.mark.parametrize(
        "kind,body,axis,refused",
        [
            ("learn", SWEEP_SECTIONS["learn-n"][1], "bogus", "experiment.sweep"),
            ("learn", SWEEP_SECTIONS["learn-n"][1], "alpha", "experiment.sweep"),
            ("sanitize", SWEEP_SECTIONS["sanitize-universe"][1], "d", "experiment.sweep"),
            ("attack", "n_users = 4\nxi = 0.1", "n", "experiment.sweep"),
            # Keys the class never reads, refused by the key when the first point is read.
            ("learn", SWEEP_SECTIONS["learn-universe"][1], "d", r"^learn\.d: the thresh class reads universe, not d$"),
            ("learn", "algorithm = points\nk = 3\nn = 40\nuniverse = 8", "d",
             r"^learn\.d: the point class reads universe, not d$"),
            ("learn", SWEEP_SECTIONS["learn-d"][1], "universe",
             r"^learn\.universe: the parity class reads d, not universe$"),
            ("learn", "algorithm = parities\nk = 3\nn = 40\nd = 3", "universe",
             r"^learn\.universe: the parity class reads d, not universe$"),
        ],
        ids=["learn-bogus", "learn-alpha", "sanitize-d", "attack-n",
             "thresh-d", "point-d", "parity-class-universe", "parities-universe"],
    )
    def test_unknown_axis_rejected(self, kind, body, axis, refused):
        with pytest.raises(ConfigError, match=refused):
            run_experiment(_sweep_config(kind, body, axis, (10, 20)))


# algorithm -> (learn section, n at which seed 1 aborts or None if it cannot, n at which it releases)
LEDGER_SECTIONS = {
    "points": ({"k": "4", "universe": "8", "delta": "0.01"}, 100, 400),
    "direct-sum": ({"k": "4", "universe": "8", "delta": "0.01"}, 100, 400),
    "parities": ({"k": "3", "d": "3", "delta": "0.1"}, 30, 400),
    "generic": ({"k": "3", "class": "point", "universe": "8", "delta": "0.01", "epsilon_prime": "2"}, None, 400),
    "erm": ({"k": "3", "class": "thresh", "universe": "8"}, None, 30),
}


@pytest.mark.parametrize("algorithm,aborts", [
    (algorithm, aborts) for algorithm in sorted(LEDGER_SECTIONS) for aborts in (True, False)
    if not aborts or LEDGER_SECTIONS[algorithm][1] is not None
])
def test_ledger_equals_planned_charges_on_every_outcome(algorithm, aborts):
    section, abort_n, release_n = LEDGER_SECTIONS[algorithm]
    params = {**section, "algorithm": algorithm}
    setting = read_learn({**params, "n": str(abort_n if aborts else release_n)})
    targets, result = sample_and_learn(setting, 1, 0, 0)
    assert result.failed == aborts
    assert result.ledger.charges == LEARNERS[algorithm].charges(setting.params, len(targets))


def test_ledger_that_differs_from_the_plan_is_refused(monkeypatch):
    # A points learner whose ledger holds its total as one charge, not the plan's two halves.
    learn = harness.point_learner
    monkeypatch.setattr(harness, "point_learner", lambda *args, **kwargs: replace(
        learn(*args, **kwargs), ledger=PrivacyLedger([PrivacyParams(1.0, 0.01)])))
    body = "algorithm = points\nk = 2\nn = 400\nuniverse = 8\ndelta = 0.01"
    with pytest.raises(RuntimeError) as refused:
        run_experiment(_sweep_config("learn", body))
    half = PrivacyParams(0.5, 0.005)
    assert str(refused.value) == f"ledger charges {[PrivacyParams(1.0, 0.01)]} != planned charges {[half, half]}"


def test_attack_play_whose_ledger_differs_from_the_plan_is_refused(monkeypatch):
    # The same one-charge ledger, in an attack: every play is held to the plan composed at the code length.
    learn = harness.point_learner
    monkeypatch.setattr(harness, "point_learner", lambda *args, **kwargs: replace(
        learn(*args, **kwargs), ledger=PrivacyLedger([PrivacyParams(1.0, 0.01)])))
    with pytest.raises(RuntimeError) as refused:
        run_experiment(_sweep_config("attack", "n_users = 4\nxi = 0.1\nlength = 30\nlearner = points"))
    half = PrivacyParams(0.5, 0.005)
    assert str(refused.value) == f"ledger charges {[PrivacyParams(1.0, 0.01)]} != planned charges {[half, half]}"


def test_direct_sum_sweep_charges_k_base_ledgers_at_every_n():
    body = "algorithm = direct-sum\nuniverse = 8\nk = 4\ndelta = 0.01"
    report = run_experiment(_sweep_config("learn", body, "n", (100, 400)))
    assert report.rows[0][2] == 0  # every trial at n = 100 aborts
    assert [row[4:] for row in report.rows] == [[4.0, 0.04], [4.0, 0.04]]


def test_direct_sum_plan_is_the_points_plan_per_label():
    points, direct_sum = LEARNERS["points"], LEARNERS["direct-sum"]
    assert list(LEARNERS) == ["points", "parities", "generic", "direct-sum", "erm"]
    assert (direct_sum.kinds, direct_sum.exact, direct_sum.delta_check) == (
        points.kinds, points.exact, points.delta_check)
    p = read_learn({"algorithm": "direct-sum", "n": "100", "k": "3", "universe": "8", "delta": "0.01"}).params
    assert direct_sum.charges(p, 3) == points.charges(p, 1) * 3


def test_exact_attack_learner_is_held_to_its_own_classes(monkeypatch):
    # The variant's class is checked against the entry's kinds, not against parity by name.
    monkeypatch.setitem(harness.LEARNERS, "parities", replace(LEARNERS["parities"], kinds=(THRESH,)))
    with pytest.raises(ConfigError, match=r"^attack.variant: expected thresh for the parities learner, got 'parity'$"):
        run_experiment(_sweep_config("attack", "n_users = 3\nxi = 0.1\nlearner = parities\nvariant = parity"))


def test_parities_learner_rejects_other_classes():
    body = "algorithm = parities\nk = 2\nn = 100\nd = 4\ndelta = 0.1"
    run_experiment(_sweep_config("learn", body + "\nclass = parity"))
    with pytest.raises(ConfigError, match="learn.class"):
        run_experiment(_sweep_config("learn", body + "\nclass = point"))


def test_unknown_attack_variant_rejected():
    with pytest.raises(ConfigError, match="attack.variant"):
        run_experiment(_sweep_config("attack", "n_users = 4\nxi = 0.1\nlength = 30\nvariant = bogus"))


def test_synth_size_key_reaches_the_generic_learner():
    body = "algorithm = generic\nclass = thresh\nk = 2\nn = 100\nuniverse = 8\ndelta = 0\nepsilon_prime = 1"
    with pytest.raises(EnumerationBudgetError):
        run_experiment(_sweep_config("learn", body))
    report = run_experiment(_sweep_config("learn", body + "\nsynth_size = 4"))
    assert report.rows[0][4:] == [3.0, 0.0]
    with pytest.raises(ConfigError, match="learn.synth_size"):
        run_experiment(_sweep_config("learn", body + "\nsynth_size = four"))


def test_generic_section_over_budget_is_refused_before_any_trial(monkeypatch):
    calls = []
    learner = harness.generic_multi_learner
    monkeypatch.setattr(harness, "generic_multi_learner", lambda *args, **kw: calls.append(1) or learner(*args, **kw))
    body = "algorithm = generic\nclass = thresh\nk = 2\nn = 100\nepsilon_prime = 1"
    refused = r"^learn\.universe: C\(\|X\|\+m-1, m\) histograms at \|X\| = 8, m = 2446 "
    with pytest.raises(EnumerationBudgetError, match=refused):
        run_experiment(_sweep_config("learn", body, "universe", (2, 8)))
    assert calls == []
    run_experiment(_sweep_config("learn", body + "\nuniverse = 2"))
    assert len(calls) == 3


@pytest.mark.parametrize("extra,message", [
    ({"universe": "645", "synth_size": "2"}, r"^learn\.synth_size: tables at \|X\| = 645, m = 2 exceed 134217728 cells"),
    ({"universe": "1048576", "synth_size": "1"}, r"^learn\.universe: tables at \|X\| = 1048576, m = 1 exceed"),
    ({"class": "parity", "d": "16", "synth_size": "1"}, r"^learn\.d: tables at \|X\| = 65536, m = 1 exceed"),
    ({"universe": "11586", "synth_size": "1"}, r"^learn\.universe: tables at \|X\| = 11586, m = 1 exceed"),
    ({"class": "parity", "d": "14", "synth_size": "1"}, r"^learn\.d: tables at \|X\| = 16384, m = 1 exceed"),
])
def test_generic_budget_refusal_names_the_key_that_sets_the_size(extra, message):
    params = {"algorithm": "generic", "class": "thresh", "k": "2", "n": "400", "epsilon_prime": "1", **extra}
    with pytest.raises(EnumerationBudgetError, match=message):
        read_learn(params)
    read_learn({**params, "synth_size": "1", **({"d": "3"} if "d" in extra else {"universe": "8"})})


def _at_nine_digits(rows):
    """rows with each float as to_csv and to_json write it."""
    return [[float(format_float(v)) if isinstance(v, float) else v for v in row] for row in rows]


class TestEmit:
    def test_csv_header_only_when_empty(self):
        report = TrialReport("learn", ["n", "trials"], [])
        assert to_csv(report) == "n,trials\n"

    def test_csv_round_trip(self):
        report = run_experiment(parse_config(SANITIZE_CFG))
        cols, *rows = csv.reader(io.StringIO(to_csv(report)))
        assert cols == report.columns
        assert [[json.loads(v) for v in row] for row in rows] == _at_nine_digits(report.rows)

    def test_json_round_trip(self):
        report = run_experiment(parse_config(ATTACK_CFG))
        back = TrialReport(**json.loads(to_json(report)))
        assert back == replace(report, rows=_at_nine_digits(report.rows),
                               per_trial_rows=_at_nine_digits(report.per_trial_rows))

    def test_json_and_csv_agree(self):
        report = run_experiment(parse_config(SANITIZE_CFG))
        cols, *rows = csv.reader(io.StringIO(to_csv(report)))
        payload = json.loads(to_json(report))
        assert payload["columns"] == cols
        assert payload["rows"] == [[json.loads(v) for v in row] for row in rows]

    def test_floats_at_nine_significant_digits(self):
        assert format_float(1 / 3) == "0.333333333"
        assert format_float(0.25) == "0.25"
        report = TrialReport("learn", ["v"], [[1 / 3]])
        assert "0.333333333" in to_csv(report)

    def test_emit_to_path_and_stream(self, tmp_path):
        report = TrialReport("learn", ["a"], [[1]])
        target = tmp_path / "r.csv"
        emit(report, "csv", target)
        assert target.read_text() == "a\n1\n"
        with pytest.raises(OSError, match="nonexistent"):
            emit(report, "csv", tmp_path / "nonexistent" / "r.csv")

    def test_golden_attack_csv(self):
        # Schema + value stability for a pinned fixture config.
        report = run_experiment(parse_config(ATTACK_CFG))
        lines = to_csv(report).splitlines()
        assert lines[0] == "trial,feasible,accused,accurate,flagged"
        # n=4 exact thresholds: type blocks flip at t >= n/2, so user 1 is accused.
        assert lines[1] == "0,1,1,1,0"
        assert len(lines) == 11


class TestParseDistribution:
    def test_uniform(self):
        d = parse_distribution("uniform", Universe.indexed(4))
        assert np.allclose(d.pmf, 0.25)

    def test_pointmass(self):
        d = parse_distribution("pointmass:2", Universe.indexed(4))
        assert d.pmf[2] == 1.0

    def test_weights(self):
        d = parse_distribution("weights:1,1,2,0", Universe.indexed(4))
        assert np.allclose(d.pmf, [0.25, 0.25, 0.5, 0.0])

    def test_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1\n3\n")
        d = parse_distribution(str(path), Universe.indexed(2))
        assert np.allclose(d.pmf, [0.25, 0.75])
