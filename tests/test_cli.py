"""CLI surface: subcommands, output formats, exit codes, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dpmulti import fingerprint, harness
from dpmulti.cli import main
from dpmulti.domain import (
    THRESH,
    ConceptClass,
    Distribution,
    MultiLabeledDatabase,
    Universe,
    save_database,
    vc_sample_size,
)
from dpmulti.harness import LEARNERS, format_float, read_learn, sample_and_learn
from dpmulti.mechanisms import PrivacyLedger, PrivacyParams, compose_basic, exponential_mechanism
from dpmulti.rng import stream

CONFIG = """
[experiment]
kind = attack
trials = 6
seed = 11

[attack]
n_users = 4
xi = 0.1
learner = erm
length = 30
"""


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def db_file(tmp_path):
    u = Universe.indexed(8)
    xs = Distribution.from_weights(u, [5, 3, 1, 1, 0, 0, 0, 0]).sample(400, stream(200, 0))
    save_database(MultiLabeledDatabase.unlabeled(u, xs), tmp_path / "db.txt")
    return str(tmp_path / "db.txt")


class TestLearnCommand:
    def test_points_csv(self, capsys):
        code, out = _run(
            capsys,
            "learn", "points", "--k", "2", "--n", "600", "--alpha", "0.2",
            "--epsilon", "1", "--delta", "0.01", "--universe", "8",
            "--dist", "weights:1,1,1,1,0,0,0,0", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,hypothesis,parameter,target,error"
        assert len(lines) == 3

    def test_parities_json(self, capsys):
        code, out = _run(
            capsys,
            "learn", "parities", "--k", "2", "--n", "1152", "--epsilon", "1",
            "--delta", "0.1", "--beta", "0.1", "--d", "6", "--seed", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["epsilon_total"] == 1.0
        assert [r[1] for r in payload["rows"]] == ["parity", "parity"]

    def test_fixed_targets(self, capsys):
        code, out = _run(
            capsys,
            "learn", "erm", "--k", "2", "--n", "200", "--universe", "8",
            "--targets", "1,5", "--seed", "9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r[3] for r in payload["rows"]] == [1, 5]
        assert all(r[4] == 0 for r in payload["rows"])

    def test_generic_requires_epsilon_prime(self, capsys):
        code, _ = _run(
            capsys,
            "learn", "generic", "--k", "1", "--n", "100", "--universe", "4", "--seed", "1",
        )
        assert code == 1

    def test_pure_dp_generic_with_synth_size(self, capsys):
        code, out = _run(
            capsys,
            "learn", "generic", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh",
            "--delta", "0", "--epsilon-prime", "1", "--synth-size", "4", "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r[1] for r in payload["rows"]] == ["thresh", "thresh"]
        assert payload["meta"]["epsilon_total"] == 3.0 and payload["meta"]["delta_total"] == 0.0

    def test_unknown_dist_spec_is_invalid_input(self, capsys):
        code = main(["learn", "erm", "--k", "1", "--n", "20", "--universe", "4", "--dist", "bogus", "--seed", "1"])
        assert code == 1
        assert "uniform | pointmass:<x> | weights:<w,...> | <file>" in capsys.readouterr().err


# Per learner: the learn settings besides algorithm, k=2 and the CLI's delta=0.01.
AGREEMENT_SETTINGS = {
    "points": {"universe": "8", "dist": "weights:1,1,1,1,0,0,0,0", "n": "600"},
    "parities": {"d": "6", "delta": "0.1", "n": "1152"},
    "generic": {"universe": "8", "epsilon_prime": "2", "n": "400"},
    "direct-sum": {"universe": "8", "dist": "weights:1,1,1,1,0,0,0,0", "n": "800"},
    "erm": {"universe": "8", "n": "200"},
}


@pytest.mark.parametrize("algorithm", list(LEARNERS))
def test_learn_command_matches_harness_learn_path(capsys, algorithm):
    seed = 21
    params = {"algorithm": algorithm, "k": "2", "delta": "0.01", **AGREEMENT_SETTINGS[algorithm]}
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in params.items() if key != "algorithm"]
    code, out = _run(capsys, "learn", algorithm, *flags, "--seed", str(seed), "--format", "json")
    assert code == 0
    payload = json.loads(out)

    setting = read_learn(params)
    _, result = sample_and_learn(setting, seed, 0, 0)
    assert not result.failed
    released = [[h.kind, -1 if h.param is None else h.param] for h in result.hypotheses]
    assert [row[1:3] for row in payload["rows"]] == released
    planned = setting.entry.charges(setting.params, 2)
    if planned:
        total = compose_basic(planned)
        assert payload["meta"]["epsilon_total"] == float(format_float(total.epsilon))
        assert payload["meta"]["delta_total"] == float(format_float(total.delta))
    else:
        assert "epsilon_total" not in payload["meta"] and "delta_total" not in payload["meta"]


class TestSanitizeCommand:
    def test_csv_columns(self, capsys, db_file):
        code, out = _run(
            capsys,
            "sanitize", "points", "--epsilon", "1", "--delta", "0.01",
            "--input", db_file, "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,a_x"
        assert len(lines) >= 3  # heavy elements released

    def test_rerun_byte_identical(self, capsys, db_file):
        _, out1 = _run(capsys, "sanitize", "points", "--epsilon", "1",
                       "--delta", "0.01", "--input", db_file, "--seed", "5")
        _, out2 = _run(capsys, "sanitize", "points", "--epsilon", "1",
                       "--delta", "0.01", "--input", db_file, "--seed", "5")
        assert out1 == out2

    @pytest.mark.parametrize("header,missing", [("# k=0", "universe"), ("# universe=8", "k")])
    def test_header_missing_key_is_invalid_input(self, capsys, tmp_path, header, missing):
        path = tmp_path / "db.txt"
        path.write_text(header + "\n1\n2\n")
        code = main([
            "sanitize", "points", "--epsilon", "1", "--delta", "0.01",
            "--input", str(path), "--seed", "5",
        ])
        assert code == 1
        assert f"lacks {missing}=" in capsys.readouterr().err

    @pytest.mark.parametrize("text,where", [
        ("# universe=8 k=x\n1\n", ":1: k: cannot parse 'x'"),
        ("# universe=8 k\n1\n", ":1: expected key=value, got 'k'"),
        ("# universe=8 k=0 bits=x\n1\n", ":1: bits: cannot parse 'x'"),
        ("# universe=8 k=1\n1 0\n2 a\n", ":3: y1: cannot parse 'a'"),
        ("# universe=8 k=1\n1 2\n", ":2: y1: must be in [0, 2), got 2"),
        ("# universe=8 k=0\n1\n8\n", ":3: x: must be in [0, 8), got 8"),
        ("# universe=8 k=2\n", ": a database needs at least one row"),
        ("# universe=8 k=0\n\n  \n", ": a database needs at least one row"),
    ], ids=["header-k", "header-no-equals", "header-bits", "label-a", "label-2", "element-outside", "no-rows",
            "blank-lines-only"])
    def test_unreadable_database_value_is_named(self, capsys, tmp_path, text, where):
        path = tmp_path / "db.txt"
        path.write_text(text)
        code = main(["sanitize", "points", "--epsilon", "1", "--delta", "0.01",
                     "--input", str(path), "--seed", "5"])
        assert code == 1
        assert f"error: {path}{where}\n" == capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,sha256",
    [
        # k > 63 labels with exact recovery.
        (
            "learn parities --k 70 --n 1152 --d 6 --delta 0.1 --seed 3 --format json",
            "a3c20e06c5fdeaf2f89061239bbde8f45eaaf500966356ed237a8da382782c67",
        ),
        # k = 2370 code columns learned as parities.
        (
            "attack boneh-shaw --n 6 --xi 0.05 --trials 4 --learner parities --variant parity --seed 7 --format json",
            "2b04388a07d6d6ffcae3e08a1736033fb1d69f91201bb477a0e04a2779b16fcd",
        ),
    ],
    ids=["learn-parities-k70", "attack-parities-k2370"],
)
def test_parity_report_golden(capsys, argv, sha256):
    code, out = _run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (
            "attack boneh-shaw --n 4 --xi 0.1 --trials 3 --learner generic --seed 5 --format json",
            "ddf8b11cdcb2ba5e6ee4496a69da4142a5c1500001183eee7581cb1631852a32",
        ),
        (
            "attack boneh-shaw --n 6 --xi 0.05 --trials 2 --learner generic --variant padded --seed 9 --format json",
            "4a608d2f70bcae21bfc096274605d9626adc4a9a20ceee99113b5c2133f8a1c3",
        ),
    ],
    ids=["n4", "n6-padded"],
)
def test_generic_attack_report_golden(capsys, argv, sha256):
    # Frozen from the exhaustive sanitizer over histograms. Re-captured when completeness began to count
    # only accurate plays: every play here is inaccurate, so completeness_rate reads 0.
    code, out = _run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (
            "attack boneh-shaw --n 6 --xi 0.05 --trials 4 --learner erm --seed 7 --format json",
            "61ab17f6d812905e998e4a59c630028f9d5697a7e61638cc0e9f83a41494844d",
        ),
        (
            "attack boneh-shaw --n 6 --xi 0.05 --trials 3 --learner erm --variant padded --seed 9 --format json",
            "6105230cf8196aa6366ffc2c74cffa80e29bcb79acbdb7e25ab27380778bbb88",
        ),
        (
            "attack boneh-shaw --n 6 --xi 0.05 --trials 3 --learner erm --variant parity --seed 5 --format json",
            "1df1c14454147089a0d876fbe2420d49cd640f75e9bb88470655055c1e791d75",
        ),
    ],
    ids=["pac", "padded", "parity"],
)
def test_erm_attack_report_golden(capsys, argv, sha256):
    # k = 2370 ERM hypotheses; frozen before the hypothesis table replaced per-Concept
    # evaluation in the pirate and the contract check, and unchanged by it.
    code, out = _run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (
            "learn points --k 70 --n 2726 --universe 16 --seed 3 --format json",
            "20bf8b4d567b53bf7613308825f8739355be6c99e2b5a14920975ce4c8078f73",
        ),
        (
            "learn direct-sum --k 9 --n 2726 --universe 16 --seed 3 --format json",
            "a1336585f586b1a3de1170a8ee7c4ca69fa7182917f08f671064a1722c844948",
        ),
        # k = 2370 code columns learned as points. Re-captured when the point sanitizer became a
        # stability histogram: on 6 rows it releases nothing, so no play aborts and none is flagged.
        (
            "attack boneh-shaw --learner points --n 6 --xi 0.05 --trials 3 --seed 7 --format json",
            "3f8014a96a8e9c2ae1f3e53e07637f29f732ebefba3d043bba4cc1dd20a4dd47",
        ),
    ],
    ids=["learn-points-k70", "learn-direct-sum-k9", "attack-points-k2370"],
)
def test_point_report_golden(capsys, argv, sha256):
    # Frozen from the per-row tuple tally of label vectors.
    code, out = _run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestAttackCommand:
    def test_per_trial_csv(self, capsys):
        code, out = _run(
            capsys,
            "attack", "boneh-shaw", "--n", "4", "--xi", "0.1", "--trials", "5",
            "--learner", "erm", "--length", "30", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,feasible,accused,accurate,flagged"
        assert len(lines) == 6

    def test_json_carries_aggregates(self, capsys):
        code, out = _run(
            capsys,
            "attack", "boneh-shaw", "--n", "4", "--xi", "0.1", "--trials", "5",
            "--learner", "erm", "--length", "30", "--seed", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][2] == "completeness_rate"
        assert payload["rows"][0][2] == 1.0


class TestMechCommand:
    def test_compose_advanced(self, capsys):
        code, out = _run(
            capsys,
            "mech", "compose", "--epsilon", "0.01", "--count", "100",
            "--mode", "advanced", "--delta-prime", "1e-6",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("0.545652177")

    def test_laplace_deterministic(self, capsys):
        _, a = _run(capsys, "mech", "laplace", "--scale", "1.0", "--draws", "5", "--seed", "3")
        _, b = _run(capsys, "mech", "laplace", "--scale", "1.0", "--draws", "5", "--seed", "3")
        assert a == b and len(a.strip().splitlines()) == 6

    def test_exponential_choices(self, capsys):
        code, out = _run(
            capsys,
            "mech", "exponential", "--scores", "a:10,b:0", "--epsilon", "2",
            "--draws", "8", "--seed", "1",
        )
        assert code == 0
        choices = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
        assert choices == {"a"}

    @pytest.mark.parametrize("seed", [0, 1, 7, 12])
    def test_exponential_report_is_a_loop_of_scalar_draws(self, capsys, seed):
        # One row-wise call over the draws reports what one 1-D call per draw would, on the same stream.
        code, out = _run(capsys, "mech", "exponential", "--scores", "a:1,b:0,c:0.5,d:-2", "--epsilon", "1.5",
                         "--draws", "40", "--seed", str(seed))
        rng = stream(seed, 0, 0)
        picks = [exponential_mechanism(np.array([1.0, 0.0, 0.5, -2.0]), 1.5, 1.0, rng) for _ in range(40)]
        assert code == 0
        assert out.splitlines() == ["draw,choice", *(f"{i},{'abcd'[p]}" for i, p in enumerate(picks))]
        assert len(set(picks)) > 1

    def test_readme_exponential_example(self, capsys):
        code, out = _run(capsys, "mech", "exponential", "--scores", "a:10,b:0", "--epsilon", "2", "--draws", "10",
                         "--seed", "7")
        assert code == 0
        assert out == "draw,choice\n" + "".join(f"{i},a\n" for i in range(10))


class TestExperimentCommand:
    def test_bad_config_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nkind = learn\ntrials = 2\nseed = 1\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["experiment", "run", "--config", str(tmp_path / "none.ini")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "erm", "--k", "1", "--n", "20", "--universe", "4", "--seed", "1"],
        ["sanitize", "points", "--epsilon", "1", "--delta", "0.01", "--input", "DB", "--seed", "1"],
        ["attack", "boneh-shaw", "--n", "4", "--xi", "0.1", "--trials", "1", "--length", "30", "--seed", "1"],
        ["mech", "laplace", "--scale", "1.0", "--seed", "1"],
        ["mech", "exponential", "--scores", "a:1,b:0", "--epsilon", "1", "--seed", "1"],
        ["experiment", "run", "--config", "CONFIG"],
    ],
    ids=["learn", "sanitize", "attack", "mech-laplace", "mech-exponential", "experiment-run"],
)
def test_threads_flag_rejected(capsys, db_file, tmp_path, argv):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    argv = [{"DB": db_file, "CONFIG": str(cfg)}.get(arg, arg) for arg in argv]
    assert main(argv) == 0
    assert main(argv + ["--threads", "2"]) == 1


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv,err", [
        ("learn parities --k 2 --n 2000 --d 4 --universe 99", "learn.universe: the parity class reads d, not universe"),
        ("learn erm --k 2 --n 200 --universe 16 --d 99", "learn.d: the point class reads universe, not d"),
        ("learn erm --class parity --k 2 --n 200 --d 4 --universe 16",
         "learn.universe: the parity class reads d, not universe"),
        ("learn generic --class thresh --k 2 --n 200 --universe 4 --d 2 --epsilon-prime 1 --synth-size 1",
         "learn.d: the thresh class reads universe, not d"),
        ("learn direct-sum --k 2 --n 200 --universe 8 --d 3", "learn.d: the point class reads universe, not d"),
    ], ids=["parities-universe", "erm-d", "erm-parity-universe", "generic-thresh-d", "direct-sum-d"])
    def test_universe_key_the_class_does_not_read_is_refused(self, capsys, argv, err):
        assert main([*argv.split(), "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("sweep,section,err", [
        ("", "algorithm = points\nk = 2\nn = 100\nuniverse = 8\nd = 3", "learn.d: the point class reads universe, not d"),
        ("sweep = universe\nvalues = 2 3\n", "algorithm = erm\nclass = parity\nk = 2\nn = 100\nd = 3",
         "learn.universe: the parity class reads d, not universe"),
        ("sweep = d\nvalues = 2 3\n", "algorithm = erm\nclass = thresh\nk = 2\nn = 100\nuniverse = 8",
         "learn.d: the thresh class reads universe, not d"),
    ], ids=["section", "parity-sweeps-universe", "thresh-sweeps-d"])
    def test_config_universe_key_the_class_does_not_read_is_refused_before_any_trial(
            self, capsys, tmp_path, monkeypatch, sweep, section, err):
        trials = []
        monkeypatch.setattr(harness, "run_learn_trial", lambda *args: trials.append(args))
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = learn\ntrials = 1\nseed = 1\n{sweep}\n[learn]\n{section}\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert trials == []

    def test_bad_flag_value(self, capsys):
        assert main(["attack", "boneh-shaw", "--n", "four", "--xi", "0.1",
                     "--trials", "1", "--seed", "1"]) == 1

    @pytest.mark.parametrize("flag", ["--epsilon", "--delta", "--beta"])
    def test_zero_parity_parameter_is_invalid_input(self, capsys, flag):
        argv = ["learn", "parities", "--k", "2", "--n", "100", "--d", "4", "--seed", "1"]
        assert main(argv) == 0
        assert main(argv + [flag, "0"]) == 1
        assert flag[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["points", "direct-sum"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--epsilon", "0", "epsilon must be positive, got 0.0"),
        ("--epsilon", "-1", "epsilon must be positive, got -1.0"),
        ("--delta", "0", "delta must be in (0, 1), got 0.0"),
        ("--beta", "0", "beta must be in (0, 1), got 0.0"),
        ("--epsilon", "inf", "epsilon must be finite, got inf"),
    ], ids=["epsilon0", "epsilon-negative", "delta0", "beta0", "epsilon-inf"])
    def test_bad_point_parameter_is_invalid_input(self, capsys, algorithm, flag, value, message):
        argv = ["learn", algorithm, "--k", "3", "--n", "500", "--universe", "8", "--seed", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag, value]) == 1
        assert message in capsys.readouterr().err

    def test_infinite_parity_epsilon_is_invalid_input(self, capsys):
        argv = ["learn", "parities", "--k", "2", "--n", "100", "--d", "4", "--epsilon", "inf", "--seed", "1"]
        assert main(argv) == 1
        assert "epsilon must be finite, got inf" in capsys.readouterr().err

    def test_infinite_sanitize_epsilon_is_invalid_input(self, capsys, db_file):
        argv = ["sanitize", "points", "--epsilon", "inf", "--delta", "0.01", "--input", db_file,
                "--seed", "1"]
        assert main(argv) == 1
        assert "epsilon must be finite, got inf" in capsys.readouterr().err

    def test_generic_sample_bound_is_the_exhaustive_sanitizers_for_thresholds(self, capsys):
        # delta > 0, but "auto" runs the exhaustive sanitizer for thresholds: 931 rows, not 6413.
        code, out = _run(capsys, "learn", "generic", "--k", "2", "--n", "5000", "--universe", "8", "--class",
                         "thresh", "--epsilon-prime", "1", "--synth-size", "4", "--seed", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["below_sample_bound"] is False

    def test_zero_generic_beta_is_invalid_input(self, capsys):
        argv = ["learn", "generic", "--class", "point", "--k", "3", "--n", "500", "--universe", "8",
                "--epsilon-prime", "1", "--seed", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--beta", "0"]) == 1
        assert "beta must be in (0, 1), got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--epsilon-prime", "0", "epsilon_prime must be positive, got 0.0"),
        ("--epsilon-prime", "-1", "epsilon_prime must be positive, got -1.0"),
        ("--alpha", "1.5", "alpha must be in (0, 1), got 1.5"),
        ("--alpha", "0", "alpha must be in (0, 1), got 0.0"),
        ("--delta", "-0.1", "delta must be in [0, 1), got -0.1"),
        ("--delta", "1.0", "delta must be in [0, 1), got 1.0"),
        ("--epsilon", "0", "epsilon must be positive, got 0.0"),
        ("--epsilon-prime", "inf", "epsilon_prime must be finite, got inf"),
        ("--epsilon", "inf", "epsilon must be finite, got inf"),
    ], ids=["epsilon-prime0", "epsilon-prime-negative", "alpha-above-1", "alpha0", "delta-negative", "delta1",
            "epsilon0", "epsilon-prime-inf", "epsilon-inf"])
    def test_bad_generic_parameter_is_invalid_input(self, capsys, flag, value, message):
        argv = ["learn", "generic", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh",
                "--delta", "0", "--epsilon-prime", "1", "--synth-size", "4", "--seed", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag, value]) == 1
        assert message in capsys.readouterr().err

    def test_negative_generic_delta_named_before_the_sanitizer_runs(self, capsys):
        code = main(["learn", "generic", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh",
                     "--delta", "-0.1", "--epsilon-prime", "1", "--seed", "1"])
        assert code == 1
        assert "delta must be in [0, 1), got -0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nope.txt", "."], ids=["missing", "directory"])
    def test_unreadable_sanitize_input_is_named(self, capsys, tmp_path, name):
        code = main(["sanitize", "points", "--epsilon", "1", "--delta", "0.01",
                     "--input", str(tmp_path / name), "--seed", "5"])
        assert code == 1
        assert "--input: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [None, "weights:a", "pointmass:x", "weights:1,1"],
                             ids=["directory", "weights-float", "pointmass-int", "weights-length"])
    def test_bad_dist_names_its_key(self, capsys, tmp_path, spec):
        argv = ["learn", "points", "--k", "2", "--n", "100", "--universe", "4", "--seed", "1"]
        assert main(argv + ["--dist", "weights:1,1,1,1"]) == 0
        capsys.readouterr()
        assert main(argv + ["--dist", str(tmp_path) if spec is None else spec]) == 1
        assert "error: learn.dist: " in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_nonpositive_synth_size_is_invalid_input(self, capsys, size):
        argv = ["learn", "generic", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh",
                "--delta", "0", "--epsilon-prime", "1", "--seed", "1"]
        assert main(argv + ["--synth-size", "4"]) == 0
        capsys.readouterr()
        assert main(argv + ["--synth-size", size]) == 1
        assert f"learn.synth_size: must be >= 1, got {size}" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5"])
    def test_erm_alpha_outside_unit_interval_is_invalid_input(self, capsys, alpha):
        argv = ["learn", "erm", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh", "--seed", "1"]
        assert main(argv + ["--alpha", "0.5"]) == 0
        capsys.readouterr()
        assert main(argv + ["--alpha", alpha]) == 1
        assert f"learn.alpha must be in (0, 1), got {float(alpha)}" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["0", "2"])
    def test_erm_beta_outside_unit_interval_is_invalid_input(self, capsys, beta):
        argv = ["learn", "erm", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh", "--seed", "1"]
        assert main(argv + ["--beta", "0.5"]) == 0
        capsys.readouterr()
        assert main(argv + ["--beta", beta]) == 1
        assert f"learn.beta must be in (0, 1), got {float(beta)}" in capsys.readouterr().err

    def test_out_directory_is_named(self, capsys, tmp_path):
        argv = ["learn", "points", "--k", "2", "--n", "100", "--universe", "4", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "report.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert f"error: --out: cannot write report to {tmp_path}: Is a directory\n" == capsys.readouterr().err

    def test_parities_with_another_class_is_invalid_input(self, capsys):
        argv = ["learn", "parities", "--k", "2", "--n", "1200", "--d", "4", "--delta", "0.1", "--seed", "1"]
        assert main(argv + ["--class", "parity"]) == 0
        capsys.readouterr()
        assert main(argv + ["--class", "point"]) == 1
        assert "learn.class" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm,domain", [
        ("points", ["--class", "thresh", "--universe", "16"]),
        ("points", ["--class", "parity", "--d", "4"]),
        ("direct-sum", ["--class", "thresh", "--universe", "16"]),
        ("direct-sum", ["--class", "parity", "--d", "4"]),
    ], ids=["points-thresh", "points-parity", "direct-sum-thresh", "direct-sum-parity"])
    def test_point_learners_with_another_class_are_invalid_input(self, capsys, algorithm, domain):
        # Both run the point learner, so they learn the point class only, as parities learns parities only.
        argv = ["learn", algorithm, "--k", "2", "--n", "300", "--seed", "1"]
        assert main(argv + domain) == 1
        assert capsys.readouterr().err == f"error: learn.class: expected point, got '{domain[1]}'\n"
        assert main(argv + ["--class", "point", "--universe", "16"]) == 0

    def test_aborted_direct_sum_reports_full_totals(self, capsys):
        code, out = _run(capsys, "learn", "direct-sum", "--k", "4", "--n", "160", "--universe", "8", "--seed", "3",
                         "--format", "json")
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["failed"] is True
        assert (meta["epsilon_total"], meta["delta_total"]) == (4.0, 0.04)

    def test_enumeration_budget_overflow_is_invalid_input(self, capsys):
        code = main(["learn", "generic", "--k", "2", "--n", "100", "--universe", "8", "--class", "thresh",
                     "--delta", "0", "--epsilon-prime", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "histograms at |X| = 8, m = 2446 exceed budget 1048576; " in err
        assert "sanitize_points" in err and len(err) < 200

    @pytest.mark.parametrize("argv,name", [
        (["--n", "1", "--xi", "0.1"], "n_users"),
        (["--n", "4", "--xi", "0"], "xi"),
        (["--n", "4", "--xi", "-0.5"], "xi"),
        (["--n", "4", "--xi", "0.1", "--length", "0"], "attack.length: must be >= 1, got 0"),
        (["--n", "4", "--xi", "0.1", "--length", "-3"], "attack.length: must be >= 1, got -3"),
        (["--n", "9", "--xi", "0.1"], "attack.n_users: must be in [2, 8], got 9"),
        (["--n", "four", "--xi", "0.1"], "attack.n_users: cannot parse 'four'"),
        (["--n", "4", "--xi", "1.5"], "attack.xi must be in (0, 1), got 1.5"),
        (["--n", "4"], "attack.xi: required"),
        (["--n", "4", "--xi", "0.1", "--variant", "bogus"], "attack.variant: expected pac|padded|parity, got 'bogus'"),
        (["--n", "6", "--xi", "0.05", "--length", "7"], "attack.length: must be a multiple of n_users - 1 = 5, got 7"),
    ], ids=["n1", "xi0", "xi-negative", "length0", "length-negative", "n9", "n-not-an-integer", "xi-above-1",
            "xi-missing", "variant-unknown", "length-not-a-multiple"])
    def test_bad_attack_parameter_is_invalid_input(self, capsys, argv, name):
        code = main(["attack", "boneh-shaw", *argv, "--trials", "1", "--learner", "erm", "--seed", "1"])
        assert code == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("kind,section,axis", [
        ("learn", "[learn]\nalgorithm = erm\nk = 1\nuniverse = 4", "bogus"),
        ("sanitize", "[sanitize]\nuniverse = 4\nalpha = 0.2\nepsilon = 1\ndelta = 0.01", "k"),
        ("attack", "[attack]\nn_users = 4\nxi = 0.1", "n"),
    ], ids=["learn-bogus", "sanitize-k", "attack-n"])
    def test_unknown_sweep_axis_is_invalid_input(self, capsys, tmp_path, kind, section, axis):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = {kind}\ntrials = 1\nseed = 1\nsweep = {axis}\nvalues = 10 20\n\n{section}\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert "experiment.sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "length"])
    def test_unparsable_attack_key_is_named(self, capsys, tmp_path, key):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = attack\ntrials = 1\nseed = 1\n\n"
                       f"[attack]\nn_users = 4\nxi = 0.1\n{key} = x\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert f"attack.{key}: cannot parse 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_invalid_input(self, capsys, k):
        assert main(["learn", "points", "--k", k, "--n", "100", "--universe", "8", "--seed", "1"]) == 1
        assert f"learn.k: must be >= 1, got {k}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["laplace", "--scale", "1", "--draws", "-1"], "mech.laplace: --draws must be >= 0, got -1"),
        (["exponential", "--scores", "a:1,b:0", "--epsilon", "1", "--draws", "-1"],
         "mech.exponential: --draws must be >= 0, got -1"),
        (["exponential", "--scores", "a10", "--epsilon", "1"],
         "mech.exponential: --scores expects id:score pairs, got 'a10'"),
        (["exponential", "--scores", "a:1,b:x", "--epsilon", "1"],
         "mech.exponential: --scores expects id:score pairs, got 'b:x'"),
        (["exponential", "--scores", "a:1,b:0", "--epsilon", "inf"], "epsilon must be finite, got inf"),
        (["exponential", "--scores", "a:1,b:nan", "--epsilon", "1", "--draws", "0"],
         "mech.exponential: --scores must be finite, got 'b:nan'"),
        (["laplace", "--scale", "inf", "--draws", "2"], "scale must be finite, got inf"),
    ], ids=["laplace-draws", "exponential-draws", "scores-no-colon", "scores-not-a-number", "exponential-inf",
            "scores-not-finite", "laplace-inf-scale"])
    def test_bad_mech_argument_is_named(self, capsys, argv, message):
        assert main(["mech", *argv, "--seed", "1"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode,total", [([], "1e+30,0"), (["--mode", "advanced", "--delta-prime", "0.1"], "2e+30,0.1")],
                             ids=["basic", "advanced"])
    @pytest.mark.parametrize("count", [10**11, 10**30, 10**400], ids=["1e11", "1e30", "1e400"])
    def test_compose_takes_a_count_no_list_could_hold(self, capsys, mode, total, count):
        # The charges are composed in closed form; 10**400 does not fit a float and its epsilon overflows.
        code = main(["mech", "compose", "--epsilon", "1", "--count", str(count), *mode])
        out, err = capsys.readouterr()
        if count == 10**400:
            assert (code, out) == (1, "")
            assert err == f"error: the composed epsilon of {count} charges must be finite, got inf\n"
        elif count == 10**30:
            assert (code, out, err) == (0, f"epsilon_total,delta_total\n{total}\n", "")
        else:
            assert code == 0 and err == ""

    def test_compose_count_below_one_is_named(self, capsys):
        assert main(["mech", "compose", "--epsilon", "1", "--count", "-2"]) == 1
        assert "mech.compose: --count must be >= 1, got -2" in capsys.readouterr().err

    def test_advanced_compose_needs_delta_prime(self, capsys):
        assert main(["mech", "compose", "--epsilon", "1", "--count", "2", "--mode", "advanced"]) == 1
        assert capsys.readouterr().err == "error: mech.compose: --delta-prime required in advanced mode\n"

    @pytest.mark.parametrize("text,message", [
        ("kind = learn\n", "config: File contains no section headers."),
        ("[learn]\nalgorithm = points\n", "experiment: section missing"),
        ("[experiment]\nkind = learn\ntrials = 1\nseed = 1\nsweep = n\nvalues = 10 x\n\n"
         "[learn]\nalgorithm = erm\nk = 2\nuniverse = 8\n", "experiment.values: integers required"),
    ], ids=["no-section-headers", "no-experiment-section", "values-not-integers"])
    def test_malformed_config_file_is_named(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("line,key", [
        ("universe = 2\ndist = weights:1%,1", "learn.dist"),
        ("universe = %(k)s", "learn.universe"),
    ], ids=["percent", "interpolation"])
    def test_config_values_are_read_literally(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = learn\ntrials = 1\nseed = 1\n\n"
                       f"[learn]\nalgorithm = erm\nk = 2\nn = 100\n{line}\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_bad_learn_class_is_blamed_before_the_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nkind = learn\ntrials = 1\nseed = 1\nsweep = universe\nvalues = 4 8\n\n"
                       "[learn]\nalgorithm = parities\nclass = point\nk = 2\nn = 100\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "learn.class: expected parity, got 'point'" in err
        assert "experiment.sweep" not in err

    def test_negative_target_is_invalid_input(self, capsys):
        code = main(["learn", "erm", "--k", "2", "--n", "20", "--universe", "4", "--targets=-1,2", "--seed", "1"])
        assert code == 1
        assert "learn.targets" in capsys.readouterr().err

    @pytest.mark.parametrize("case,key", [
        (("sanitize", "n = 100\nuniverse = 1\nalpha = 0.2\nepsilon = 1\ndelta = 0.01"), "sanitize.universe"),
        (("sanitize", "n = 0\nuniverse = 8\nalpha = 0.2\nepsilon = 1\ndelta = 0.01"), "sanitize.n"),
        (("learn", "algorithm = points\nk = 2\nn = 0\nuniverse = 8"), "learn.n"),
        (("learn", "algorithm = parities\nk = 2\nn = 100\nd = 30"), "learn.d"),
        (("learn", "algorithm = erm\nk = 2\nn = 100\nuniverse = 8\ntargets = 1,9"), "learn.targets"),
        (["--universe", "8", "--targets", "1,9"], "learn.targets"),
        (["--universe", "4", "--dist", "weights:nan,1,1,1"], "learn.dist"),
        (["--universe", "4", "--dist", "weights:inf,1,1,1"], "learn.dist"),
        (["--class", "parity", "--d", "20000"], "learn.d"),
        (["--class", "parity", "--d", "-1"], "learn.d"),
        (["--universe", "8", "--k", "x"], "learn.k"),
        (["--universe", "8", "--class", "bogus"], "learn.class"),
        (["--universe", "8", "--seed", "-3"], "--seed"),
        (("learn", "algorithm = bogus\nk = 2\nn = 100\nuniverse = 8"), "learn.algorithm"),
        (("attack", "n_users = 4\nxi = 0.1\nlearner = bogus"), "attack.learner"),
        (["--universe", "8", "--targets", "1,x"], "learn.targets"),
    ], ids=["sanitize-universe1", "sanitize-n0", "learn-n0", "learn-d30", "config-targets-outside", "targets-outside",
            "dist-nan", "dist-inf", "d-huge", "d-negative", "k-not-an-integer", "class-unknown", "seed-negative",
            "config-algorithm-unknown", "config-attack-learner-unknown", "targets-not-integers"])
    def test_bad_value_names_its_key(self, capsys, tmp_path, case, key):
        if isinstance(case, list):
            argv = ["learn", "erm", "--k", "2", "--n", "100", "--seed", "1", *case]
        else:
            kind, body = case
            cfg = tmp_path / "exp.ini"
            cfg.write_text(f"[experiment]\nkind = {kind}\ntrials = 1\nseed = 1\n\n[{kind}]\n{body}\n")
            argv = ["experiment", "run", "--config", str(cfg)]
        assert main(argv) == 1
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["attack", "boneh-shaw", "--n", "4", "--xi", "0.1", "--trials", "0"], "experiment.trials: must be >= 1, got 0"),
        (["learn", "points", "--k", "2", "--n", "0", "--universe", "8"], "learn.n: must be >= 1, got 0"),
        (["learn", "points", "--k", "2", "--n", "x", "--universe", "8"], "learn.n: cannot parse 'x'"),
        (["learn", "points", "--k", "2", "--universe", "8"], "learn.n: required"),
        (["learn", "erm", "--k", "2", "--n", "100", "--universe", "8", "--epsilon", "0"],
         "learn.epsilon must be positive, got 0.0"),
        (["learn", "generic", "--k", "2", "--n", "100", "--universe", "8", "--epsilon-prime", "0"],
         "learn.epsilon_prime must be positive, got 0.0"),
    ], ids=["attack-trials0", "learn-n0", "learn-n-not-an-integer", "learn-n-missing", "learn-epsilon0",
            "learn-epsilon-prime0"])
    def test_bad_flag_names_its_key(self, capsys, argv, message):
        assert main([*argv, "--seed", "1"]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,value,message", [
        ("sanitize", "alpha", "2", "sanitize.alpha must be in (0, 1), got 2.0"),
        ("sanitize", "alpha", "x", "sanitize.alpha: cannot parse 'x'"),
        ("sanitize", "epsilon", "0", "sanitize.epsilon must be positive, got 0.0"),
        ("sanitize", "epsilon", "inf", "sanitize.epsilon must be finite, got inf"),
        ("sanitize", "delta", "1", "sanitize.delta must be in (0, 1), got 1.0"),
        ("learn", "epsilon", "-1", "learn.epsilon must be positive, got -1.0"),
        ("learn", "epsilon_prime", "0", "learn.epsilon_prime must be positive, got 0.0"),
    ], ids=["sanitize-alpha2", "sanitize-alpha-not-a-number", "sanitize-epsilon0", "sanitize-epsilon-inf",
            "sanitize-delta1", "learn-epsilon-negative", "learn-epsilon-prime0"])
    def test_bad_privacy_key_names_its_section(self, capsys, tmp_path, kind, key, value, message):
        body = {"sanitize": {"n": "100", "universe": "8", "alpha": "0.2", "epsilon": "1", "delta": "0.01"},
                "learn": {"algorithm": "points", "k": "2", "n": "100", "universe": "8", "delta": "0.01",
                          "epsilon_prime": "1"}}[kind]
        cfg = tmp_path / "exp.ini"
        for config, code in ((body, 0), ({**body, key: value}, 1)):
            lines = "".join(f"{name} = {text}\n" for name, text in config.items())
            cfg.write_text(f"[experiment]\nkind = {kind}\ntrials = 1\nseed = 1\n\n[{kind}]\n{lines}")
            assert main(["experiment", "run", "--config", str(cfg)]) == code
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,experiment,section,message", [
        ("learn", "threads = 2", "algorithm = points\nk = 2\nn = 100\nuniverse = 8\ndelta = 0.01",
         "experiment.threads: unknown key"),
        ("learn", "", "algorithm = points\nk = 2\nn = 100\nuniverse = 8\ndelta = 0.01\nalpah = 0.5\nepsilonn = 3",
         "learn.alpah: unknown key"),
        ("sanitize", "", "n = 100\nuniverse = 8\nalpha = 0.2\nepsilon = 1\ndelta = 0.01\nk = 2",
         "sanitize.k: unknown key"),
        ("attack", "", "n_users = 4\nxi = 0.1\nlength = 30\nsynth_size = 1000000", "attack.synth_size: unknown key"),
    ], ids=["experiment-threads", "learn-typos", "sanitize-k", "attack-synth-size"])
    def test_unknown_key_is_refused(self, capsys, tmp_path, kind, experiment, section, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = {kind}\ntrials = 1\nseed = 1\n{experiment}\n\n[{kind}]\n{section}\n")
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("algorithm,section,message", [
        ("points", "universe = 8", "learn.delta must be in (0, 1), got 0.0"),
        ("direct-sum", "universe = 8\ndelta = 1", "learn.delta must be in (0, 1), got 1.0"),
        ("parities", "d = 4\ndelta = 0", "learn.delta must be in (0, 1), got 0.0"),
        ("generic", "universe = 8\nepsilon_prime = 1\ndelta = -0.5", "learn.delta must be in [0, 1), got -0.5"),
        ("erm", "universe = 8\ndelta = 5", None),
    ], ids=["points-default", "direct-sum-1", "parities-0", "generic-negative", "erm-unchecked"])
    def test_learn_delta_is_checked_against_its_learner(self, capsys, tmp_path, algorithm, section, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = learn\ntrials = 1\nseed = 1\n\n"
                       f"[learn]\nalgorithm = {algorithm}\nk = 2\nn = 100\n{section}\n")
        code = main(["experiment", "run", "--config", str(cfg)])
        if message is None:
            assert code == 0
        else:
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--epsilon", "0", "--delta", "0.01"], "sanitize.epsilon must be positive, got 0.0"),
        (["--epsilon", "1", "--delta", "1"], "sanitize.delta must be in (0, 1), got 1.0"),
        (["--epsilon", "1"], "sanitize.delta: required"),
    ], ids=["epsilon0", "delta1", "delta-missing"])
    def test_sanitize_flag_names_its_key(self, capsys, db_file, flags, message):
        assert main(["sanitize", "points", *flags, "--input", db_file, "--seed", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sanitize_takes_no_alpha(self, capsys, db_file):
        # The point sanitizer's release rule reads no accuracy target, so the flag is gone.
        argv = ["sanitize", "points", "--epsilon", "1", "--delta", "0.01", "--input", db_file, "--seed", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--alpha", "0.2"]) == 1
        assert "unrecognized arguments: --alpha 0.2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--format", "csv"]], ids=["config-format", "format-flag"])
    def test_bad_config_format_is_refused_before_any_trial(self, capsys, tmp_path, monkeypatch, flags):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(CONFIG + "format = xml\n")
        ran = []
        monkeypatch.setattr(fingerprint, "attack_experiment", lambda *args, **kwargs: ran.append(args))
        assert main(["experiment", "run", "--config", str(cfg), *flags]) == 1
        assert capsys.readouterr().err == "error: attack.format: expected csv|json, got 'xml'\n"
        assert ran == []

    @pytest.mark.parametrize("kind,sweep,section,key", [
        ("sanitize", "sweep = universe\nvalues = 8 2000000", "n = 100\nalpha = 0.2\nepsilon = 1\ndelta = 0.01",
         "sanitize.universe"),
        ("learn", "sweep = k\nvalues = 2 3", "algorithm = erm\nn = 100\nuniverse = 8\ntargets = 1,2", "learn.targets"),
        # k * delta >= 1: direct-sum's plan of 2k charges cannot compose at the second point.
        ("learn", "sweep = k\nvalues = 2 100", "algorithm = direct-sum\nn = 2726\nuniverse = 16\ndelta = 0.01",
         "learn.k"),
    ], ids=["sanitize-universe", "learn-targets", "direct-sum-k"])
    def test_bad_second_sweep_point_is_refused_before_any_trial(self, capsys, tmp_path, monkeypatch, kind, sweep,
                                                                 section, key):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\nkind = {kind}\ntrials = 3\nseed = 1\n{sweep}\n\n[{kind}]\n{section}\n")
        ran = []
        trial = getattr(harness, f"run_{kind}_trial")
        monkeypatch.setattr(harness, f"run_{kind}_trial", lambda *args: ran.append(args) or trial(*args))
        assert main(["experiment", "run", "--config", str(cfg)]) == 1
        assert f"error: {key}: " in capsys.readouterr().err
        assert len(ran) == 0

    @pytest.mark.parametrize("command", ["experiment", "learn"])
    def test_direct_sum_plan_that_cannot_compose_is_refused_before_any_learner(self, capsys, tmp_path, monkeypatch,
                                                                              command):
        calls = []
        monkeypatch.setattr(harness, "point_learner", lambda *args, **kwargs: calls.append(args))
        section = {"k": "100", "n": "2726", "universe": "16", "delta": "0.01"}
        if command == "learn":
            argv = ["learn", "direct-sum", *(f"--{key}={value}" for key, value in section.items()), "--seed", "1"]
        else:
            lines = "".join(f"{key} = {value}\n" for key, value in section.items())
            cfg = tmp_path / "exp.ini"
            cfg.write_text(f"[experiment]\nkind = learn\ntrials = 2\nseed = 1\n\n[learn]\nalgorithm = direct-sum\n"
                           + lines)
            argv = ["experiment", "run", "--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: learn.k: the composed delta of 200 charges must be in [0, 1), "
                                           "got 1.0\n")
        assert calls == []

    @pytest.mark.parametrize("command", ["experiment", "attack"])
    def test_attack_plan_that_cannot_compose_is_refused_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                                          command):
        # direct-sum charges each of the 300 code columns (epsilon/2, 0.005) twice: delta composes to 3.
        plays = []
        monkeypatch.setattr(fingerprint, "_play", lambda *args: plays.append(args))
        if command == "attack":
            argv = ["attack", "boneh-shaw", "--n", "4", "--xi", "0.1", "--trials", "1", "--learner", "direct-sum",
                    "--length", "300", "--seed", "1"]
        else:
            cfg = tmp_path / "exp.ini"
            cfg.write_text("[experiment]\nkind = attack\ntrials = 1\nseed = 1\n\n"
                           "[attack]\nn_users = 4\nxi = 0.1\nlearner = direct-sum\nlength = 300\n")
            argv = ["experiment", "run", "--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: attack.length: the composed delta of 600 charges must be in "
                                           "[0, 1), got 3.0\n")
        assert plays == []

    def test_ledger_that_differs_from_the_plan_is_a_runtime_failure(self, capsys, monkeypatch):
        learn = harness.point_learner
        monkeypatch.setattr(harness, "point_learner", lambda *args, **kwargs: replace(
            learn(*args, **kwargs), ledger=PrivacyLedger([PrivacyParams(1.0, 0.01)])))
        assert main(["learn", "points", "--k", "2", "--n", "400", "--universe", "8", "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("runtime failure: ledger charges ")

    def test_learn_command_reads_its_distribution_once(self, capsys, monkeypatch):
        reads = []
        parse = harness.parse_distribution
        monkeypatch.setattr(harness, "parse_distribution", lambda *args: reads.append(args) or parse(*args))
        assert main(["learn", "erm", "--k", "2", "--n", "100", "--universe", "8", "--seed", "1"]) == 0
        assert len(reads) == 1

    @pytest.mark.parametrize("variant", ["pac", "padded"])
    def test_parities_attack_needs_the_parity_variant(self, capsys, variant):
        argv = ["attack", "boneh-shaw", "--n", "3", "--xi", "0.1", "--trials", "1", "--learner", "parities",
                "--seed", "1"]
        assert main(argv + ["--variant", "parity"]) == 0
        capsys.readouterr()
        assert main(argv + ["--variant", variant]) == 1
        message = f"error: attack.variant: expected parity for the parities learner, got '{variant}'\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("n,below", [("5", True), ("3248", True), ("3249", False)])
    def test_erm_flags_n_below_its_plan(self, capsys, n, below):
        assert vc_sample_size(ConceptClass(THRESH, Universe.indexed(8)).vc_dim, 0.2, 0.1) == 3249
        code, out = _run(capsys, "learn", "erm", "--k", "2", "--n", n, "--universe", "8", "--class", "thresh",
                         "--seed", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["below_sample_bound"] is below

    @pytest.mark.parametrize("argv,named", [
        (["learn", "points", "--universe", "16", "--epsilon", "1e-320"], "epsilon = 1e-320"),
        (["learn", "points", "--universe", "16", "--delta", "1e-320"], "delta = 1e-320"),
        (["learn", "parities", "--d", "4", "--epsilon", "1e-320"], "epsilon = 1e-320"),
        (["learn", "direct-sum", "--universe", "16", "--epsilon", "1e-320"], "epsilon = 1e-320"),
        (["learn", "generic", "--class", "point", "--universe", "16", "--epsilon-prime", "1e-320"],
         "epsilon_prime = 1e-320"),
        (["learn", "parities", "--d", "4", "--delta", "1e-320", "--beta", "1e-10"], "delta = 1e-320"),
        (["learn", "generic", "--class", "thresh", "--universe", "8", "--epsilon-prime", "1", "--delta", "0",
          "--alpha", "1e-300"], "alpha = 2e-301"),
        (["learn", "generic", "--class", "thresh", "--universe", "8", "--epsilon-prime", "1", "--delta", "0",
          "--alpha", "1e-300", "--synth-size", "3"], "alpha = 1e-300"),
        (["learn", "generic", "--class", "thresh", "--universe", "8", "--epsilon-prime", "1", "--delta", "0",
          "--epsilon", "1e-320", "--synth-size", "3"], "epsilon = 1e-320"),
        (["learn", "generic", "--class", "point", "--universe", "16", "--epsilon-prime", "1e308"],
         "learn.k: the composed epsilon of 4 charges"),
        (["learn", "generic", "--class", "point", "--universe", "16", "--epsilon-prime", "1", "--alpha", "1e-300"],
         "alpha = 1e-300"),
        (["learn", "points", "--universe", "4", "--dist", "weights:1e308,1e308,1e308,1e308"], "learn.dist: "),
        (["mech", "compose", "--epsilon", "1e308", "--count", "3"], "the composed epsilon of 3 charges"),
        (["mech", "compose", "--epsilon", "1e200", "--count", "3", "--mode", "advanced", "--delta-prime", "0.1"],
         "the composed epsilon of 3 charges"),
        (["mech", "compose", "--epsilon", "1e154", "--count", "3", "--mode", "advanced", "--delta-prime", "0.1"],
         "the composed epsilon of 3 charges"),
        (["mech", "compose", "--epsilon", "1", "--delta", "0.2", "--count", "10", "--mode", "advanced",
          "--delta-prime", "0.5"], "the composed delta of 10 charges must be in [0, 1), got 2.5"),
        (["mech", "exponential", "--scores", "a:0,b:3", "--epsilon", "1e308", "--draws", "3"], "epsilon = 1e+308"),
        (["experiment", "run", "--config", "{sanitize}"], "epsilon = 1e-320"),
        (["attack", "boneh-shaw", "--n", "4", "--xi", "1e-320", "--trials", "1"], "security = 1e-320"),
    ], ids=["points-epsilon", "points-delta", "parities-epsilon", "direct-sum-epsilon", "generic-epsilon-prime",
            "parities-beta-delta", "generic-alpha-default-size", "generic-alpha", "generic-exhaustive-epsilon",
            "generic-composed-epsilon", "generic-points-alpha", "dist-weights-overflow", "compose-epsilon",
            "compose-advanced-epsilon-squared", "compose-advanced-epsilon", "compose-advanced-delta",
            "exponential-epsilon", "sanitize-section-epsilon", "attack-xi"])
    def test_extreme_in_range_value_is_invalid_input(self, capsys, tmp_path, argv, named):
        # Each value passes its own range check, but a bound or noise scale it sets leaves the finite floats:
        # refused as invalid input naming the value, with no runtime failure and no RuntimeWarning.
        cfg = tmp_path / "sanitize.ini"
        cfg.write_text("[experiment]\nkind = sanitize\ntrials = 1\nseed = 1\n\n"
                       "[sanitize]\nn = 50\nuniverse = 8\nalpha = 0.2\nepsilon = 1e-320\ndelta = 0.01\n")
        argv = [str(cfg) if a == "{sanitize}" else a for a in argv]
        if argv[0] == "learn":
            argv += ["--k", "3", "--n", "50"]
        if argv[:2] != ["experiment", "run"] and argv[:2] != ["mech", "compose"]:
            argv += ["--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would surface as a runtime failure, exit 2
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and named in err and "runtime failure" not in err

    def test_unwritable_out_is_invalid_input(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "x.csv"
        code = main(["mech", "compose", "--epsilon", "0.1", "--count", "2", "--out", str(target)])
        assert code == 1
        assert f"error: --out: cannot write report to {target}: No such file or directory\n" == capsys.readouterr().err


def test_module_entry_point_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "dpmulti", "attack", "boneh-shaw", "--n", "4", "--xi", "0.1", "--trials", "1",
            "--seed", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("trial,feasible,accused,accurate,flagged")
