"""Command-line interface.

Subcommands: learn, sanitize, attack, mech, experiment. All randomness comes
from --seed; runs are reproducible byte for byte. The harness owns experiment
I/O: each learn, sanitize and attack flag but --seed reaches it as a string
under its config key (SECTION_KEYS; attack's --n is n_users, --trials is
experiment.trials), so a bad value is named `<section>.<key>`, and harness.emit
writes every report. Only `mech` reads its own flags.
Exit codes: 0 success, 1 invalid configuration or arguments (an unwritable
--out included), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .domain import generalization_errors, load_database
from .harness import (
    LEARNERS,
    SECTION_KEYS,
    ConfigError,
    TrialReport,
    config_from_sections,
    emit,
    load_config,
    read_learn,
    run_experiment,
    sample_and_learn,
    sanitize_privacy,
)
from .mechanisms import (
    PrivacyParams,
    compose_advanced,
    compose_basic_copies,
    exponential_mechanism,
    laplace_sample,
)
from .rng import stream
from .sanitize import EnumerationBudgetError, sanitize_points


def _add_common(parser):
    parser.add_argument("--seed", type=int, required=True, help="master seed (no ambient randomness)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpmulti")
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="run one multi-learning pass on sampled data",
                           description="Every flag but --seed is the [learn] config key of its name.")
    learn.add_argument("algorithm", choices=tuple(LEARNERS))
    for key in SECTION_KEYS["learn"]:
        if key != "algorithm":
            learn.add_argument("--" + key.replace("_", "-"), dest=key)
    _add_common(learn)

    san = sub.add_parser("sanitize", help="differentially private query release",
                         description="--epsilon and --delta are the [sanitize] config keys of their names.")
    san.add_argument("queries", choices=("points",))
    for key in ("epsilon", "delta"):
        san.add_argument("--" + key)
    san.add_argument("--input", required=True, help="database file (header + `x y1 .. yk` rows)")
    _add_common(san)

    attack = sub.add_parser("attack", help="fingerprinting-code tracing attack experiments",
                            description="--trials is the [experiment] key, --n the [attack] key n_users, and every "
                                        "other flag but --seed the [attack] key of its name.")
    attack.add_argument("code", choices=("boneh-shaw",))
    attack.add_argument("--n", dest="n_users", help="number of users, 2 to 8")
    attack.add_argument("--xi", help="code security level")
    for key in ("trials", "learner", "variant", "alpha", "length"):
        attack.add_argument("--" + key)
    _add_common(attack)

    mech = sub.add_parser("mech", help="mechanism demos")
    mech_sub = mech.add_subparsers(dest="mechanism", required=True)
    lap = mech_sub.add_parser("laplace")
    lap.add_argument("--scale", type=float, required=True)
    lap.add_argument("--draws", type=int, default=10)
    _add_common(lap)
    em = mech_sub.add_parser("exponential")
    em.add_argument("--scores", required=True, help="comma list id:score, e.g. a:10,b:0")
    em.add_argument("--epsilon", type=float, required=True)
    em.add_argument("--sensitivity", type=float, default=1.0)
    em.add_argument("--draws", type=int, default=10)
    _add_common(em)
    comp = mech_sub.add_parser("compose")
    comp.add_argument("--epsilon", type=float, required=True)
    comp.add_argument("--delta", type=float, default=0.0)
    comp.add_argument("--count", type=int, required=True, help="number of identical charges")
    comp.add_argument("--mode", choices=("basic", "advanced"), default="basic")
    comp.add_argument("--delta-prime", type=float, default=None)
    comp.add_argument("--format", choices=("csv", "json"), default="csv")
    comp.add_argument("--out", default=None)

    exp = sub.add_parser("experiment", help="run a declarative experiment config")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    run = exp_sub.add_parser("run")
    run.add_argument("--config", required=True)
    run.add_argument("--format", choices=("csv", "json"), default=None, help="override config format")
    run.add_argument("--out", default=None)
    return parser


def _section(args, section: str) -> dict:
    """The given flags that are keys of section, as the strings they were given."""
    return {key: getattr(args, key) for key in SECTION_KEYS[section] if getattr(args, key, None) is not None}


def _emit(report: TrialReport, fmt: str, out: str | None) -> None:
    """Write the report to stdout, or to --out; an --out that cannot be written is invalid input."""
    if out is None:
        emit(report, fmt, sys.stdout)
        return
    try:
        emit(report, fmt, out)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None


def _cmd_learn(args) -> int:
    # The CLI's delta default is 0.01; a [learn] section's is 0.0.
    setting = read_learn({"delta": "0.01", **_section(args, "learn")})
    targets, result = sample_and_learn(setting, args.seed, 0, 0)
    columns = ["label", "hypothesis", "parameter", "target", "error"]
    target_params = targets.params.tolist()
    if result.failed:
        rows = [[j, "bottom", -1, c, 1.0] for j, c in enumerate(target_params)]
    else:
        table = result.hypotheses
        errors = generalization_errors(setting.dist, targets, table)
        rows = [[j, "zero" if p < 0 else table.kind, p, c, err]
                for j, (p, c, err) in enumerate(zip(table.params.tolist(), target_params, errors))]
    meta = {"seed": args.seed, "n": setting.n, "failed": result.failed,
            "below_sample_bound": result.below_sample_bound}
    if setting.plan:  # erm's empty plan reports no privacy total
        meta["epsilon_total"], meta["delta_total"] = setting.total
    _emit(TrialReport("learn", columns, rows, meta=meta), args.format, args.out)
    return 0


def _cmd_sanitize(args) -> int:
    epsilon, delta = sanitize_privacy(_section(args, "sanitize"))
    try:
        db = load_database(args.input)
    except OSError as exc:
        raise ConfigError(f"--input: cannot read {args.input}: {exc}") from exc
    answers = sanitize_points(db, epsilon, delta, stream(args.seed, 0, 0))
    rows = [[x, a] for x, a in zip(answers.support.tolist(), answers.answers.tolist())]
    meta = {"seed": args.seed, "n": db.n, "universe": db.universe.size}
    _emit(TrialReport("sanitize", ["x", "a_x"], rows, meta=meta), args.format, args.out)
    return 0


def _cmd_attack(args) -> int:
    experiment = {"kind": "attack", **_section(args, "experiment")}
    config = config_from_sections(experiment, {"attack": _section(args, "attack")})
    _emit(run_experiment(config), args.format, args.out)
    return 0


def _check_count(args, flag: str, low: int) -> None:
    value = getattr(args, flag[2:])
    if value < low:
        raise ConfigError(f"mech.{args.mechanism}: {flag} must be >= {low}, got {value}")


def _parse_scores(text: str) -> tuple[list[str], list[float]]:
    names, scores = [], []
    for part in text.split(","):
        name, _, score = part.partition(":")
        try:
            value = float(score)
        except ValueError:
            raise ConfigError(f"mech.exponential: --scores expects id:score pairs, got {part!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"mech.exponential: --scores must be finite, got {part!r}")
        names.append(name.strip())
        scores.append(value)
    return names, scores


def _cmd_mech(args) -> int:
    if args.mechanism == "laplace":
        _check_count(args, "--draws", 0)
        rng = stream(args.seed, 0, 0)
        draws = laplace_sample(args.scale, rng, size=args.draws)
        report = TrialReport("mech", ["draw", "value"], [[i, float(v)] for i, v in enumerate(draws)],
                             meta={"scale": args.scale, "seed": args.seed})
    elif args.mechanism == "exponential":
        _check_count(args, "--draws", 0)
        names, scores = _parse_scores(args.scores)
        rng = stream(args.seed, 0, 0)
        picks = exponential_mechanism(np.broadcast_to(scores, (args.draws, len(scores))), args.epsilon,
                                      args.sensitivity, rng)
        report = TrialReport("mech", ["draw", "choice"], [[i, names[p]] for i, p in enumerate(picks.tolist())],
                             meta={"epsilon": args.epsilon, "seed": args.seed})
    else:
        _check_count(args, "--count", 1)
        charge = PrivacyParams(args.epsilon, args.delta)
        if args.mode == "basic":
            total = compose_basic_copies(charge, args.count)
        else:
            if args.delta_prime is None:
                raise ConfigError("mech.compose: --delta-prime required in advanced mode")
            total = compose_advanced(charge, args.count, args.delta_prime)
        report = TrialReport("mech", ["epsilon_total", "delta_total"],
                             [[total.epsilon, total.delta]], meta={"mode": args.mode})
    _emit(report, args.format, args.out)
    return 0


def _cmd_experiment(args) -> int:
    try:
        config = load_config(args.config)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
    _emit(run_experiment(config), args.format or config.format, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", 0) < 0:  # mech compose takes no seed
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        if args.command == "learn":
            return _cmd_learn(args)
        if args.command == "sanitize":
            return _cmd_sanitize(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "mech":
            return _cmd_mech(args)
        return _cmd_experiment(args)
    except (ConfigError, ValueError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
