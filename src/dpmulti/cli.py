"""Command-line interface.

Subcommands: learn, sanitize, attack, mech, experiment. All randomness comes
from --seed; runs are reproducible byte for byte. `learn` and `attack` run the
harness's paths and its LEARNERS table; `experiment run` runs its trials
serially. Exit codes: 0 success, 1 invalid configuration or arguments,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .domain import generalization_errors, load_database
from .fingerprint import VARIANTS
from .harness import (
    LEARNERS,
    ConfigError,
    ExperimentConfig,
    TrialReport,
    emit,
    load_config,
    run_experiment,
    sample_and_learn,
)
from .mechanisms import (
    PrivacyParams,
    compose_advanced,
    compose_basic,
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

    learn = sub.add_parser("learn", help="run one multi-learning pass on sampled data")
    learn.add_argument("algorithm", choices=tuple(LEARNERS))
    learn.add_argument("--k", type=int, required=True)
    learn.add_argument("--n", type=int, required=True)
    learn.add_argument("--alpha", type=float, default=0.2)
    learn.add_argument("--beta", type=float, default=0.1)
    learn.add_argument("--epsilon", type=float, default=1.0)
    learn.add_argument("--epsilon-prime", type=float, default=None)
    learn.add_argument("--delta", type=float, default=0.01)
    learn.add_argument("--synth-size", type=int, default=None, help="exhaustive sanitizer's synthetic rows")
    learn.add_argument("--universe", type=int, default=None, help="universe size (indexed classes)")
    learn.add_argument("--d", type=int, default=None, help="bit width (parity class)")
    learn.add_argument("--class", dest="class_kind", default=None, choices=("point", "thresh", "parity"))
    learn.add_argument("--dist", default="uniform")
    learn.add_argument("--targets", default="random")
    _add_common(learn)

    san = sub.add_parser("sanitize", help="differentially private query release")
    san.add_argument("queries", choices=("points",))
    san.add_argument("--alpha", type=float, required=True)
    san.add_argument("--epsilon", type=float, required=True)
    san.add_argument("--delta", type=float, required=True)
    san.add_argument("--input", required=True, help="database file (header + `x y1 .. yk` rows)")
    _add_common(san)

    attack = sub.add_parser("attack", help="fingerprinting-code tracing attack experiments")
    attack.add_argument("code", choices=("boneh-shaw",))
    attack.add_argument("--n", type=int, required=True, help="number of users (<= 8)")
    attack.add_argument("--xi", type=float, required=True, help="code security level")
    attack.add_argument("--trials", type=int, required=True)
    attack.add_argument("--learner", choices=tuple(LEARNERS), default="erm")
    attack.add_argument("--variant", choices=tuple(VARIANTS), default="pac")
    attack.add_argument("--alpha", type=float, default=0.2)
    attack.add_argument("--length", type=int, default=None)
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


def _emit(report: TrialReport, fmt: str, out: str | None) -> None:
    if out is not None and os.path.isdir(out):
        raise ConfigError(f"--out: cannot write report to {out}: it is a directory")
    emit(report, fmt, sys.stdout if out is None else out)


def _cmd_learn(args) -> int:
    params = {
        "algorithm": args.algorithm, "k": args.k, "alpha": args.alpha, "beta": args.beta,
        "epsilon": args.epsilon, "epsilon_prime": args.epsilon_prime, "delta": args.delta,
        "universe": args.universe, "d": args.d, "class": args.class_kind,
        "dist": args.dist, "targets": args.targets, "synth_size": args.synth_size,
    }
    params = {key: value for key, value in params.items() if value is not None}
    _, _, dist, targets, result = sample_and_learn(params, args.seed, args.n, 0, 0)

    columns = ["label", "hypothesis", "parameter", "target", "error"]
    rows = []
    target_params = targets.params.tolist()
    if result.failed:
        rows = [[j, "bottom", -1, c, 1.0] for j, c in enumerate(target_params)]
    else:
        errors = generalization_errors(dist, targets, result.hypotheses)
        for j, (h, c, err) in enumerate(zip(result.hypotheses, target_params, errors)):
            rows.append([j, h.kind, -1 if h.param is None else h.param, c, err])
    meta = {"seed": args.seed, "n": args.n, "failed": result.failed,
            "below_sample_bound": result.below_sample_bound}
    if result.ledger.charges:
        total = result.ledger.basic_total()
        meta["epsilon_total"] = total.epsilon
        meta["delta_total"] = total.delta
    report = TrialReport("learn", columns, rows, meta=meta).rounded()
    _emit(report, args.format, args.out)
    return 0


def _cmd_sanitize(args) -> int:
    try:
        db = load_database(args.input)
    except OSError as exc:
        raise ConfigError(f"--input: cannot read {args.input}: {exc}") from exc
    rng = stream(args.seed, 0, 0)
    answers = sanitize_points(db, args.alpha, args.epsilon, args.delta, rng)
    columns = ["x", "a_x"]
    rows = [[x, answers.answers[x]] for x in answers.support]
    report = TrialReport(
        "sanitize", columns, rows,
        meta={"seed": args.seed, "n": db.n, "universe": db.universe.size},
    ).rounded()
    _emit(report, args.format, args.out)
    return 0


def _cmd_attack(args) -> int:
    params = {"n_users": args.n, "xi": args.xi, "learner": args.learner, "variant": args.variant, "alpha": args.alpha}
    if args.length is not None:
        params["length"] = args.length
    config = ExperimentConfig("attack", args.trials, args.seed, None, (), params)
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
        picks = [exponential_mechanism(scores, args.epsilon, args.sensitivity, rng) for _ in range(args.draws)]
        report = TrialReport("mech", ["draw", "choice"], [[i, names[p]] for i, p in enumerate(picks)],
                             meta={"epsilon": args.epsilon, "seed": args.seed})
    else:
        _check_count(args, "--count", 1)
        charges = [PrivacyParams(args.epsilon, args.delta)] * args.count
        if args.mode == "basic":
            total = compose_basic(charges)
        else:
            if args.delta_prime is None:
                raise ConfigError("mech.compose: --delta-prime required in advanced mode")
            total = compose_advanced(charges, args.delta_prime)
        report = TrialReport("mech", ["epsilon_total", "delta_total"],
                             [[total.epsilon, total.delta]], meta={"mode": args.mode})
    _emit(report.rounded(), args.format, args.out)
    return 0


def _cmd_experiment(args) -> int:
    try:
        config = load_config(args.config)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
    report = run_experiment(config)
    fmt = args.format or config.params.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{config.kind}.format: expected csv|json, got {fmt!r}")
    _emit(report, fmt, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
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
