"""Experiment harness: declarative configs, seeded trial execution, reports.

Configs are INI files (key = value sections) with no embedded code. Every
trial draws its randomness from a stream keyed by (seed, point index, trial
index), so reports are byte-identical across runs. Trials run serially.
LEARNERS is the one per-algorithm table; configs, the CLI and attack
experiments all build their learners from it.

The harness owns experiment I/O. SECTION_KEYS declares the keys each section
reads, and a section refuses any other. Config values and the CLI's learn,
sanitize and attack flags reach the same readers as strings (_need, _checked,
_naming); every refusal is named `<section>.<key>`. A learn or sanitize section
is read once per sweep point, every point before any trial runs, and trials
take the values read. Reports hold full-precision values; to_csv and to_json
alone write floats, at 9 significant digits.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import os
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import fingerprint
from .domain import (
    PARITY,
    POINT,
    THRESH,
    ConceptClass,
    Distribution,
    Hypotheses,
    MultiLabeledDatabase,
    Universe,
    generalization_errors,
    sample_database,
    vc_sample_size,
)
from .learners import (
    LearnerFn,
    LearnResult,
    direct_sum_learner,
    erm_multi,
    generic_charges,
    generic_multi_learner,
    generic_rows_bound,
    parity_block_plan,
    parity_charges,
    parity_learner,
    point_charges,
    point_learner,
    point_rows_bound,
)
from .mechanisms import PrivacyParams, check_delta, check_epsilon, check_fraction, compose_basic
from .rng import stream
from .sanitize import sanitize_points


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


@dataclass(frozen=True)
class LearnParams:
    """Parsed learner parameters. erm and generic learn over the class `kind` on
    the universe of the database they are given."""

    kind: str
    alpha: float
    beta: float
    epsilon: float
    delta: float
    epsilon_prime: float | None = None
    synth_size: int | None = None


@dataclass(frozen=True)
class Learner:
    """One LEARNERS entry.

    build(params) returns a (db, rng) learner that looks the learner up by its
    module-level name at call time, so wrappers installed on module attributes
    see every call. plan takes plan_sample_size's keywords.
    charges(params, k) calls the learner's charge schedule: the ledger it must
    hold on every outcome, aborts included. An exact learner learns parities
    only, and its trials succeed only on exact recovery of the targets.
    delta_check(delta, name) refuses a delta outside the learner's range.
    """

    build: Callable[[LearnParams], LearnerFn]
    plan: Callable[..., int]
    charges: Callable[[LearnParams, int], list[PrivacyParams]]
    exact: bool = False
    delta_check: Callable[[float, str], None] = check_fraction


def _generic(p: LearnParams) -> LearnerFn:
    if p.epsilon_prime is None:
        raise ConfigError("learn.epsilon_prime: required for the generic learner")
    return lambda db, rng: generic_multi_learner(
        db, ConceptClass(p.kind, db.universe), p.alpha, p.beta, p.epsilon, p.epsilon_prime, p.delta, rng,
        synth_size=p.synth_size,
    )


def _erm_rows(cclass: ConceptClass, alpha: float, beta: float, **_) -> int:
    """erm's plan, the realizable VC bound; its learner flags n below it."""
    return vc_sample_size(cclass.vc_dim, alpha, beta)


def _erm(p: LearnParams) -> LearnerFn:
    def learn(db, rng):
        cclass = ConceptClass(p.kind, db.universe)
        return replace(erm_multi(db, cclass), below_sample_bound=db.n < _erm_rows(cclass, p.alpha, p.beta))

    return learn


_POINTS = Learner(
    lambda p: lambda db, rng: point_learner(db, p.alpha, p.epsilon, p.delta, rng, beta=p.beta),
    lambda alpha, beta, delta, epsilon, **_: point_rows_bound(alpha, beta, delta, epsilon),
    lambda p, k: point_charges(p.epsilon, p.delta),
)

LEARNERS: dict[str, Learner] = {
    "points": _POINTS,
    "parities": Learner(
        lambda p: lambda db, rng: parity_learner(db, p.epsilon, p.delta, p.beta, rng),
        lambda cclass, epsilon, beta, delta, **_: math.prod(
            parity_block_plan(cclass.universe.bit_width, epsilon, beta, delta)
        ),
        lambda p, k: parity_charges(p.epsilon, p.delta),
        exact=True,
    ),
    "generic": Learner(
        _generic,
        lambda cclass, k, alpha, beta, epsilon, epsilon_prime, delta, **_: generic_rows_bound(
            cclass, k, alpha, beta, epsilon, epsilon_prime, delta
        ),
        lambda p, k: generic_charges(k, p.epsilon, p.epsilon_prime, p.delta),
        delta_check=check_delta,
    ),
    "direct-sum": Learner(
        lambda p: lambda db, rng: direct_sum_learner(_POINTS.build(p), db, rng),
        _POINTS.plan,
        lambda p, k: point_charges(p.epsilon, p.delta) * k,
    ),
    "erm": Learner(
        _erm,
        _erm_rows,
        lambda p, k: [],
        delta_check=lambda delta, name: None,  # erm charges nothing
    ),
}


def plan_sample_size(
    algorithm: str,
    *,
    cclass: ConceptClass | None = None,
    k: int = 1,
    alpha: float | None = None,
    beta: float | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
    epsilon_prime: float | None = None,
) -> int:
    """Planning sample size for each learner, with this package's pinned
    constants; erm plans the realizable VC bound."""
    if algorithm not in LEARNERS:
        raise ValueError(f"unknown algorithm tag {algorithm!r}")
    return LEARNERS[algorithm].plan(
        cclass=cclass, k=k, alpha=alpha, beta=beta, epsilon=epsilon, delta=delta,
        epsilon_prime=epsilon_prime,
    )


def format_float(value: float) -> str:
    return f"{value:.9g}"


def _round9(value):
    """A float at the 9 significant digits reports are written with; any other value unchanged."""
    return float(format_float(value)) if isinstance(value, float) else value


@dataclass
class TrialReport:
    """Aggregate rows per sweep point, plus optional per-trial rows, at full precision."""

    kind: str
    columns: list[str]
    rows: list[list]
    per_trial_columns: list[str] | None = None
    per_trial_rows: list[list] | None = None
    meta: dict = field(default_factory=dict)


def emit(report: TrialReport, fmt: str, destination) -> None:
    """Write a report as CSV (single table) or JSON (full structure).

    CSV carries the per-trial table when present, otherwise the aggregates.
    Floats are printed at 9 significant digits in both formats.
    """
    if fmt == "csv":
        text = to_csv(report)
    elif fmt == "json":
        text = to_json(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {destination}: {exc.strerror or exc}") from exc


def to_csv(report: TrialReport) -> str:
    if report.per_trial_rows is not None:
        columns, rows = report.per_trial_columns, report.per_trial_rows
    else:
        columns, rows = report.columns, report.rows
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def to_json(report: TrialReport) -> str:
    def table(rows):
        return None if rows is None else [[_round9(v) for v in row] for row in rows]

    payload = {
        "kind": report.kind,
        "columns": report.columns,
        "rows": table(report.rows),
        "per_trial_columns": report.per_trial_columns,
        "per_trial_rows": table(report.per_trial_rows),
        "meta": {key: _round9(v) for key, v in report.meta.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The keys each section reads; a section refuses any other. A kind's section may also set the report `format`.
SECTION_KEYS = {
    "experiment": ("kind", "trials", "seed", "sweep", "values"),
    "learn": ("algorithm", "n", "k", "alpha", "beta", "epsilon", "epsilon_prime", "delta", "synth_size", "universe",
              "d", "class", "dist", "targets"),
    "sanitize": ("n", "universe", "alpha", "epsilon", "delta", "dist"),
    "attack": ("n_users", "xi", "learner", "variant", "length", "alpha", "beta", "epsilon", "epsilon_prime", "delta"),
}


def _refuse_unknown(section: str, params: Mapping, known: Sequence[str]) -> None:
    """Refuse the first key of a section that is not among known."""
    for key in params:
        if key not in known:
            raise ConfigError(f"{section}.{key}: unknown key")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description parsed from an INI file; format is the report's, csv or json."""

    kind: str
    trials: int
    seed: int
    sweep_axis: str | None
    sweep_values: tuple[int, ...]
    params: dict
    format: str = "csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"experiment.trials: must be >= 1, got {self.trials}")

    def points(self) -> Sequence[int | None]:
        return self.sweep_values if self.sweep_axis else (None,)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("experiment: section missing")
    return config_from_sections(parser["experiment"], parser)


def config_from_sections(exp: Mapping, sections: Mapping[str, Mapping]) -> ExperimentConfig:
    """An experiment from its [experiment] section and the section named by its kind.

    Values may be strings, as a config file gives them; the CLI passes its flags so.
    """
    _refuse_unknown("experiment", exp, SECTION_KEYS["experiment"])
    kind = exp.get("kind", "").strip()
    if kind not in ("learn", "sanitize", "attack"):
        raise ConfigError(f"experiment.kind: expected learn|sanitize|attack, got {kind!r}")
    trials = _need(exp, "experiment", "trials", int)
    seed = _need(exp, "experiment", "seed", int, low=0)
    sweep_axis = exp.get("sweep", "").strip() or None
    sweep_values: tuple[int, ...] = ()
    if sweep_axis:
        raw = exp.get("values", "").split()
        if not raw:
            raise ConfigError("experiment.values: required when sweep is set")
        try:
            sweep_values = tuple(int(v) for v in raw)
        except ValueError:
            raise ConfigError("experiment.values: integers required")
        if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
            raise ConfigError("experiment.values: must be strictly increasing")
    if kind not in sections:
        raise ConfigError(f"{kind}: section missing")
    _refuse_unknown(kind, sections[kind], SECTION_KEYS[kind] + ("format",))
    params = dict(sections[kind])
    fmt = params.pop("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{kind}.format: expected csv|json, got {fmt!r}")
    return ExperimentConfig(kind, trials, seed, sweep_axis, sweep_values, params, fmt)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _need(params: Mapping, section: str, key: str, cast: Callable, default=None, low: int | None = None):
    """A section's key through cast; required unless it has a default, and at least low if given."""
    if key not in params:
        if default is not None:
            return default
        raise ConfigError(f"{section}.{key}: required")
    try:
        value = cast(params[key])
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {params[key]!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"{section}.{key}: must be >= {low}, got {value}")
    return value


def _checked(params: Mapping, section: str, key: str, check: Callable, default: float | None = None) -> float:
    """A section's float key that check(value, name) accepts; a refused value is named `<section>.<key>`."""
    value = _need(params, section, key, float, default)
    check(value, f"{section}.{key}")
    return value


def sanitize_privacy(params: Mapping) -> tuple[float, float]:
    """A [sanitize] section's epsilon and delta, each checked under its key."""
    return _checked(params, "sanitize", "epsilon", check_epsilon), _checked(params, "sanitize", "delta", check_fraction)


@contextlib.contextmanager
def _naming(section: str, key: str):
    """Report a value that a constructor or reader refuses as `<section>.<key>: <message>`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


def parse_distribution(spec: str, universe: Universe, section: str = "learn") -> Distribution:
    """A section's `dist` key; any spec that does not parse or read names `<section>.dist`."""
    spec = spec.strip()
    with _naming(section, "dist"):
        if spec == "uniform":
            return Distribution.uniform(universe)
        if spec.startswith("pointmass:"):
            return Distribution.point_mass(universe, int(spec.split(":", 1)[1]))
        if spec.startswith("weights:"):
            weights = [float(w) for w in spec.split(":", 1)[1].split(",")]
        elif os.path.exists(spec):
            with open(spec) as fh:
                weights = [float(line) for line in fh if line.strip()]
        else:
            raise ValueError(f"expected uniform | pointmass:<x> | weights:<w,...> | <file>, got {spec!r}")
        return Distribution.from_weights(universe, weights)


def _learn_class(params: dict, parities: bool) -> str:
    """A learn section's concept class; parities read `d`, the other classes read `universe`."""
    class_kind = params.get("class", PARITY if parities else POINT)
    if class_kind not in (POINT, THRESH, PARITY) or (parities and class_kind != PARITY):
        expected = PARITY if parities else "point|thresh|parity"
        raise ConfigError(f"learn.class: expected {expected}, got {class_kind!r}")
    return class_kind


def _learn_universe(params: dict, parities: bool) -> tuple[Universe, ConceptClass]:
    class_kind = _learn_class(params, parities)
    key, make = ("d", Universe.bitvectors) if class_kind == PARITY else ("universe", Universe.indexed)
    value = _need(params, "learn", key, int)
    with _naming("learn", key):
        universe = make(value)
    return universe, ConceptClass(class_kind, universe)


def _fixed_targets(params: Mapping, cclass: ConceptClass, k: int) -> Hypotheses | None:
    spec = params.get("targets", "random").strip()
    if spec == "random":
        return None
    try:
        fixed = [int(p) for p in spec.split(",")]
    except ValueError:
        raise ConfigError(f"learn.targets: expected 'random' or comma list, got {spec!r}")
    if len(fixed) != k:
        raise ConfigError(f"learn.targets: expected {k} parameters, got {len(fixed)}")
    if min(fixed) < 0:
        raise ConfigError(f"learn.targets: parameters must be >= 0, got {min(fixed)}")
    with _naming("learn", "targets"):
        return Hypotheses(cclass.universe, cclass.kind, np.array(fixed, dtype=np.int64))


def _learn_params(
    params: Mapping, section: str, entry: Learner, kind: str, delta: float, epsilon_prime: float | None
) -> LearnParams:
    """Parse a section's parameters for entry's learner; delta and epsilon_prime are the section's defaults."""
    if "epsilon_prime" in params:
        epsilon_prime = _checked(params, section, "epsilon_prime", check_epsilon)
    return LearnParams(
        kind,
        alpha=_checked(params, section, "alpha", check_fraction, 0.2),
        beta=_checked(params, section, "beta", check_fraction, 0.1),
        epsilon=_checked(params, section, "epsilon", check_epsilon, 1.0),
        epsilon_prime=epsilon_prime,
        delta=_checked(params, section, "delta", entry.delta_check, delta),
        synth_size=_need(params, section, "synth_size", int, low=1) if "synth_size" in params else None,
    )


class LearnSetting(NamedTuple):
    """A learn section's values (targets is None when each trial draws its own); total composes the plan."""

    n: int
    entry: Learner
    params: LearnParams
    learner: LearnerFn
    k: int
    dist: Distribution
    targets: Hypotheses | None
    plan: list[PrivacyParams]
    total: tuple[float, float]


def _plan_total(plan: list[PrivacyParams], section: str, key: str) -> tuple[float, float]:
    """The basic-composition total of plan, or (0, 0) for an empty one; a plan that cannot compose, as
    direct-sum's with k * delta >= 1, is refused as `<section>.<key>`."""
    with _naming(section, key):
        return astuple(compose_basic(plan)) if plan else (0.0, 0.0)


def read_learn(params: Mapping) -> LearnSetting:
    """Read a learn section once, in the order its errors are reported; its plan is composed by _plan_total."""
    n = _need(params, "learn", "n", int, low=1)
    algorithm = params.get("algorithm", "")
    if algorithm not in LEARNERS:
        raise ConfigError(f"learn.algorithm: expected one of {tuple(LEARNERS)}, got {algorithm!r}")
    entry = LEARNERS[algorithm]
    k = _need(params, "learn", "k", int, low=1)
    universe, cclass = _learn_universe(params, entry.exact)
    p = _learn_params(params, "learn", entry, cclass.kind, 0.0, None)
    learner = entry.build(p)
    plan = entry.charges(p, k)
    total = _plan_total(plan, "learn", "k")
    dist = parse_distribution(params.get("dist", "uniform"), universe)
    return LearnSetting(n, entry, p, learner, k, dist, _fixed_targets(params, cclass, k), plan, total)


def _held_to_plan(result: LearnResult, plan: list[PrivacyParams]) -> LearnResult:
    """result, once its ledger is checked equal to plan, one charge at a time."""
    if result.ledger.charges != plan:
        raise RuntimeError(f"ledger charges {result.ledger.charges} != planned charges {plan}")
    return result


def sample_and_learn(s: LearnSetting, seed: int, point_idx: int, trial: int):
    """(targets, result) of one trial on the stream keyed by (seed, point_idx, trial), which draws any random
    targets before the sample; the result's ledger must equal the setting's plan, one charge at a time."""
    rng = stream(seed, point_idx, trial)
    targets = s.targets
    if targets is None:
        targets = Hypotheses(s.dist.universe, s.params.kind, rng.integers(0, s.dist.universe.size, size=s.k))
    db = sample_database(s.dist, targets, s.n, rng)
    return targets, _held_to_plan(s.learner(db, rng), s.plan)


def run_learn_trial(seed: int, s: LearnSetting, point_idx: int, trial: int) -> tuple[bool, float]:
    targets, result = sample_and_learn(s, seed, point_idx, trial)
    if result.failed:
        return False, 1.0
    max_err = max(generalization_errors(s.dist, targets, result.hypotheses))
    success = np.array_equal(result.hypotheses.params, targets.params) if s.entry.exact else max_err <= s.params.alpha
    return success, max_err


class SanitizeSetting(NamedTuple):
    """A sanitize section's values; total is the (epsilon, delta) of its one release."""

    n: int
    dist: Distribution
    alpha: float
    total: tuple[float, float]


def read_sanitize(params: Mapping) -> SanitizeSetting:
    """Read a sanitize section once, checked in the order its errors are reported."""
    n = _need(params, "sanitize", "n", int, low=1)
    size = _need(params, "sanitize", "universe", int)
    alpha = _checked(params, "sanitize", "alpha", check_fraction)
    epsilon, delta = sanitize_privacy(params)
    with _naming("sanitize", "universe"):
        universe = Universe.indexed(size)
    dist = parse_distribution(params.get("dist", "uniform"), universe, "sanitize")
    return SanitizeSetting(n, dist, alpha, (epsilon, delta))


def run_sanitize_trial(seed: int, s: SanitizeSetting, point_idx: int, trial: int) -> tuple[bool, float]:
    rng = stream(seed, point_idx, trial)
    db = MultiLabeledDatabase.unlabeled(s.dist.universe, s.dist.sample(s.n, rng))
    answers = sanitize_points(db, *s.total, rng)
    truth = np.bincount(db.xs, minlength=s.dist.universe.size) / db.n
    max_err = float(np.abs(answers.as_vector() - truth).max())
    return max_err <= s.alpha, max_err


# The integer keys a sweep may set, per experiment kind.
SWEEP_AXES = {"learn": ("n", "k", "d", "universe"), "sanitize": ("n", "universe"), "attack": ()}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> TrialReport:
    """Read every sweep point's section, then run each point's trials serially.

    Each sweep value replaces the section's key named by the sweep axis.
    `threads` is ignored. It stays only because bench/workloads.py passes it.
    """
    axes = SWEEP_AXES[config.kind]
    if config.sweep_axis is not None and config.sweep_axis not in axes:
        allowed = " | ".join(axes) if axes else "no sweep"
        raise ConfigError(f"experiment.sweep: {config.kind} takes {allowed}, got {config.sweep_axis!r}")
    if config.kind == "learn" and config.sweep_axis in ("d", "universe"):
        entry = LEARNERS.get(config.params.get("algorithm", ""))
        read = "d" if _learn_class(config.params, entry is not None and entry.exact) == PARITY else "universe"
        if config.sweep_axis != read:
            raise ConfigError(f"experiment.sweep: this learn class reads {read}, not {config.sweep_axis!r}")
    if config.kind == "attack":
        return _run_attack(config)
    reader, runner = (read_learn, run_learn_trial) if config.kind == "learn" else (read_sanitize, run_sanitize_trial)
    axis = config.sweep_axis or "n"
    settings = [reader(config.params if p is None else {**config.params, axis: str(p)}) for p in config.points()]
    columns = [axis, "trials", "success_rate", "mean_max_error", "epsilon_total", "delta_total"]
    rows = []
    for point_idx, (point, setting) in enumerate(zip(config.points(), settings)):
        successes, errors = zip(*(runner(config.seed, setting, point_idx, t) for t in range(config.trials)))
        key = setting.n if point is None else point
        rows.append([key, config.trials, sum(successes) / config.trials, math.fsum(errors) / config.trials,
                     *setting.total])
    return TrialReport(config.kind, columns, rows, meta={"seed": config.seed})


# An attack report's rate columns (AttackReport properties) and per-trial columns (its row keys).
_ATTACK_RATES = ("completeness_rate", "soundness_violation_rate", "accuracy_rate", "flagged_rate")
_ATTACK_TRIAL_COLUMNS = ("trial", "feasible", "accused", "accurate", "flagged")


def _run_attack(config: ExperimentConfig) -> TrialReport:
    params = config.params
    n_users = _need(params, "attack", "n_users", int)
    if not 2 <= n_users <= fingerprint.MAX_USERS:
        raise ConfigError(f"attack.n_users: must be in [2, {fingerprint.MAX_USERS}], got {n_users}")
    xi = _checked(params, "attack", "xi", check_fraction)
    length = _need(params, "attack", "length", int, low=1) if "length" in params else None
    if length is not None and length % (n_users - 1):
        raise ConfigError(f"attack.length: must be a multiple of n_users - 1 = {n_users - 1}, got {length}")
    name = params.get("learner", "erm").strip()
    if name not in LEARNERS:
        raise ConfigError(f"attack.learner: unknown {name!r}")
    variant = params.get("variant", "pac").strip()
    if variant not in fingerprint.VARIANTS:
        raise ConfigError(f"attack.variant: expected {'|'.join(fingerprint.VARIANTS)}, got {variant!r}")
    entry = LEARNERS[name]
    if entry.exact and fingerprint.VARIANTS[variant] != PARITY:
        raise ConfigError(f"attack.variant: expected parity for the {name} learner, got {variant!r}")
    p = _learn_params(params, "attack", entry, fingerprint.VARIANTS[variant], 0.01, 1.0)
    # Every code column is one label: the plan is composed once at the code length, and held to on every play.
    plan = entry.charges(p, length or fingerprint.code_length(n_users, xi))
    _plan_total(plan, "attack", "length")
    # Attack databases have <= 8 users; a size-6 synthetic database keeps
    # the exhaustive sanitizer inside its enumeration budget.
    learn = entry.build(replace(p, synth_size=6))
    report = fingerprint.attack_experiment(
        lambda db, rng: _held_to_plan(learn(db, rng), plan), n_users, xi, config.trials, variant, p.alpha,
        config.seed, length=length,
    )
    columns = ["n_users", "trials", *_ATTACK_RATES]
    rows = [[n_users, config.trials, *(getattr(report, rate) for rate in _ATTACK_RATES)]]
    per_rows = [[r[column] for column in _ATTACK_TRIAL_COLUMNS] for r in report.rows]
    return TrialReport(
        "attack", columns, rows, per_trial_columns=list(_ATTACK_TRIAL_COLUMNS), per_trial_rows=per_rows,
        meta={"seed": config.seed, "length": report.length},
    )
