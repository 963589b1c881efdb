"""Differentially private multi-concept learning at desk scale.

Finite-universe concept classes, exact-distribution DP mechanisms, synthetic
data sanitizers, multi-concept learners, fingerprinting-code tracing attacks,
and a reproducible experiment harness.
"""

from .domain import (
    ConceptClass,
    Distribution,
    EmptyDatabaseError,
    Hypotheses,
    LabeledDistribution,
    MultiLabeledDatabase,
    Universe,
    UniverseMismatchError,
    dichotomy_projection,
    generalization_errors,
    load_database,
    sample_database,
    save_database,
    vc_sample_size,
)
from .mechanisms import (
    PrivacyLedger,
    PrivacyParams,
    compose_advanced,
    compose_basic,
    dp_bound_holds,
    exponential_mechanism,
    exponential_mechanism_pmf,
    laplace_sample,
    noisy_threshold,
    noisy_threshold_pmf,
    stable_argmax,
    stable_argmax_pmf,
)
from .sanitize import (
    EnumerationBudgetError,
    SanitizedAnswers,
    SyntheticDatabase,
    answers_to_synthetic,
    sanitize_error,
    sanitize_exhaustive,
    sanitize_points,
)
from .learners import (
    LearnResult,
    direct_sum_learner,
    erm_multi,
    generic_multi_learner,
    generic_privacy_total,
    gf2_solve,
    parity_learner,
    parity_learner_pmf,
    point_learner,
)
from .fingerprint import (
    AttackReport,
    Codebook,
    attack_experiment,
    code_length,
    feasible,
    gen_codebook,
    pirate_word,
    trace_word,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialReport,
    emit,
    parse_config,
    run_experiment,
)
from .rng import stream
